// Hit-path microbenchmark: pure FetchPage/unpin throughput when every
// access is a buffer hit, at 1/2/4/8 threads, for a DRAM-only and an
// NVM-only hierarchy. This isolates the pin/unpin fast path (the target of
// the optimistic-pinning work) from device latency and migration effects:
// the latency simulator is off and the working set fits in the buffer.
//
// Emits one JSON line per (tier, threads) configuration via JsonLine so
// speedups and regressions are diffable across commits.

#include "bench_util.h"

namespace spitfire::bench {
namespace {

constexpr double kDbMb = 8;       // 512 pages — fits either buffer
constexpr double kBufferMb = 16;  // room for the whole working set

void RunTier(const char* tier_name, const HierarchySpec& spec,
             double seconds) {
  Hierarchy h = MakeHierarchy(spec);
  const uint64_t num_pages = PagesForMb(kDbMb);
  Populate(*h.bm, num_pages);
  // Touch every page once so the whole working set is buffer resident;
  // after this pass every measured fetch is a hit.
  for (page_id_t pid = 0; pid < num_pages; ++pid) {
    auto r = h.bm->FetchPage(pid, AccessIntent::kRead);
    SPITFIRE_CHECK(r.ok());
  }
  for (int threads : {1, 2, 4, 8}) {
    h.bm->stats().Reset();
    // Each op pins a uniformly random page and releases it; no tuple
    // payload is copied, so the descriptor hot path dominates.
    const double ops =
        MeasureFetchOps(*h.bm, num_pages, threads, seconds, 0x517F14E);
    JsonLine()
        .Str("bench", "micro_hit_path")
        .Str("tier", tier_name)
        .Num("threads", threads)
        .Num("pages", num_pages)
        .Num("ops_per_sec", ops)
        .Print();
  }
}

void Main() {
  PrintBanner("micro_hit_path", "buffer-hit fetch throughput (latch path)");
  const double seconds = EnvSeconds(1.5);
  LatencySimulator::SetScale(0.0);

  HierarchySpec dram;
  dram.dram_mb = kBufferMb;
  dram.nvm_mb = 0;
  dram.ssd_mb = 64;
  RunTier("dram", dram, seconds);

  HierarchySpec nvm;
  nvm.dram_mb = 0;
  nvm.nvm_mb = kBufferMb;
  nvm.ssd_mb = 64;
  RunTier("nvm", nvm, seconds);
}

}  // namespace
}  // namespace spitfire::bench

int main() { spitfire::bench::Main(); }
