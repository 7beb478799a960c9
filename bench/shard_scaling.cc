// Shard-scaling benchmark: throughput of the sharded buffer manager as
// the thread count and shard count grow, for two contention profiles.
//
//  - hot_hit: every access is a buffer hit (working set fits in DRAM,
//    latency simulator off). Measures the metadata the hit path still
//    shares per shard: the mapping-table slice, replacer state, and stats
//    slabs. This is where partitioning must pay off on many cores.
//  - miss_storm: uniform random fetches over a database 8x the pool, so
//    most fetches miss and the free list / eviction / miss-admission
//    machinery dominates. Partitioning splits free lists and admission
//    counters; the shared SSD scheduler stays the one global stage.
//
// Matrix: threads {1,2,4,8,16} x shards {1,4,8}; one JSON line per cell
// via JsonLine so BENCH_shard_scaling.json can be assembled and diffed
// across commits. shards=1 is the pre-sharding engine bit-for-bit, so
// hot_hit/shards=1 doubles as the micro_hit_path parity reference.

#include "bench_util.h"

namespace spitfire::bench {
namespace {

// Hot working set: 1024 pages = 32 routing blocks, so the block-granular
// hash spreads load across 8 shards without any slice overflowing; the
// buffer leaves 4x headroom per shard for residual skew.
constexpr double kHotDbMb = 16;       // 1024 pages
constexpr double kHotBufferMb = 64;   // whole working set resident, 4x slack
constexpr double kMissDbMb = 64;      // 4096 pages
constexpr double kMissBufferMb = 8;   // 512 frames → ~1/8 residency

void RunMode(const char* mode, double db_mb, double buffer_mb,
             bool prewarm_all, double seconds) {
  const uint64_t num_pages = PagesForMb(db_mb);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    HierarchySpec spec;
    spec.dram_mb = buffer_mb;
    spec.nvm_mb = 0;
    spec.ssd_mb = db_mb + 16;
    spec.num_shards = shards;
    Hierarchy h = MakeHierarchy(spec);
    Populate(*h.bm, num_pages);
    if (prewarm_all) {
      // Touch every page once so every measured fetch is a hit.
      for (page_id_t pid = 0; pid < num_pages; ++pid) {
        auto r = h.bm->FetchPage(pid, AccessIntent::kRead);
        SPITFIRE_CHECK(r.ok());
      }
    } else {
      // Let placement reach steady state before measuring.
      Xoshiro256 rng(0xBADC0FFEE);
      for (uint64_t i = 0; i < num_pages * 2; ++i) {
        (void)h.bm->FetchPage(rng.NextUint64(num_pages), AccessIntent::kRead);
      }
    }
    for (int threads : {1, 2, 4, 8, 16}) {
      h.bm->stats().Reset();
      const double ops =
          MeasureFetchOps(*h.bm, num_pages, threads, seconds, 0x5CA1AB1E);
      JsonLine()
          .Str("bench", "shard_scaling")
          .Str("mode", mode)
          .Num("threads", threads)
          .Num("shards", static_cast<uint64_t>(shards))
          .Num("pages", num_pages)
          .Num("ops_per_sec", ops)
          .Print();
    }
  }
}

void Main() {
  PrintBanner("shard_scaling",
              "sharded engine scaling: threads 1-16 x shards {1,4,8}");
  const double seconds = EnvSeconds(1.5);

  LatencySimulator::SetScale(0.0);
  RunMode("hot_hit", kHotDbMb, kHotBufferMb, /*prewarm_all=*/true, seconds);

  LatencySimulator::SetScale(1.0);
  RunMode("miss_storm", kMissDbMb, kMissBufferMb, /*prewarm_all=*/false,
          seconds);
}

}  // namespace
}  // namespace spitfire::bench

int main() { spitfire::bench::Main(); }
