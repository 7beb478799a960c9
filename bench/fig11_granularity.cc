// Figure 11: Optimal Granularity for Loading Data on NVM — HyMem-style
// cache-line-grained loading at 64/128/256/512 B units on YCSB-RO with an
// eager migration policy.
//
// Expected shape: throughput peaks at 256 B — Optane's device-level media
// granularity. 64 B loads pay ~4x the per-request latency for the same
// bytes (I/O amplification: each 64 B request still touches a 256 B media
// block); 512 B over-fetches.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace spitfire;          // NOLINT
using namespace spitfire::bench;   // NOLINT

int main() {
  LatencySimulator::SetScale(EnvScale());
  PrintBanner("Figure 11", "Optimal Granularity for Loading Data on NVM");
  const double kDramMb = 8, kNvmMb = 32, kDbMb = 20;
  const double seconds = EnvSeconds(0.6);
  const uint32_t grans[] = {64, 128, 256, 512};

  std::printf("\nYCSB-RO, eager policy, fine-grained loading (ops/s)\n");
  std::printf("%-14s %12s %14s\n", "unit (B)", "ops/s", "unit loads/op");
  // One JSON line per granularity, printed after the table.
  std::vector<JsonLine> json;
  for (uint32_t g : grans) {
    HierarchySpec spec;
    spec.dram_mb = kDramMb;
    spec.nvm_mb = kNvmMb;
    spec.ssd_mb = kDbMb + 16;
    spec.policy = MigrationPolicy::Eager();
    spec.fine_grained = true;
    spec.granularity = g;
    AccessPattern pat = YcsbRo(kDbMb, 0.3);

    Hierarchy h = MakeHierarchy(spec);
    Populate(*h.bm, pat.num_pages);
    AccessGenerator gen(pat);
    WarmUp(*h.bm, gen, pat.num_pages + 30000);
    const double ops = MeasureOps(*h.bm, gen, /*threads=*/1, seconds);
    const double loads =
        static_cast<double>(h.bm->stats().Snapshot().fine_grained_loads);
    const double per_op = ops > 0 ? loads / (ops * seconds) : 0;
    std::printf("%-14u %12.0f %14.2f\n", g, ops, per_op);
    std::fflush(stdout);
    json.push_back(JsonLine()
                       .Str("bench", "fig11_granularity")
                       .Num("unit_bytes", static_cast<uint64_t>(g))
                       .Num("ops_per_sec", ops)
                       .Num("unit_loads_per_op", per_op));
  }
  std::printf("\n");
  for (JsonLine& line : json) line.Print();
  return 0;
}
