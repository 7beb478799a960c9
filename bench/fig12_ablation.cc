// Figure 12 (+ Table 3): Ablation Study of HyMem and Spitfire — the
// incremental impact of (1) fine-grained loading and (2) the mini-page
// layout, under the three migration policies of Table 3, on YCSB-RO and a
// TPC-C-like mix.
//
// Expected shape: fine-grained loading helps the eager policies (HyMem,
// Spitfire-Eager) on YCSB-RO; the mini page adds little; the lazy policy
// barely benefits because it already avoids NVM→DRAM traffic — and even
// its *baseline* beats the optimized eager policies, the paper's headline
// ablation result ("the choice of the migration policy is more important
// than the other optimizations").
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace spitfire;          // NOLINT
using namespace spitfire::bench;   // NOLINT

namespace {

struct PolicySpec {
  const char* name;
  MigrationPolicy policy;
  NvmAdmissionMode admission;
};

}  // namespace

int main() {
  LatencySimulator::SetScale(EnvScale());
  PrintBanner("Figure 12", "Ablation Study of HyMem and Spitfire");
  const double kDramMb = 8, kNvmMb = 32, kDbMb = 20;
  const double seconds = EnvSeconds(0.4);

  const PolicySpec policies[] = {
      {"HyMem", MigrationPolicy::Hymem(), NvmAdmissionMode::kAdmissionQueue},
      {"Spf-Eager", MigrationPolicy::Eager(),
       NvmAdmissionMode::kProbabilistic},
      {"Spf-Lazy", MigrationPolicy::Lazy(), NvmAdmissionMode::kProbabilistic},
  };
  std::printf("\nTable 3 — Migration Policies\n");
  std::printf("  %-10s Dr=1    Dw=1    Nr=0    Nw=AdmissionQueue\n", "HyMem");
  std::printf("  %-10s Dr=1    Dw=1    Nr=1    Nw=1\n", "Spf-Eager");
  std::printf("  %-10s Dr=0.01 Dw=0.01 Nr=0.2  Nw=1\n", "Spf-Lazy");

  const AccessPattern pats[] = {YcsbRo(kDbMb, 0.3), TpccLike(kDbMb)};
  struct Variant {
    const char* name;
    bool fine_grained;
    bool mini;
  };
  const Variant variants[] = {{"NONE", false, false},
                              {"+FINE-GRAINED", true, false},
                              {"+MINI PAGE", true, true}};

  // One JSON line per cell, printed after the tables.
  std::vector<JsonLine> json;
  for (const AccessPattern& pat : pats) {
    std::printf("\n--- %s (ops/s) ---\n", pat.name.c_str());
    std::printf("%-16s %12s %12s %12s\n", "", "HyMem", "Spf-Eager",
                "Spf-Lazy");
    for (const Variant& v : variants) {
      std::printf("%-16s", v.name);
      for (const PolicySpec& pol : policies) {
        HierarchySpec spec;
        spec.dram_mb = kDramMb;
        spec.nvm_mb = kNvmMb;
        spec.ssd_mb = kDbMb + 16;
        spec.policy = pol.policy;
        spec.admission = pol.admission;
        // ~8 MB queue at paper scale ≈ half the NVM buffer's page count.
        spec.admission_queue_capacity = FramesForMb(kNvmMb) / 2;
        spec.fine_grained = v.fine_grained;
        spec.mini_pages = v.mini;
        spec.granularity = 256;
        RunResult r = RunPoint(spec, pat, /*threads=*/1, seconds);
        std::printf(" %12.0f", r.ops_per_sec);
        std::fflush(stdout);
        json.push_back(JsonLine()
                           .Str("bench", "fig12_ablation")
                           .Str("pattern", pat.name)
                           .Str("variant", v.name)
                           .Str("policy", pol.name)
                           .Num("ops_per_sec", r.ops_per_sec)
                           .Num("fine_grained_loads",
                                r.buffer.fine_grained_loads)
                           .Num("mini_page_admits", r.buffer.mini_page_admits)
                           .Num("mini_page_promotions",
                                r.buffer.mini_page_promotions));
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
  for (JsonLine& line : json) line.Print();
  return 0;
}
