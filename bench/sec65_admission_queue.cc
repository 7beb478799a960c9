// Section 6.5 (Admission Queue Size): the HyMem paper does not state its
// admission queue capacity, so Spitfire's authors sweep it and find that
// half the NVM buffer's page count works well. This benchmark reproduces
// that sweep: throughput of the HyMem policy as the admission queue
// capacity varies from a token handful to several times the NVM buffer.
//
// Expected shape: tiny queues forget pages before their second eviction
// (nothing gets admitted into NVM → the NVM buffer idles); very large
// queues admit everything on the second touch (fine, plateaus); the knee
// sits around half the NVM buffer page count.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace spitfire;          // NOLINT
using namespace spitfire::bench;   // NOLINT

int main() {
  LatencySimulator::SetScale(EnvScale());
  PrintBanner("Section 6.5", "HyMem Admission Queue Size");
  const double kDramMb = 8, kNvmMb = 32, kDbMb = 60;
  const double seconds = EnvSeconds(0.4);
  const size_t nvm_pages = FramesForMb(kNvmMb);

  const double fractions[] = {0.03125, 0.125, 0.5, 2.0, 8.0};
  std::printf("\nHyMem policy, YCSB-RO and YCSB-BA (ops/s)\n");
  std::printf("%-26s %12s %12s %14s\n", "queue capacity", "YCSB-RO",
              "YCSB-BA", "NVM resident");
  // One JSON line per point, printed after the table.
  std::vector<JsonLine> json;
  for (double frac : fractions) {
    const size_t cap = std::max<size_t>(1, static_cast<size_t>(
                                               nvm_pages * frac));
    std::printf("%6zu (%5.3gx NVM pages)", cap, frac);
    size_t resident = 0;
    for (int mix = 0; mix < 2; ++mix) {
      HierarchySpec spec;
      spec.dram_mb = kDramMb;
      spec.nvm_mb = kNvmMb;
      spec.ssd_mb = kDbMb + 16;
      spec.policy = MigrationPolicy::Hymem();
      spec.admission = NvmAdmissionMode::kAdmissionQueue;
      spec.admission_queue_capacity = cap;
      AccessPattern pat = mix == 0 ? YcsbRo(kDbMb) : YcsbBa(kDbMb);
      Hierarchy h = MakeHierarchy(spec);
      Populate(*h.bm, pat.num_pages);
      AccessGenerator gen(pat);
      WarmUp(*h.bm, gen, pat.num_pages + 300'000);
      const double ops = MeasureOps(*h.bm, gen, /*threads=*/1, seconds);
      std::printf(" %12.0f", ops);
      std::fflush(stdout);
      resident = h.bm->NvmResidentPages();
      json.push_back(JsonLine()
                         .Str("bench", "sec65_admission_queue")
                         .Str("pattern", pat.name)
                         .Num("queue_capacity", static_cast<uint64_t>(cap))
                         .Num("nvm_page_fraction", frac)
                         .Num("ops_per_sec", ops)
                         .Num("nvm_resident_pages",
                              static_cast<uint64_t>(resident)));
    }
    std::printf(" %10zu pages\n", resident);
  }
  std::printf("\n");
  for (JsonLine& line : json) line.Print();
  return 0;
}
