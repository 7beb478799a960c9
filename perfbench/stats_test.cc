// Checks the benchmark's percentile and ratio code on known sample sets.
// Exits non-zero on the first mismatch.

#include <cstdio>
#include <cstdlib>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void ExpectEq(uint64_t got, uint64_t want, const char* what) {
  Expect(got == want, what, static_cast<double>(got),
         static_cast<double>(want));
}

}  // namespace

int main() {
  using perfbench::Ratio;
  using perfbench::Samples;

  {
    Samples s;
    ExpectEq(s.count(), 0, "empty count");
    ExpectEq(s.Percentile(50), 0, "empty p50");
    Expect(s.Mean() == 0, "empty mean", s.Mean(), 0);
  }
  {
    // 1..100 in shuffled order: nearest rank gives p50 = 50, p99 = 99.
    Samples s;
    for (uint64_t i = 0; i < 100; ++i) s.Add((i * 37) % 100 + 1);
    ExpectEq(s.count(), 100, "count 1..100");
    ExpectEq(s.Percentile(50), 50, "p50 of 1..100");
    ExpectEq(s.Percentile(99), 99, "p99 of 1..100");
    ExpectEq(s.Percentile(100), 100, "p100 of 1..100");
    ExpectEq(s.Percentile(0), 1, "p0 of 1..100");
    ExpectEq(s.Percentile(1), 1, "p1 of 1..100");
    ExpectEq(s.Percentile(1.5), 2, "p1.5 of 1..100");
    Expect(s.Mean() == 50.5, "mean of 1..100", s.Mean(), 50.5);
  }
  {
    // Values on both sides of the direct-count range, split over two
    // sets and merged: 1000 x 500 ns, 10 x 1 ms, 1 x 3 ms.
    Samples a, b;
    for (int i = 0; i < 1000; ++i) a.Add(500);
    for (int i = 0; i < 5; ++i) a.Add(1'000'000);
    for (int i = 0; i < 5; ++i) b.Add(1'000'000);
    b.Add(3'000'000);
    a.Merge(b);
    ExpectEq(a.count(), 1011, "merged count");
    ExpectEq(a.Percentile(50), 500, "merged p50");
    ExpectEq(a.Percentile(98.9), 500, "merged p98.9");  // rank 1000
    ExpectEq(a.Percentile(99), 1'000'000, "merged p99");  // rank 1001
    ExpectEq(a.Percentile(100), 3'000'000, "merged max");
    const double mean = (1000 * 500.0 + 10 * 1e6 + 3e6) / 1011;
    Expect(a.Mean() == mean, "merged mean", a.Mean(), mean);
    // A power-of-two bucket histogram would report 2^20 ns for the p99.
    Samples c;
    c.Add(Samples::kDirect - 1);
    c.Add(Samples::kDirect);
    ExpectEq(c.Percentile(50), Samples::kDirect - 1, "boundary low");
    ExpectEq(c.Percentile(100), Samples::kDirect, "boundary high");
  }
  {
    // Adding after a percentile query re-sorts the verbatim values.
    Samples s;
    s.Add(900'000);
    s.Add(700'000);
    ExpectEq(s.Percentile(50), 700'000, "unsorted p50");
    s.Add(100'000);
    ExpectEq(s.Percentile(50), 700'000, "re-sorted p50");
    ExpectEq(s.Percentile(1), 100'000, "re-sorted min");
  }
  Expect(Ratio(1, 4) == 0.25, "ratio", Ratio(1, 4), 0.25);
  Expect(Ratio(3, 0) == 0, "ratio by zero", Ratio(3, 0), 0);
  Expect(Ratio(0, 7) == 0, "zero ratio", Ratio(0, 7), 0);

  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
