#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace spitfire {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: page 7");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::IoError().code(), StatusCode::kIoError);
  EXPECT_EQ(Status::InvalidArgument().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Aborted().code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Busy().code(), StatusCode::kBusy);
  EXPECT_EQ(Status::Corruption().code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported().code(), StatusCode::kNotSupported);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Busy("later"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBusy());
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

TEST(XoshiroTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(XoshiroTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(XoshiroTest, NextUint64InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(XoshiroTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(XoshiroTest, BernoulliExtremes) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
}

TEST(XoshiroTest, BernoulliApproximatesProbability) {
  Xoshiro256 rng(99);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.2);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  ZipfianGenerator z(100, 0.0);
  Xoshiro256 rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Next(rng)]++;
  // Every key should appear; roughly uniform.
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(ZipfianTest, SkewConcentratesOnSmallKeys) {
  ZipfianGenerator z(1000, 0.9);
  Xoshiro256 rng(5);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) head += (z.Next(rng) < 10);
  // With theta=0.9 the top-10 keys take a large share.
  EXPECT_GT(head, n / 4);
}

TEST(ZipfianTest, OutputAlwaysInRange) {
  ZipfianGenerator z(37, 0.5);
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(rng), 37u);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator z(1000, 0.9);
  Xoshiro256 rng(5);
  std::set<uint64_t> distinct;
  for (int i = 0; i < 1000; ++i) distinct.insert(z.Next(rng));
  // Hashing should spread the head across the key space.
  EXPECT_GT(distinct.size(), 100u);
  for (uint64_t v : distinct) EXPECT_LT(v, 1000u);
}

TEST(ThreadLocalRngTest, DistinctAcrossThreads) {
  uint64_t a = 0, b = 0;
  std::thread t1([&] { a = ThreadLocalRng().Next(); });
  std::thread t2([&] { b = ThreadLocalRng().Next(); });
  t1.join();
  t2.join();
  EXPECT_NE(a, b);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v : {10, 20, 30, 40, 50}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 50u);
  EXPECT_DOUBLE_EQ(h.Mean(), 30.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(5);
  b.Add(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.NextUint64(1000000));
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
}

// Percentiles come from log-linear buckets (~3% relative error at most),
// not power-of-two bucket bounds, and a small p never reports a value
// below the smallest sample.
TEST(HistogramTest, PercentilesAreLogLinearAccurate) {
  Histogram h;
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) h.Add(1000 + rng.NextUint64(1000));
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 1500.0, 45.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 1990.0, 60.0);
  EXPECT_GE(h.Percentile(0.001), h.min());
  EXPECT_LE(h.Percentile(100), h.max());
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  SpinWaitNanos(1000000);  // 1 ms
  EXPECT_GE(t.ElapsedNanos(), 900000u);
}

}  // namespace
}  // namespace spitfire
