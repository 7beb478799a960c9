#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace spitfire {

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketFor(uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  // Octave e = floor(log2 value) >= kSubBits; the kSubBits bits below the
  // leading one pick the sub-bucket.
  const int shift = 63 - std::countl_zero(value) - kSubBits;
  return kSub + shift * kSub +
         static_cast<int>((value >> shift) & (kSub - 1));
}

uint64_t Histogram::BucketMid(int bucket) {
  if (bucket < kSub) return static_cast<uint64_t>(bucket);
  const int shift = (bucket - kSub) / kSub;
  const uint64_t low = static_cast<uint64_t>(kSub + (bucket - kSub) % kSub)
                       << shift;
  return low + ((1ULL << shift) >> 1);
}

void Histogram::Add(uint64_t value) {
  buckets_[BucketFor(value)]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
  const uint64_t target = std::clamp<uint64_t>(
      rank > 0 ? static_cast<uint64_t>(rank) : 0, 1, count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) return std::clamp(BucketMid(i), min_, max_);
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f min=%llu p50=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_), Mean(),
                static_cast<unsigned long long>(min()),
                static_cast<unsigned long long>(Percentile(50)),
                static_cast<unsigned long long>(Percentile(99)),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace spitfire
