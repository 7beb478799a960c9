#ifndef SPITFIRE_COMMON_HISTOGRAM_H_
#define SPITFIRE_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spitfire {

// Log-linear latency histogram (nanosecond samples), HDR style: values
// below 32 get exact buckets; above, each power-of-two octave is split
// into 32 equal sub-buckets, so a reported percentile (the sub-bucket's
// midpoint) is within about 1.6% of the true sample value. Fixed-size and
// allocation-free after construction; mergeable. Not thread-safe; each
// worker keeps its own and merges at the end of a run.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  // Nearest-rank percentile (p in [0, 100]): the midpoint of the bucket
  // holding the ceil(p% * count)-th smallest sample, clamped to
  // [min(), max()].
  uint64_t Percentile(double p) const;
  std::string ToString() const;

 private:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kNumBuckets = kSub + (64 - kSubBits) * kSub;
  static int BucketFor(uint64_t value);
  static uint64_t BucketMid(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace spitfire

#endif  // SPITFIRE_COMMON_HISTOGRAM_H_
