#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Exact sample statistics for the benchmark. Percentiles are always one of
// the recorded samples (nearest rank), never a bucket bound, and each is
// reported with the number of samples behind it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// A multiset of nanosecond durations. Values below kDirect are counted in
// 1 ns buckets (fixed memory, however many samples a fast workload
// produces); larger values are kept verbatim. Either way every sample is
// stored exactly.
class Samples {
 public:
  static constexpr uint64_t kDirect = 1 << 16;

  void Add(uint64_t ns) {
    ++count_;
    sum_ += ns;
    if (ns < kDirect) {
      if (direct_.empty()) direct_.assign(kDirect, 0);
      ++direct_[ns];
    } else {
      large_.push_back(ns);
      sorted_ = false;
    }
  }

  void Merge(const Samples& o) {
    if (o.count_ == 0) return;
    count_ += o.count_;
    sum_ += o.sum_;
    if (!o.direct_.empty()) {
      if (direct_.empty()) direct_.assign(kDirect, 0);
      for (uint64_t i = 0; i < kDirect; ++i) direct_[i] += o.direct_[i];
    }
    large_.insert(large_.end(), o.large_.begin(), o.large_.end());
    sorted_ = false;
  }

  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  // Nearest-rank percentile: the smallest sample x such that at least
  // ceil(p/100 * n) samples are <= x. 0 when empty.
  uint64_t Percentile(double p) {
    if (count_ == 0) return 0;
    const double exact = p / 100.0 * static_cast<double>(count_);
    uint64_t rank = static_cast<uint64_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (uint64_t i = 0; i < direct_.size(); ++i) {
      seen += direct_[i];
      if (seen >= rank) return i;
    }
    if (!sorted_) {
      std::sort(large_.begin(), large_.end());
      sorted_ = true;
    }
    return large_[rank - seen - 1];
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  std::vector<uint32_t> direct_;  // per-ns counts; 4G per bucket is ample
  std::vector<uint64_t> large_;
  bool sorted_ = true;
};

// num / den, or 0 when there is nothing to divide by (a layer the
// workload never reached).
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
