#ifndef SPITFIRE_BUFFER_STATS_H_
#define SPITFIRE_BUFFER_STATS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/macros.h"

namespace spitfire {

// Buffer manager counters, one line each: X(enum, snapshot field,
// ToString key). The enum, BufferStatsSnapshot, Accumulate, ToString and
// BufferStats::Snapshot are all generated from this list.
#define SPITFIRE_BUFFER_COUNTERS(X)                                         \
  X(kDramHits, dram_hits, "dram_hits")                                      \
  X(kNvmHits, nvm_hits, "nvm_hits")          /* served directly from NVM */ \
  X(kSsdFetches, ssd_fetches, "ssd_fetches") /* misses that went to SSD */  \
  X(kPromotions, promotions, "promotions")   /* NVM → DRAM migrations */    \
  X(kDemotionsToNvm, demotions_to_nvm, "dem_nvm") /* DRAM → NVM on evict */ \
  X(kDemotionsToSsd, demotions_to_ssd, "dem_ssd") /* DRAM → SSD, no NVM */  \
  X(kNvmInstalls, nvm_installs, "nvm_installs") /* SSD → NVM on read */     \
  X(kNvmEvictions, nvm_evictions, "nvm_evict")  /* NVM → SSD / dropped */   \
  X(kDramEvictions, dram_evictions, "dram_evict")                           \
  X(kFineGrainedLoads, fine_grained_loads, "fg_loads") /* cache lines */    \
  X(kMiniPageAdmits, mini_page_admits, "mini_admits")                       \
  X(kMiniPagePromotions, mini_page_promotions, "mini_promos") /* overflow */\
  X(kReadAheadInstalls, read_ahead_installs, "ra_installs") /* prefetch */  \
  X(kMissSubmits, miss_submits, "miss_submits") /* led a device read */     \
  X(kMissJoins, miss_joins, "miss_joins")       /* joined an inflight read */\
  X(kReplacerSampled, replacer_sampled, "repl_sampled") /* hits recorded */ \
  X(kWriteFetches, write_fetches, "write_fetches") /* write-intent fetches */

enum class BufferCounter : uint8_t {
#define SPITFIRE_X(e, field, key) e,
  SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
  kNumCounters,
};

// Point-in-time aggregation of BufferStats; plain integers, safe to copy
// and diff. Field names match the historical counter names.
struct BufferStatsSnapshot {
#define SPITFIRE_X(e, field, key) uint64_t field = 0;
  SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
  // Derived, not counted: hits the 1-in-N sampler dropped. Counting these
  // per hit would put an atomic RMW back on the latch-free hit path.
  uint64_t replacer_suppressed = 0;

  // Every successful FetchPage increments exactly one of these three.
  uint64_t TotalFetches() const { return dram_hits + nvm_hits + ssd_fetches; }

  // Field-wise sum; the sharded buffer manager merges its per-shard
  // snapshots through this.
  void Accumulate(const BufferStatsSnapshot& o) {
#define SPITFIRE_X(e, field, key) field += o.field;
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    replacer_suppressed += o.replacer_suppressed;
  }

  std::string ToString() const {
    std::string out;
    char buf[64];
    const auto add = [&](const char* key, uint64_t v) {
      std::snprintf(buf, sizeof(buf), "%s%s=%llu", out.empty() ? "" : " ",
                    key, static_cast<unsigned long long>(v));
      out += buf;
    };
#define SPITFIRE_X(e, field, key) add(key, field);
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    add("repl_suppressed", replacer_suppressed);
    return out;
  }
};

// Sharded buffer manager counters. The hit path increments one counter per
// fetch, so a single shared cacheline of atomics becomes a coherence
// hotspot at high thread counts; instead each thread hashes to one of
// kShards cacheline-padded slabs and Snapshot() sums them for reporting.
// All increments are relaxed — counters are for reporting only.
class BufferStats {
 public:
  static constexpr size_t kShards = 16;

  void Add(BufferCounter c, uint64_t n = 1) {
    shards_[ShardIndex()].counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  BufferStatsSnapshot Snapshot() const {
    uint64_t sums[static_cast<size_t>(BufferCounter::kNumCounters)] = {};
    for (const Shard& s : shards_) {
      for (size_t i = 0; i < static_cast<size_t>(BufferCounter::kNumCounters);
           ++i) {
        sums[i] += s.counters[i].load(std::memory_order_relaxed);
      }
    }
    BufferStatsSnapshot snap;
#define SPITFIRE_X(e, field, key) \
  snap.field = sums[static_cast<size_t>(BufferCounter::e)];
    SPITFIRE_BUFFER_COUNTERS(SPITFIRE_X)
#undef SPITFIRE_X
    // Every DRAM/NVM hit either forwards to the replacer or is suppressed;
    // derive the suppressed count instead of paying for it on the hit path.
    const uint64_t hits = snap.dram_hits + snap.nvm_hits;
    snap.replacer_suppressed =
        hits > snap.replacer_sampled ? hits - snap.replacer_sampled : 0;
    return snap;
  }

  void Reset() {
    for (Shard& s : shards_) {
      for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    }
  }

  std::string ToString() const { return Snapshot().ToString(); }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::atomic<uint64_t> counters[static_cast<size_t>(
        BufferCounter::kNumCounters)] = {};
  };

  // Threads are striped over shards round-robin at first use; on machines
  // with ≤ kShards active workers every thread gets a private slab.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  Shard shards_[kShards];
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_STATS_H_
