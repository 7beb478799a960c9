#include "txn/mvto_manager.h"

#include <algorithm>

namespace spitfire {

TransactionManager::TransactionManager()
    : slots_(std::make_unique<SlotArray>()) {
  for (uint32_t i = 0; i < kMaxActiveTxns; ++i) {
    slots_->ts[i].store(0, std::memory_order_relaxed);
  }
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  // Claim a slot BEFORE drawing the real timestamp, seeding it with a
  // lower bound (every timestamp the dispenser can still hand out is
  // >= its current value). A concurrent MinActiveTs scan therefore sees
  // either this reservation (<= our eventual ts) or — if it misses the
  // slot — a dispenser value it read AFTER our fetch_add, which its
  // min() clamps against. Both keep the watermark <= our timestamp; the
  // reservation may make it temporarily too low, which only delays GC.
  // The CAS/fetch_add/scan all use seq_cst so "reservation before
  // fetch_add" and "dispenser read before slot scan" order globally.
  //
  // A thread's first probe starts on a slot line no other thread starts
  // on (until more than kMaxActiveTxns / kSlotsPerLine threads exist), and
  // later probes start at the slot it claimed last, which its Finish has
  // freed unless it runs several transactions at once.
  static std::atomic<uint32_t> next_line{0};
  thread_local uint32_t hint =
      next_line.fetch_add(1, std::memory_order_relaxed) * kSlotsPerLine %
      kMaxActiveTxns;
  uint32_t slot = kMaxActiveTxns;
  for (;;) {
    // An earlier dispenser value is a lower bound too. A busy slot costs
    // only a load: a failed CAS would still take its line exclusive.
    const timestamp_t reservation = next_ts_.load();
    for (uint32_t probe = 0; probe < kMaxActiveTxns; ++probe) {
      const uint32_t i = (hint + probe) % kMaxActiveTxns;
      timestamp_t expected = 0;
      if (slots_->ts[i].load(std::memory_order_relaxed) == 0 &&
          slots_->ts[i].compare_exchange_strong(expected, reservation)) {
        slot = i;
        break;
      }
    }
    if (slot != kMaxActiveTxns) break;
    // All kMaxActiveTxns slots busy: wait for a Finish. Unrealistic in
    // practice (it means 4096 concurrently open transactions).
    __builtin_ia32_pause();
  }
  hint = slot;

  const timestamp_t ts = next_ts_.fetch_add(1);
  slots_->ts[slot].store(ts);

  // Transaction ids and timestamps share the dispenser (MVTO assigns a
  // single timestamp per transaction).
  auto txn = std::make_unique<Transaction>(/*id=*/ts, /*ts=*/ts);
  txn->active_slot = slot;
  return txn;
}

void TransactionManager::Finish(Transaction* txn) {
  const uint32_t slot = txn->active_slot;
  if (slot >= kMaxActiveTxns) return;  // never registered / already finished
  txn->active_slot = UINT32_MAX;
  slots_->ts[slot].store(0);
}

timestamp_t TransactionManager::MinActiveTs() const {
  // Read the dispenser FIRST: any Begin whose timestamp is below this
  // bound performed its slot reservation before our slot reads (seq_cst
  // total order), so the scan observes it. Begins that race past the
  // bound can only raise the minimum, never lower it below `bound`.
  const timestamp_t bound = next_ts_.load();
  timestamp_t min = bound;
  for (uint32_t i = 0; i < kMaxActiveTxns; ++i) {
    const timestamp_t ts = slots_->ts[i].load();
    if (ts != 0) min = std::min(min, ts);
  }
  return min;
}

uint64_t TransactionManager::active_count() const {
  uint64_t n = 0;
  for (uint32_t i = 0; i < kMaxActiveTxns; ++i) {
    if (slots_->ts[i].load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

void TransactionManager::AdvanceTo(timestamp_t ts) {
  timestamp_t cur = next_ts_.load(std::memory_order_relaxed);
  while (ts > cur && !next_ts_.compare_exchange_weak(cur, ts)) {
  }
}

}  // namespace spitfire
