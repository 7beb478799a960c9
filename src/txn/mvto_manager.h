#ifndef SPITFIRE_TXN_MVTO_MANAGER_H_
#define SPITFIRE_TXN_MVTO_MANAGER_H_

#include <atomic>
#include <memory>

#include "common/status.h"
#include "txn/transaction.h"

namespace spitfire {

// Timestamp authority and active-transaction registry for the MVTO
// protocol (Wu et al. [39]). Visibility/conflict rules are applied by the
// versioned table heap (db/table.h); this class owns timestamps and the
// garbage-collection watermark.
//
// The registry is a fixed-size slot array of atomic timestamps (0 =
// free): Begin claims a slot with one CAS and Finish releases it with one
// store, so transaction start/finish is lock-free and stops being a
// global serial point under the sharded buffer manager. MinActiveTs()
// scans the array without locking; see Begin() for why the scan can never
// overtake a transaction that is mid-Begin.
//
// Begin and Finish write only two shared cachelines: the dispenser, which
// sits on a line of its own, and the caller's slot. Each thread starts
// probing at a cacheline of slots of its own and reuses the slot it last
// released, so threads do not write each other's slot lines.
class TransactionManager {
 public:
  // Upper bound on concurrently active transactions. 4096 slots of 8
  // bytes is one page of memory; Begin spins (it cannot fail) in the
  // pathological case that all slots are claimed.
  static constexpr uint32_t kMaxActiveTxns = 4096;

  TransactionManager();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(TransactionManager);

  // Starts a transaction with a fresh timestamp.
  std::unique_ptr<Transaction> Begin();

  // Removes the transaction from the active set (after commit or abort
  // processing completes).
  void Finish(Transaction* txn);

  // GC watermark: versions invisible to every timestamp >= MinActiveTs()
  // can be unlinked, and unlinked slots can be recycled once the txns that
  // might still traverse them have finished. Lock-free; the result is a
  // conservative lower bound (it may trail the true minimum when Finish
  // races the scan, which only delays GC, never breaks it).
  timestamp_t MinActiveTs() const;

  timestamp_t LastAssignedTs() const {
    return next_ts_.load(std::memory_order_relaxed) - 1;
  }

  // Restores the dispenser after recovery so new timestamps exceed any
  // recovered ones.
  void AdvanceTo(timestamp_t ts);

  // Number of registered transactions, by a slot scan. Racy against
  // concurrent Begin/Finish, so only meaningful when the caller knows no
  // transaction is starting or finishing (tests). Nothing on the
  // transaction path maintains a count: it would be one more shared
  // cacheline written twice per transaction.
  uint64_t active_count() const;

 private:
  // Slots per cacheline; a thread's first probe starts on a line boundary.
  static constexpr uint32_t kSlotsPerLine =
      kCacheLineSize / sizeof(std::atomic<timestamp_t>);

  // Every Begin writes the dispenser; nothing else lives on its line.
  alignas(kCacheLineSize) std::atomic<timestamp_t> next_ts_{1};

  // One cacheline per slot would burn 256 KB; timestamps are claimed
  // rarely (once per txn) relative to MinActiveTs scans, and the scan
  // wants density, so plain packed atomics win here. The array is
  // cacheline-aligned so each thread's probe start owns a whole line.
  struct alignas(kCacheLineSize) SlotArray {
    std::atomic<timestamp_t> ts[kMaxActiveTxns];
  };
  // Read by every Begin/Finish, so kept off the dispenser's line.
  alignas(kCacheLineSize) std::unique_ptr<SlotArray> slots_;
};

}  // namespace spitfire

#endif  // SPITFIRE_TXN_MVTO_MANAGER_H_
