#ifndef SPITFIRE_INDEX_BTREE_H_
#define SPITFIRE_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/status.h"

namespace spitfire {

// Concurrent B+Tree with optimistic lock coupling (Leis et al. [24]),
// built on top of the buffer manager (Section 5.2, "Concurrent Index").
// Keys and values are 64-bit integers (values are typically record ids).
//
// Locking protocol:
//  - Lookups traverse optimistically: they sample each node's version
//    latch (stored in the page's shared descriptor, so it survives page
//    migrations between DRAM and NVM), read, then validate; any
//    interference restarts the traversal. No latches are held.
//  - Inserts/deletes traverse optimistically and take a write latch only
//    on the leaf. If a structural modification (split) is needed, the
//    operation restarts in pessimistic mode, write-latch-coupling from the
//    root.
//  - Deletes remove keys from leaves without rebalancing (standard
//    practice in many production trees; space is reclaimed by later
//    inserts).
//  - The root pid is cached in memory (root_), so a descent starts with
//    one atomic load instead of a meta-page fetch; the meta page is the
//    durable copy. A root split installs the new root in both while it
//    still holds the old root write-latched, and every descent re-checks
//    root_ after sampling the root's version.
//
// Node reads take no pin when they can avoid it. Every descent goes
// through one helper (DescendToLeaf): a node whose DRAM copy is a full
// frame is read through BufferManager::ReadOptimistic, and the read counts
// only if both the node's version and the DRAM state word it was read
// under still validate — the latter proves the frame was not evicted or
// reused underneath. NVM copies, non-full DRAM copies and misses are
// fetched with a pin, which parks on a FetchContext on a miss. Leaves that
// an operation writes (Insert/Upsert/Remove) are always pinned: a writer
// dirties the frame and must keep it in place until it has unlatched. The
// scan's leaf-chain walk also pins each leaf; it only reads, and could
// read optimistically too.
//
// Note on ThreadSanitizer: optimistic readers race with writers on node
// bytes BY DESIGN — every optimistically-read value is discarded unless
// the subsequent version validation succeeds. Those reads sit inside a
// RacyReadScope, which keeps TSan from checking them.
class BTree {
 public:
  static constexpr uint32_t kMetaPageType = 0xB7EE0001;
  static constexpr uint32_t kNodePageType = 0xB7EE0002;

  // Creates a new tree: allocates a meta page and an empty root leaf.
  static Result<BTree*> Create(BufferManager* bm);
  // Opens an existing tree rooted at `meta_pid`.
  static Result<BTree*> Open(BufferManager* bm, page_id_t meta_pid);

  page_id_t meta_pid() const { return meta_pid_; }

  // All public operations take an optional FetchContext. With one, a
  // buffer miss anywhere in the traversal parks on the context and the
  // operation returns WouldBlock BEFORE any tree mutation — the caller
  // re-runs the whole call once the context fires, and the restart
  // re-traverses from the root (OLC restarts are cheap; the parked page is
  // by then resident). Without a context every fetch blocks (legacy path).
  // The exception that always blocks is the pessimistic split path (it
  // holds write latches across fetches, so parking would deadlock).

  // Inserts (key, value). Returns InvalidArgument if the key exists.
  Status Insert(uint64_t key, uint64_t value, FetchContext* ctx = nullptr);
  // Inserts or overwrites.
  Status Upsert(uint64_t key, uint64_t value, FetchContext* ctx = nullptr);
  // Point lookup.
  Status Lookup(uint64_t key, uint64_t* value,
                FetchContext* ctx = nullptr) const;
  // Removes the key. Returns NotFound if absent.
  Status Remove(uint64_t key, FetchContext* ctx = nullptr);
  // Visits entries in [lo, hi] in key order until fn returns false.
  // WouldBlock may surface after fn was invoked for earlier entries; a
  // resumed caller re-observes them (callers that need exactly-once per
  // entry must collect idempotently, as Table::Scan does).
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, uint64_t)>& fn,
              FetchContext* ctx = nullptr) const;

  // Number of entries (full scan; for tests).
  Result<uint64_t> Count() const;
  uint32_t height() const { return height_.load(std::memory_order_relaxed); }

 private:
  struct NodeRef;

  BTree(BufferManager* bm, page_id_t meta_pid, page_id_t root,
        uint32_t height)
      : bm_(bm), meta_pid_(meta_pid), root_(root), height_(height) {}

  Status InsertImpl(uint64_t key, uint64_t value, bool upsert,
                    FetchContext* ctx);
  Status OptimisticInsert(uint64_t key, uint64_t value, bool upsert,
                          bool* need_split, FetchContext* ctx);
  Status PessimisticInsert(uint64_t key, uint64_t value, bool upsert);

  // Opens `pid` for one step of a descent and samples its version: an
  // optimistic read when `pin` is false and the node has a full DRAM
  // frame, a pinned fetch through `ctx` otherwise. Returns OK, WouldBlock
  // (parked on ctx) or Busy (the caller restarts).
  Status OpenNode(page_id_t pid, AccessIntent intent, bool pin,
                  FetchContext* ctx, NodeRef* node) const;
  // Descends from the root to the leaf covering `key`, validating each
  // inner node before leaving it. Inner nodes are read optimistically
  // where possible; the leaf is pinned iff `pin_leaf`. On OK, *leaf is
  // opened but not yet validated. Same statuses as OpenNode.
  Status DescendToLeaf(uint64_t key, AccessIntent intent, bool pin_leaf,
                       FetchContext* ctx, NodeRef* leaf) const;

  page_id_t LoadRoot() const {
    return root_.load(std::memory_order_acquire);
  }

  BufferManager* bm_;
  page_id_t meta_pid_;
  // In-memory copies of the root pid and height; the meta page is their
  // durable copy. All change only at a root split, under the meta page's
  // write latch. The cache is per object, so one BTree object owns a tree
  // at a time.
  std::atomic<page_id_t> root_;
  std::atomic<uint32_t> height_;
};

}  // namespace spitfire

#endif  // SPITFIRE_INDEX_BTREE_H_
