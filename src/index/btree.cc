#include "index/btree.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace spitfire {

namespace {

// Node layout inside the 16 KB page payload.
struct NodeHeader {
  uint16_t is_leaf;
  uint16_t level;  // 0 = leaf
  uint32_t count;
  page_id_t next_leaf;  // leaves only; kInvalidPageId terminates the chain
};
static_assert(sizeof(NodeHeader) == 16);

constexpr size_t kEntryArea = kPagePayloadSize - sizeof(NodeHeader);
// Leaf: key/value pairs. Inner: n keys + (n+1) children.
constexpr size_t kLeafCapacity = kEntryArea / (2 * sizeof(uint64_t));
constexpr size_t kInnerCapacity = (kEntryArea - sizeof(page_id_t)) /
                                  (sizeof(uint64_t) + sizeof(page_id_t));

struct MetaPayload {
  page_id_t root;
  uint32_t height;
  uint32_t magic;
};
constexpr uint32_t kMetaMagic = 0x42545245;  // "BTRE"

class NodeView {
 public:
  explicit NodeView(std::byte* page) : p_(page + kPageHeaderSize) {}

  NodeHeader* hdr() { return reinterpret_cast<NodeHeader*>(p_); }
  const NodeHeader* hdr() const {
    return reinterpret_cast<const NodeHeader*>(p_);
  }

  uint64_t* keys() {
    return reinterpret_cast<uint64_t*>(p_ + sizeof(NodeHeader));
  }
  const uint64_t* keys() const {
    return reinterpret_cast<const uint64_t*>(p_ + sizeof(NodeHeader));
  }

  // Leaf values, after the key array.
  uint64_t* values() { return keys() + kLeafCapacity; }
  const uint64_t* values() const { return keys() + kLeafCapacity; }

  // Inner children, after the key array.
  page_id_t* children() {
    return reinterpret_cast<page_id_t*>(keys() + kInnerCapacity);
  }
  const page_id_t* children() const {
    return reinterpret_cast<const page_id_t*>(keys() + kInnerCapacity);
  }

  bool IsLeaf() const { return hdr()->is_leaf != 0; }
  // Count clamped to capacity: optimistic readers may observe torn state
  // and must never index out of bounds (validation rejects the result).
  uint32_t SafeCount() const {
    const uint32_t c = hdr()->count;
    const uint32_t cap =
        IsLeaf() ? static_cast<uint32_t>(kLeafCapacity)
                 : static_cast<uint32_t>(kInnerCapacity);
    return c > cap ? cap : c;
  }

  void InitLeaf() {
    NodeHeader h{};
    h.is_leaf = 1;
    h.level = 0;
    h.count = 0;
    h.next_leaf = kInvalidPageId;
    std::memcpy(p_, &h, sizeof(h));
  }
  void InitInner(uint16_t level) {
    NodeHeader h{};
    h.is_leaf = 0;
    h.level = level;
    h.count = 0;
    h.next_leaf = kInvalidPageId;
    std::memcpy(p_, &h, sizeof(h));
  }

  // Routing: first child whose key range can contain `key`. Children obey
  // keys[i-1] <= k < keys[i].
  uint32_t ChildIndex(uint64_t key) const {
    const uint32_t n = SafeCount();
    const uint64_t* k = keys();
    return static_cast<uint32_t>(std::upper_bound(k, k + n, key) - k);
  }

  // Position of `key` in a leaf, or position where it would be inserted.
  uint32_t LeafLowerBound(uint64_t key) const {
    const uint32_t n = SafeCount();
    const uint64_t* k = keys();
    return static_cast<uint32_t>(std::lower_bound(k, k + n, key) - k);
  }

 private:
  std::byte* p_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<BTree*> BTree::Create(BufferManager* bm) {
  auto meta_r = bm->NewPage(kMetaPageType);
  if (!meta_r.ok()) return meta_r.status();
  PageGuard meta = meta_r.MoveValue();

  auto root_r = bm->NewPage(kNodePageType);
  if (!root_r.ok()) return root_r.status();
  PageGuard root = root_r.MoveValue();
  std::byte* rp = root.RawData(/*for_write=*/true);
  if (rp == nullptr) return Status::OutOfMemory("root frame");
  NodeView(rp).InitLeaf();

  MetaPayload mp{root.pid(), 1, kMetaMagic};
  SPITFIRE_RETURN_NOT_OK(meta.WriteAt(kPageHeaderSize, sizeof(mp), &mp));
  return new BTree(bm, meta.pid(), root.pid(), 1);
}

Result<BTree*> BTree::Open(BufferManager* bm, page_id_t meta_pid) {
  auto meta_r = bm->FetchPage(meta_pid, AccessIntent::kRead);
  if (!meta_r.ok()) return meta_r.status();
  MetaPayload mp{};
  SPITFIRE_RETURN_NOT_OK(
      meta_r.value().ReadAt(kPageHeaderSize, sizeof(mp), &mp));
  if (mp.magic != kMetaMagic) return Status::Corruption("not a btree meta");
  return new BTree(bm, meta_pid, mp.root, mp.height);
}

// ---------------------------------------------------------------------------
// Descent (optimistic, pin-free where the node has a full DRAM frame)
// ---------------------------------------------------------------------------

// One node on a descent: read through `opt` without a pin, or pinned by
// `guard`. `data` points at the node's page either way.
struct BTree::NodeRef {
  page_id_t pid = kInvalidPageId;
  SharedPageDescriptor* desc = nullptr;
  std::byte* data = nullptr;
  uint64_t version = 0;
  OptimisticRead opt;
  PageGuard guard;

  bool pinned() const { return guard.valid(); }
  // Whether everything read from `data` so far holds: no writer touched
  // the node, and an unpinned frame still holds it.
  bool Validate() const {
    return desc->version_latch.Validate(version) &&
           (pinned() || opt.Validate());
  }
};

Status BTree::OpenNode(page_id_t pid, AccessIntent intent, bool pin,
                       FetchContext* ctx, NodeRef* node) const {
  node->pid = pid;
  if (!pin && bm_->ReadOptimistic(pid, intent, &node->opt)) {
    node->desc = node->opt.desc;
    node->data = node->opt.data;
  } else {
    auto g_r = FetchPageVia(bm_, ctx, pid, intent);
    if (!g_r.ok()) {
      // A parked miss must escape the restart loop: the caller unwinds to
      // its scheduler and re-enters the operation once the fetch fires.
      if (g_r.status().IsWouldBlock()) return g_r.status();
      return Status::Busy("fetch");
    }
    node->guard = g_r.MoveValue();
    node->desc = node->guard.descriptor();
    node->data = node->guard.RawData();
    if (node->data == nullptr) return Status::Busy("frame");
  }
  node->version = node->desc->version_latch.ReadLockOrRestart();
  if (node->version == OptimisticLatch::kRetry) {
    return Status::Busy("node latched");
  }
  return Status::OK();
}

Status BTree::DescendToLeaf(uint64_t key, AccessIntent intent,
                            bool pin_leaf, FetchContext* ctx,
                            NodeRef* leaf) const {
  // A root split stores height_ before root_ (release), so the height
  // read after the root is at least as new as the root.
  const page_id_t root = LoadRoot();
  const bool root_is_leaf = height_.load(std::memory_order_relaxed) == 1;
  NodeRef node;
  SPITFIRE_RETURN_NOT_OK(
      OpenNode(root, intent, pin_leaf && root_is_leaf, ctx, &node));
  if (LoadRoot() != root) return Status::Busy("root changed");
  for (;;) {
    bool is_leaf;
    bool child_is_leaf = false;
    page_id_t child = kInvalidPageId;
    {
      const RacyReadScope racy;
      const NodeView view(node.data);
      is_leaf = view.IsLeaf();
      if (!is_leaf) {
        child_is_leaf = view.hdr()->level == 1;
        child = view.children()[view.ChildIndex(key)];
      }
    }
    if (is_leaf) {
      // An old root read with a newer height: the restart reloads both.
      if (pin_leaf && !node.pinned()) return Status::Busy("leaf unpinned");
      *leaf = std::move(node);
      return Status::OK();
    }
    if (!node.Validate()) return Status::Busy("node changed");
    NodeRef next;
    SPITFIRE_RETURN_NOT_OK(
        OpenNode(child, intent, pin_leaf && child_is_leaf, ctx, &next));
    if (!node.Validate()) return Status::Busy("parent changed");
    node = std::move(next);
  }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Status BTree::Lookup(uint64_t key, uint64_t* value,
                     FetchContext* ctx) const {
  for (int restart = 0; restart < 1000000; ++restart) {
    if ((restart & 63) == 63) std::this_thread::yield();
    NodeRef leaf;
    const Status st =
        DescendToLeaf(key, AccessIntent::kRead, /*pin_leaf=*/false, ctx,
                      &leaf);
    if (st.IsWouldBlock()) return st;
    if (!st.ok()) continue;
    bool found;
    uint64_t v = 0;
    {
      const RacyReadScope racy;
      const NodeView node(leaf.data);
      const uint32_t pos = node.LeafLowerBound(key);
      found = pos < node.SafeCount() && node.keys()[pos] == key;
      if (found) v = node.values()[pos];
    }
    if (!leaf.Validate()) continue;
    if (!found) return Status::NotFound("key");
    *value = v;
    return Status::OK();
  }
  return Status::Busy("btree lookup retry budget exhausted");
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(uint64_t key, uint64_t value, FetchContext* ctx) {
  return InsertImpl(key, value, /*upsert=*/false, ctx);
}

Status BTree::Upsert(uint64_t key, uint64_t value, FetchContext* ctx) {
  return InsertImpl(key, value, /*upsert=*/true, ctx);
}

Status BTree::InsertImpl(uint64_t key, uint64_t value, bool upsert,
                         FetchContext* ctx) {
  for (int restart = 0; restart < 1000000; ++restart) {
    if ((restart & 63) == 63) std::this_thread::yield();
    bool need_split = false;
    Status st = OptimisticInsert(key, value, upsert, &need_split, ctx);
    if (st.IsWouldBlock()) return st;
    if (st.ok() || !st.IsBusy()) {
      if (!need_split) return st;
    }
    if (need_split) {
      st = PessimisticInsert(key, value, upsert);
      if (st.ok() || !st.IsBusy()) return st;
    }
  }
  return Status::Busy("btree insert retry budget exhausted");
}

Status BTree::OptimisticInsert(uint64_t key, uint64_t value, bool upsert,
                               bool* need_split, FetchContext* ctx) {
  *need_split = false;
  NodeRef ref;
  SPITFIRE_RETURN_NOT_OK(
      DescendToLeaf(key, AccessIntent::kWrite, /*pin_leaf=*/true, ctx, &ref));
  // Take the leaf latch for real.
  OptimisticLatch& latch = ref.desc->version_latch;
  if (!latch.UpgradeToWriteLock(ref.version)) {
    return Status::Busy("upgrade failed");
  }
  NodeView leaf(ref.guard.RawData(/*for_write=*/true));
  const uint32_t n = leaf.hdr()->count;
  const uint32_t pos = leaf.LeafLowerBound(key);
  if (pos < n && leaf.keys()[pos] == key) {
    if (!upsert) {
      latch.WriteUnlockNoBump();
      return Status::InvalidArgument("duplicate key");
    }
    leaf.values()[pos] = value;
    latch.WriteUnlock();
    return Status::OK();
  }
  if (n >= kLeafCapacity) {
    latch.WriteUnlockNoBump();
    *need_split = true;
    return Status::Busy("leaf full");
  }
  std::memmove(leaf.keys() + pos + 1, leaf.keys() + pos,
               (n - pos) * sizeof(uint64_t));
  std::memmove(leaf.values() + pos + 1, leaf.values() + pos,
               (n - pos) * sizeof(uint64_t));
  leaf.keys()[pos] = key;
  leaf.values()[pos] = value;
  leaf.hdr()->count = n + 1;
  latch.WriteUnlock();
  return Status::OK();
}

// Write-latch coupling from the root; ancestors stay latched only while
// the child might split into them.
Status BTree::PessimisticInsert(uint64_t key, uint64_t value, bool upsert) {
  struct Locked {
    PageGuard guard;
    SharedPageDescriptor* desc;
  };
  std::vector<Locked> path;
  auto UnlockAll = [&path]() {
    // Release in reverse acquisition order without bumping versions of
    // nodes we did not modify — callers bump selectively.
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      it->desc->version_latch.WriteUnlockNoBump();
    }
    path.clear();
  };

  // Latch the meta page first so a root split can be installed.
  auto meta_r = bm_->FetchPage(meta_pid_, AccessIntent::kWrite);
  if (!meta_r.ok()) return Status::Busy("meta fetch");
  PageGuard meta_guard = meta_r.MoveValue();
  SharedPageDescriptor* meta_desc = meta_guard.descriptor();
  meta_desc->version_latch.WriteLock();
  bool meta_locked = true;
  auto UnlockMeta = [&](bool bump) {
    if (meta_locked) {
      if (bump) {
        meta_desc->version_latch.WriteUnlock();
      } else {
        meta_desc->version_latch.WriteUnlockNoBump();
      }
      meta_locked = false;
    }
  };

  MetaPayload mp{};
  {
    std::byte* raw = meta_guard.RawData();
    if (raw == nullptr) {
      UnlockMeta(false);
      return Status::Busy("meta frame");
    }
    std::memcpy(&mp, raw + kPageHeaderSize, sizeof(mp));
  }

  page_id_t pid = mp.root;
  for (;;) {
    auto g_r = bm_->FetchPage(pid, AccessIntent::kWrite);
    if (!g_r.ok()) {
      UnlockAll();
      UnlockMeta(false);
      return Status::Busy("fetch");
    }
    PageGuard guard = g_r.MoveValue();
    guard.descriptor()->version_latch.WriteLock();
    std::byte* raw = guard.RawData(/*for_write=*/true);
    if (raw == nullptr) {
      guard.descriptor()->version_latch.WriteUnlockNoBump();
      UnlockAll();
      UnlockMeta(false);
      return Status::Busy("frame");
    }
    NodeView node(raw);
    const bool full = node.IsLeaf() ? node.hdr()->count >= kLeafCapacity
                                    : node.hdr()->count >= kInnerCapacity;
    if (!full) {
      // This node absorbs any split from below: ancestors can go.
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        it->desc->version_latch.WriteUnlockNoBump();
      }
      path.clear();
      UnlockMeta(false);
    }
    path.push_back(Locked{std::move(guard), path.empty()
                                                ? nullptr
                                                : nullptr});  // fixed below
    path.back().desc = path.back().guard.descriptor();
    if (node.IsLeaf()) break;
    pid = node.children()[node.ChildIndex(key)];
  }

  // Insert into the leaf, splitting up the latched path as needed.
  Locked& leaf_l = path.back();
  NodeView leaf(leaf_l.guard.RawData(/*for_write=*/true));
  {
    const uint32_t n = leaf.hdr()->count;
    const uint32_t pos = leaf.LeafLowerBound(key);
    if (pos < n && leaf.keys()[pos] == key) {
      Status st = Status::OK();
      if (upsert) {
        leaf.values()[pos] = value;
      } else {
        st = Status::InvalidArgument("duplicate key");
      }
      leaf_l.desc->version_latch.WriteUnlock();
      path.pop_back();
      UnlockAll();
      UnlockMeta(false);
      return st;
    }
  }

  // Releases the modified node at the end of the path. A root that split
  // stays write-latched in old_root until root_ and the meta page name the
  // new root: released earlier, a descent that loaded the old pid could
  // validate against what is now only the left half.
  Locked old_root{};
  auto ReleaseModified = [&](bool split) {
    if (split && meta_locked && path.size() == 1) {
      old_root = std::move(path.back());
    } else {
      path.back().desc->version_latch.WriteUnlock();
    }
    path.pop_back();
  };

  // Split loop: produce (separator, new right page) bubbling upward.
  uint64_t sep = 0;
  page_id_t right_pid = kInvalidPageId;
  bool have_split = false;

  {
    NodeView cur = leaf;
    if (cur.hdr()->count >= kLeafCapacity) {
      auto right_r = bm_->NewPage(kNodePageType);
      if (!right_r.ok()) {
        UnlockAll();
        UnlockMeta(false);
        return right_r.status();
      }
      PageGuard right_guard = right_r.MoveValue();
      NodeView right(right_guard.RawData(/*for_write=*/true));
      right.InitLeaf();
      const uint32_t n = cur.hdr()->count;
      const uint32_t mid = n / 2;
      const uint32_t move = n - mid;
      std::memcpy(right.keys(), cur.keys() + mid, move * sizeof(uint64_t));
      std::memcpy(right.values(), cur.values() + mid,
                  move * sizeof(uint64_t));
      right.hdr()->count = move;
      right.hdr()->next_leaf = cur.hdr()->next_leaf;
      cur.hdr()->count = mid;
      cur.hdr()->next_leaf = right_guard.pid();
      sep = right.keys()[0];
      right_pid = right_guard.pid();
      have_split = true;
      // Insert the key into the correct half.
      NodeView target = key >= sep ? right : cur;
      const uint32_t tn = target.hdr()->count;
      const uint32_t pos = target.LeafLowerBound(key);
      std::memmove(target.keys() + pos + 1, target.keys() + pos,
                   (tn - pos) * sizeof(uint64_t));
      std::memmove(target.values() + pos + 1, target.values() + pos,
                   (tn - pos) * sizeof(uint64_t));
      target.keys()[pos] = key;
      target.values()[pos] = value;
      target.hdr()->count = tn + 1;
    } else {
      const uint32_t n = cur.hdr()->count;
      const uint32_t pos = cur.LeafLowerBound(key);
      std::memmove(cur.keys() + pos + 1, cur.keys() + pos,
                   (n - pos) * sizeof(uint64_t));
      std::memmove(cur.values() + pos + 1, cur.values() + pos,
                   (n - pos) * sizeof(uint64_t));
      cur.keys()[pos] = key;
      cur.values()[pos] = value;
      cur.hdr()->count = n + 1;
    }
  }
  ReleaseModified(have_split);

  // Propagate the separator into latched ancestors.
  while (have_split && !path.empty()) {
    Locked& parent_l = path.back();
    NodeView parent(parent_l.guard.RawData(/*for_write=*/true));
    const uint32_t n = parent.hdr()->count;
    if (n < kInnerCapacity) {
      const uint32_t idx = parent.ChildIndex(sep);
      std::memmove(parent.keys() + idx + 1, parent.keys() + idx,
                   (n - idx) * sizeof(uint64_t));
      std::memmove(parent.children() + idx + 2, parent.children() + idx + 1,
                   (n - idx) * sizeof(page_id_t));
      parent.keys()[idx] = sep;
      parent.children()[idx + 1] = right_pid;
      parent.hdr()->count = n + 1;
      have_split = false;
      parent_l.desc->version_latch.WriteUnlock();
      path.pop_back();
      break;
    }
    // Split the inner node.
    auto right_r = bm_->NewPage(kNodePageType);
    if (!right_r.ok()) {
      UnlockAll();
      UnlockMeta(false);
      return right_r.status();
    }
    PageGuard right_guard = right_r.MoveValue();
    NodeView right(right_guard.RawData(/*for_write=*/true));
    right.InitInner(parent.hdr()->level);
    const uint32_t mid = n / 2;
    const uint64_t up_key = parent.keys()[mid];
    const uint32_t move = n - mid - 1;
    std::memcpy(right.keys(), parent.keys() + mid + 1,
                move * sizeof(uint64_t));
    std::memcpy(right.children(), parent.children() + mid + 1,
                (move + 1) * sizeof(page_id_t));
    right.hdr()->count = move;
    parent.hdr()->count = mid;
    // Insert the pending separator into the proper half.
    NodeView target = sep >= up_key ? right : parent;
    const uint32_t tn = target.hdr()->count;
    const uint32_t idx = target.ChildIndex(sep);
    std::memmove(target.keys() + idx + 1, target.keys() + idx,
                 (tn - idx) * sizeof(uint64_t));
    std::memmove(target.children() + idx + 2, target.children() + idx + 1,
                 (tn - idx) * sizeof(page_id_t));
    target.keys()[idx] = sep;
    target.children()[idx + 1] = right_pid;
    target.hdr()->count = tn + 1;

    sep = up_key;
    right_pid = right_guard.pid();
    ReleaseModified(/*split=*/true);
  }

  if (have_split) {
    // The root itself split: build a new root and install it in the meta
    // page and root_ (both still latched: the meta page and the old root).
    SPITFIRE_CHECK(meta_locked && old_root.desc != nullptr);
    auto root_r = bm_->NewPage(kNodePageType);
    if (!root_r.ok()) {
      old_root.desc->version_latch.WriteUnlock();
      UnlockMeta(false);
      return root_r.status();
    }
    PageGuard new_root = root_r.MoveValue();
    NodeView root(new_root.RawData(/*for_write=*/true));
    root.InitInner(static_cast<uint16_t>(mp.height));
    root.hdr()->count = 1;
    root.keys()[0] = sep;
    root.children()[0] = mp.root;
    root.children()[1] = right_pid;
    MetaPayload nmp{new_root.pid(), mp.height + 1, kMetaMagic};
    std::byte* mraw = meta_guard.RawData(/*for_write=*/true);
    std::memcpy(mraw + kPageHeaderSize, &nmp, sizeof(nmp));
    height_.store(nmp.height, std::memory_order_relaxed);
    root_.store(new_root.pid(), std::memory_order_release);
    old_root.desc->version_latch.WriteUnlock();
    UnlockMeta(true);
  } else {
    UnlockAll();
    UnlockMeta(false);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Remove
// ---------------------------------------------------------------------------

Status BTree::Remove(uint64_t key, FetchContext* ctx) {
  for (int restart = 0; restart < 1000000; ++restart) {
    if ((restart & 63) == 63) std::this_thread::yield();
    NodeRef ref;
    const Status st =
        DescendToLeaf(key, AccessIntent::kWrite, /*pin_leaf=*/true, ctx,
                      &ref);
    if (st.IsWouldBlock()) return st;
    if (!st.ok()) continue;
    OptimisticLatch& latch = ref.desc->version_latch;
    if (!latch.UpgradeToWriteLock(ref.version)) continue;
    NodeView leaf(ref.guard.RawData(/*for_write=*/true));
    const uint32_t n = leaf.hdr()->count;
    const uint32_t pos = leaf.LeafLowerBound(key);
    if (pos >= n || leaf.keys()[pos] != key) {
      latch.WriteUnlockNoBump();
      return Status::NotFound("key");
    }
    std::memmove(leaf.keys() + pos, leaf.keys() + pos + 1,
                 (n - pos - 1) * sizeof(uint64_t));
    std::memmove(leaf.values() + pos, leaf.values() + pos + 1,
                 (n - pos - 1) * sizeof(uint64_t));
    leaf.hdr()->count = n - 1;
    latch.WriteUnlock();
    return Status::OK();
  }
  return Status::Busy("btree remove retry budget exhausted");
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

Status BTree::Scan(uint64_t lo, uint64_t hi,
                   const std::function<bool(uint64_t, uint64_t)>& fn,
                   FetchContext* ctx) const {
  page_id_t leaf_pid = kInvalidPageId;
  // Descend to the leaf containing lo.
  for (int restart = 0; restart < 1000000 && leaf_pid == kInvalidPageId;
       ++restart) {
    if ((restart & 63) == 63) std::this_thread::yield();
    NodeRef leaf;
    const Status st =
        DescendToLeaf(lo, AccessIntent::kRead, /*pin_leaf=*/false, ctx, &leaf);
    if (st.IsWouldBlock()) return st;
    if (st.ok() && leaf.Validate()) leaf_pid = leaf.pid;
  }
  if (leaf_pid == kInvalidPageId) return Status::Busy("scan descent failed");

  // Walk the leaf chain, copying each leaf's relevant entries under
  // optimistic validation before invoking the callback.
  std::vector<std::pair<uint64_t, uint64_t>> batch;
  while (leaf_pid != kInvalidPageId) {
    batch.clear();
    page_id_t next = kInvalidPageId;
    bool ok_leaf = false;
    for (int restart = 0; restart < 1000000; ++restart) {
      if ((restart & 63) == 63) std::this_thread::yield();
      auto g_r = FetchPageVia(bm_, ctx, leaf_pid, AccessIntent::kRead);
      if (!g_r.ok()) {
        // Parking mid-chain is fine: the resumed Scan re-descends and
        // re-visits earlier entries; callers collect idempotently.
        if (g_r.status().IsWouldBlock()) return g_r.status();
        continue;
      }
      PageGuard guard = g_r.MoveValue();
      const uint64_t version =
          guard.descriptor()->version_latch.ReadLockOrRestart();
      if (version == OptimisticLatch::kRetry) continue;
      std::byte* raw = guard.RawData();
      if (raw == nullptr) continue;
      NodeView leaf(raw);
      batch.clear();
      bool exhausted;
      {
        const RacyReadScope racy;
        const uint32_t n = leaf.SafeCount();
        for (uint32_t i = leaf.LeafLowerBound(lo); i < n; ++i) {
          const uint64_t k = leaf.keys()[i];
          if (k > hi) break;
          batch.emplace_back(k, leaf.values()[i]);
        }
        next = leaf.hdr()->next_leaf;
        // Stop once this leaf's key range passes hi; empty leaves
        // (possible after deletes) just continue the chain.
        exhausted = n > 0 && leaf.keys()[n - 1] > hi;
      }
      if (!guard.descriptor()->version_latch.Validate(version)) continue;
      if (exhausted) next = kInvalidPageId;
      ok_leaf = true;
      break;
    }
    if (!ok_leaf) return Status::Busy("scan leaf retry budget exhausted");
    for (const auto& [k, v] : batch) {
      if (!fn(k, v)) return Status::OK();
    }
    leaf_pid = next;
  }
  return Status::OK();
}

Result<uint64_t> BTree::Count() const {
  uint64_t n = 0;
  SPITFIRE_RETURN_NOT_OK(Scan(0, UINT64_MAX, [&n](uint64_t, uint64_t) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace spitfire
