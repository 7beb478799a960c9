#ifndef SPITFIRE_BUFFER_DESCRIPTOR_TABLE_H_
#define SPITFIRE_BUFFER_DESCRIPTOR_TABLE_H_

#include <atomic>
#include <memory>

#include "buffer/page_descriptor.h"
#include "common/macros.h"

namespace spitfire {

// The pid → shared-page-descriptor mapping table (Figure 4), direct-indexed.
// The paper uses a TBB concurrent hash map; here page ids are dense (the
// facade allocates them from one counter and the SSD bounds them) and a
// descriptor is never freed while the buffer manager lives, so the map is
// a grow-only two-level array of atomic pointers that owns its
// descriptors:
//
//   directory[pid >> kChunkBits] → chunk[pid & kChunkMask] → descriptor
//
// The directory is sized once for `max_pages` (SSD capacity / kPageSize);
// chunks are allocated on first use. A lookup is two dependent acquire
// loads and takes no latch. Creation CAS-installs the chunk, then the
// slot; a loser deletes its copy and adopts the winner's, so exactly one
// descriptor ever exists per pid.
class DescriptorTable {
 public:
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint64_t kChunkSize = uint64_t{1} << kChunkBits;

  explicit DescriptorTable(uint64_t max_pages)
      : max_pages_(max_pages),
        num_chunks_((max_pages + kChunkSize - 1) >> kChunkBits),
        dir_(std::make_unique<std::atomic<Chunk*>[]>(num_chunks_)) {}

  ~DescriptorTable() {
    for (uint64_t c = 0; c < num_chunks_; ++c) {
      Chunk* chunk = dir_[c].load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      for (auto& slot : chunk->slots) {
        delete slot.load(std::memory_order_relaxed);
      }
      delete chunk;
    }
  }
  SPITFIRE_DISALLOW_COPY_AND_MOVE(DescriptorTable);

  uint64_t max_pages() const { return max_pages_; }

  // The descriptor for `pid`, or null if it was never created or `pid` is
  // out of range.
  SharedPageDescriptor* Find(page_id_t pid) const {
    if (pid >= max_pages_) return nullptr;
    const Chunk* chunk =
        dir_[pid >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return chunk->slots[pid & kChunkMask].load(std::memory_order_acquire);
  }

  // The descriptor for `pid`, created on first use; null only when `pid`
  // is out of range.
  SharedPageDescriptor* GetOrCreate(page_id_t pid) {
    if (SharedPageDescriptor* d = Find(pid)) return d;
    if (pid >= max_pages_) return nullptr;
    std::atomic<Chunk*>& cslot = dir_[pid >> kChunkBits];
    Chunk* chunk = cslot.load(std::memory_order_acquire);
    if (chunk == nullptr) chunk = Install(cslot, std::make_unique<Chunk>());
    return Install(chunk->slots[pid & kChunkMask],
                   std::make_unique<SharedPageDescriptor>(pid));
  }

  // Applies fn(descriptor) to every created descriptor in pid order. Takes
  // no latch: descriptors created concurrently may or may not be visited.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t c = 0; c < num_chunks_; ++c) {
      const Chunk* chunk = dir_[c].load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      for (const auto& slot : chunk->slots) {
        SharedPageDescriptor* d = slot.load(std::memory_order_acquire);
        if (d != nullptr) fn(d);
      }
    }
  }

 private:
  static constexpr uint64_t kChunkMask = kChunkSize - 1;

  // CAS-installs `fresh` into `slot` if it is still empty; returns the
  // pointer that won (`fresh` is deleted if it lost).
  template <typename T>
  static T* Install(std::atomic<T*>& slot, std::unique_ptr<T> fresh) {
    T* cur = nullptr;
    if (slot.compare_exchange_strong(cur, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh.release();
    }
    return cur;
  }

  struct Chunk {
    std::atomic<SharedPageDescriptor*> slots[kChunkSize] = {};
  };

  const uint64_t max_pages_;
  const uint64_t num_chunks_;
  const std::unique_ptr<std::atomic<Chunk*>[]> dir_;
};

}  // namespace spitfire

#endif  // SPITFIRE_BUFFER_DESCRIPTOR_TABLE_H_
