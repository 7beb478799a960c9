#ifndef SPITFIRE_HYMEM_HYMEM_DRAM_H_
#define SPITFIRE_HYMEM_HYMEM_DRAM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_descriptor.h"
#include "buffer/stats.h"
#include "container/mpmc_queue.h"
#include "hymem/admission_queue.h"
#include "hymem/cacheline_page.h"
#include "storage/nvm_device.h"

namespace spitfire {

struct BufferManagerOptions;

// HyMem's buffer mechanisms (the Figure 11/12 and Section 6.5 baselines),
// kept out of BufferShard's core path:
//  - partial DRAM copies of a page promoted from NVM. A kCacheLineGrained
//    copy (Figure 2a) owns a DRAM frame but loads it one unit at a time;
//    its resident/dirty unit masks live in a side table indexed by DRAM
//    frame id. A kMini copy (Figure 2b) holds at most sixteen units in a
//    slot of a region carved out of DRAM frames, and keeps its slot id in
//    `dram.frame`. Either reads missing units from the NVM copy, which
//    must stay resident for as long as the partial copy exists;
//  - the NVM admission queue, which admits a page evicted from DRAM on its
//    second consideration (clean pages included).
//
// A BufferShard builds one only when a HyMem option is set. Every
// partial-copy call runs under the page's DRAM latch. A partial copy's
// dirty units are written under that latch together with `dram.dirty`, so
// `dram.dirty` is set whenever any unit is dirty and the shard's dirty
// checks cover every representation.
class HymemDram {
 public:
  struct Context {
    BufferPool* dram_pool = nullptr;
    BufferPool* nvm_pool = nullptr;
    NvmDevice* nvm = nullptr;
    Device* dram_backing = nullptr;
    BufferStats* stats = nullptr;
    // The shard's DRAM frame acquisition (evicts as needed).
    std::function<frame_id_t()> acquire_dram_frame;
  };

  // Null unless `options` turn on fine-grained loading, mini pages or the
  // admission queue (and the tiers they need exist).
  static std::unique_ptr<HymemDram> Create(const BufferManagerOptions& options,
                                           Context ctx);
  HymemDram(const BufferManagerOptions& options, Context ctx);
  SPITFIRE_DISALLOW_COPY_AND_MOVE(HymemDram);

  // Admits an NVM → DRAM promotion as a partial copy: a mini page when a
  // slot is free, else (with fine-grained loading) a frame with no unit
  // loaded yet. Caller holds both tier latches and has retired the NVM
  // word. Returns false when the promotion should make a full copy;
  // otherwise *st is OK (partial copy published) or Busy (no DRAM frame).
  bool AdmitPromotion(SharedPageDescriptor* d, Status* st);

  // Whether the DRAM copy is partial (it then pins the NVM copy).
  static bool HasPartialCopy(const SharedPageDescriptor* d) {
    const DramMode m = d->dram.Mode();
    return m == DramMode::kCacheLineGrained || m == DramMode::kMini;
  }

  // Copies bytes [offset, offset + size) of a pinned DRAM copy into `dst`,
  // or from `src` into the copy when `src` is non-null, loading missing
  // units from NVM. A mini page that overflows is promoted to a full frame
  // on the way; a copy that is (or became) full is accessed directly.
  // Caller holds the DRAM latch.
  Status Access(SharedPageDescriptor* d, size_t offset, size_t size,
                std::byte* dst, const std::byte* src);

  // Turns a pinned partial copy into a full frame (no-op for a full one).
  // Caller holds the DRAM latch. False if no frame could be found.
  bool Materialize(SharedPageDescriptor* d);

  // Writes the dirty units of a partial copy into its NVM frame and clears
  // them; `mode` is the DRAM mode sampled before the caller retired the
  // DRAM word (the NVM word is retired too). Returns false, writing
  // nothing, for a full copy. Eviction and flush share this call.
  bool WriteBack(SharedPageDescriptor* d, DramMode mode);

  // The replacer touch of a DRAM hit on a kMini copy; `slot` is its
  // (possibly stale) `dram.frame`.
  void RecordMiniAccess(frame_id_t slot) {
    if (slot < mini_capacity_) mini_replacer_->RecordAccess(slot);
  }

  // Whether the admission queue, not the probability Nw, decides which
  // pages evicted from DRAM enter NVM; AdmitToNvm makes that decision.
  bool queues_admissions() const { return queue_ != nullptr; }
  bool AdmitToNvm(page_id_t pid) { return queue_->ShouldAdmit(pid); }

 private:
  uint64_t NvmOffset(const SharedPageDescriptor* d) {
    return ctx_.nvm_pool->FrameOffset(
        d->nvm.frame.load(std::memory_order_relaxed));
  }
  std::byte* MiniPtr(frame_id_t slot);
  frame_id_t AcquireMiniSlot();
  void FreeMiniSlot(frame_id_t slot);
  bool TryEvictMini(frame_id_t slot);
  // Moves a kMini copy into a full DRAM frame, overlaying its dirty units
  // on the NVM bytes. Caller holds the DRAM latch and keeps its pin.
  Status PromoteMiniToFull(SharedPageDescriptor* d);
  // Loads the not-yet-resident units of a kCacheLineGrained copy that
  // cover [offset, offset + size).
  void EnsureUnitsResident(SharedPageDescriptor* d, size_t offset,
                           size_t size);
  // Calls fn(page offset, unit bytes) for every dirty unit of a partial
  // copy, then marks the units clean.
  template <typename Fn>
  void DrainDirtyUnits(SharedPageDescriptor* d, DramMode mode, Fn&& fn);

  Context ctx_;
  const uint32_t unit_size_;

  // Cache-line-grained copies: unit masks by DRAM frame id (empty unless
  // fine-grained loading is on). Reset when a frame is admitted.
  const bool fine_grained_;
  std::vector<CacheLineState> units_;

  // Mini pages: slots carved out of `mini_hosts_` (DRAM frames taken off
  // the free list for good), recycled under their own CLOCK.
  size_t mini_per_frame_ = 0;
  size_t mini_capacity_ = 0;
  std::vector<frame_id_t> mini_hosts_;
  std::unique_ptr<MpmcQueue<frame_id_t>> mini_free_;
  std::unique_ptr<Replacer> mini_replacer_;
  std::vector<std::atomic<SharedPageDescriptor*>> mini_owners_;

  std::unique_ptr<AdmissionQueue> queue_;
};

}  // namespace spitfire

#endif  // SPITFIRE_HYMEM_HYMEM_DRAM_H_
