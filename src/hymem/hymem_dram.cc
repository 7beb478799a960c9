#include "hymem/hymem_dram.h"

#include <algorithm>
#include <cstring>

#include "buffer/buffer_shard.h"
#include "hymem/mini_page.h"

namespace spitfire {

std::unique_ptr<HymemDram> HymemDram::Create(
    const BufferManagerOptions& options, Context ctx) {
  const bool queue =
      options.nvm_admission == NvmAdmissionMode::kAdmissionQueue &&
      ctx.nvm_pool != nullptr;
  const bool partial = (options.enable_fine_grained_loading ||
                        options.enable_mini_pages) &&
                       ctx.dram_pool != nullptr && ctx.nvm_pool != nullptr;
  if (!queue && !partial) return nullptr;
  return std::make_unique<HymemDram>(options, std::move(ctx));
}

HymemDram::HymemDram(const BufferManagerOptions& options, Context ctx)
    : ctx_(std::move(ctx)),
      unit_size_(options.load_granularity),
      fine_grained_(options.enable_fine_grained_loading &&
                    ctx_.dram_pool != nullptr) {
  if (fine_grained_) units_.resize(ctx_.dram_pool->num_frames());

  if (options.enable_mini_pages && ctx_.dram_pool != nullptr &&
      ctx_.nvm_pool != nullptr) {
    const size_t hosts = std::max<size_t>(1, options.dram_frames / 8);
    for (size_t i = 0; i < hosts; ++i) {
      frame_id_t f;
      if (!ctx_.dram_pool->TryAllocateFrame(&f)) break;
      mini_hosts_.push_back(f);
    }
    mini_per_frame_ = MiniPageView::PerFrame(unit_size_);
    mini_capacity_ = mini_hosts_.size() * mini_per_frame_;
    if (mini_capacity_ > 0) {
      mini_free_ = std::make_unique<MpmcQueue<frame_id_t>>(mini_capacity_);
      mini_replacer_ = Replacer::Create(ReplacerKind::kClock, mini_capacity_);
      mini_owners_ =
          std::vector<std::atomic<SharedPageDescriptor*>>(mini_capacity_);
      for (frame_id_t m = 0; m < mini_capacity_; ++m) {
        mini_owners_[m].store(nullptr, std::memory_order_relaxed);
        SPITFIRE_CHECK(mini_free_->TryPush(m));
      }
    }
  }

  if (options.nvm_admission == NvmAdmissionMode::kAdmissionQueue &&
      ctx_.nvm_pool != nullptr) {
    size_t cap = options.admission_queue_capacity;
    if (cap == 0) cap = std::max<size_t>(1, options.nvm_frames / 2);
    queue_ = std::make_unique<AdmissionQueue>(cap);
  }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

bool HymemDram::AdmitPromotion(SharedPageDescriptor* d, Status* st) {
  *st = Status::OK();
  if (mini_capacity_ > 0) {
    const frame_id_t m = AcquireMiniSlot();
    if (m != kInvalidFrameId) {
      MiniPageView(MiniPtr(m)).Format(d->pid, unit_size_);
      d->dram.frame.store(m, std::memory_order_relaxed);
      mini_owners_[m].store(d, std::memory_order_release);
      d->dram.dirty.store(false, std::memory_order_relaxed);
      d->dram.Publish(DramMode::kMini, 0);
      mini_replacer_->RecordInstall(m);
      ctx_.stats->Add(BufferCounter::kMiniPageAdmits);
      return true;
    }
  }
  if (!fine_grained_) return false;
  const frame_id_t f = ctx_.acquire_dram_frame();
  if (f == kInvalidFrameId) {
    *st = Status::Busy("no DRAM frame");
    return true;
  }
  // No bytes move yet: units are loaded on demand from the NVM copy.
  units_[f].Reset();
  ctx_.dram_pool->SetOwner(f, d, d->pid);
  d->dram.frame.store(f, std::memory_order_relaxed);
  d->dram.dirty.store(false, std::memory_order_relaxed);
  d->dram.Publish(DramMode::kCacheLineGrained, 0);
  ctx_.dram_pool->ReplacerRecordInstall(f);
  return true;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void HymemDram::EnsureUnitsResident(SharedPageDescriptor* d, size_t offset,
                                    size_t size) {
  const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
  CacheLineState& cl = units_[f];
  const uint64_t nvm_off = NvmOffset(d);
  std::byte* dram_ptr = ctx_.dram_pool->FramePtr(f);
  const size_t last = (offset + std::max<size_t>(size, 1) - 1) / unit_size_;
  for (size_t u = offset / unit_size_; u <= last; ++u) {
    if (cl.resident.Test(u)) continue;
    (void)ctx_.nvm->ReadFineGrained(nvm_off + u * unit_size_,
                                    dram_ptr + u * unit_size_, unit_size_);
    cl.resident.Set(u);
    ctx_.stats->Add(BufferCounter::kFineGrainedLoads);
  }
}

Status HymemDram::Access(SharedPageDescriptor* d, size_t offset, size_t size,
                         std::byte* dst, const std::byte* src) {
  const size_t end = offset + size;
  size_t pos = offset;
  // Dirty before the first unit is: an overflow that fails mid-write must
  // not leave dirty units behind a clean `dram.dirty`.
  if (src != nullptr) d->dram.dirty.store(true, std::memory_order_release);
  const DramMode mode = d->dram.Mode();
  if (mode == DramMode::kMini) {
    MiniPageView mp(MiniPtr(d->dram.frame.load(std::memory_order_relaxed)));
    while (pos < end) {
      const uint16_t unit = static_cast<uint16_t>(pos / unit_size_);
      int slot = mp.FindSlot(unit);
      if (slot < 0) {
        slot = mp.Insert(unit);
        if (slot < 0) {
          // Overflow: promote to a full frame and finish the access there.
          SPITFIRE_RETURN_NOT_OK(PromoteMiniToFull(d));
          break;
        }
        (void)ctx_.nvm->ReadFineGrained(
            NvmOffset(d) + static_cast<uint64_t>(unit) * unit_size_,
            mp.UnitPtr(slot), unit_size_);
        ctx_.stats->Add(BufferCounter::kFineGrainedLoads);
      }
      const size_t in_off = pos - static_cast<size_t>(unit) * unit_size_;
      const size_t n = std::min(end - pos, unit_size_ - in_off);
      std::byte* bytes = mp.UnitPtr(static_cast<size_t>(slot)) + in_off;
      if (src != nullptr) {
        std::memcpy(bytes, src + (pos - offset), n);
        mp.MarkDirty(static_cast<size_t>(slot));
      } else {
        std::memcpy(dst + (pos - offset), bytes, n);
      }
      pos += n;
    }
    if (pos == end) return Status::OK();
  } else if (mode == DramMode::kCacheLineGrained) {
    // Writes that do not cover whole units need the surrounding bytes
    // resident first.
    EnsureUnitsResident(d, offset, size);
    if (src != nullptr) {
      CacheLineState& cl =
          units_[d->dram.frame.load(std::memory_order_relaxed)];
      const size_t last = (std::max(end, offset + 1) - 1) / unit_size_;
      for (size_t u = offset / unit_size_; u <= last; ++u) cl.dirty.Set(u);
    }
  }

  // [pos, end) is resident in a full frame.
  const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
  std::byte* bytes = ctx_.dram_pool->FramePtr(f) + pos;
  const uint64_t dev_off = ctx_.dram_pool->FrameOffset(f) + pos;
  if (src != nullptr) {
    std::memcpy(bytes, src + (pos - offset), end - pos);
    ctx_.dram_backing->OnDirectWrite(dev_off, end - pos);
  } else {
    std::memcpy(dst + (pos - offset), bytes, end - pos);
    ctx_.dram_backing->OnDirectRead(dev_off, end - pos);
  }
  return Status::OK();
}

bool HymemDram::Materialize(SharedPageDescriptor* d) {
  const DramMode mode = d->dram.Mode();
  if (mode == DramMode::kMini) return PromoteMiniToFull(d).ok();
  if (mode == DramMode::kCacheLineGrained) {
    EnsureUnitsResident(d, 0, kPageSize);
    d->dram.SwitchMode(DramMode::kFull);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Write-back
// ---------------------------------------------------------------------------

template <typename Fn>
void HymemDram::DrainDirtyUnits(SharedPageDescriptor* d, DramMode mode,
                                Fn&& fn) {
  const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
  if (mode == DramMode::kMini) {
    MiniPageView mp(MiniPtr(f));
    for (size_t s = 0; s < mp.count(); ++s) {
      if (!mp.IsDirty(s)) continue;
      fn(static_cast<size_t>(mp.meta()->slots[s]) * unit_size_,
         mp.UnitPtr(s));
    }
    mp.meta()->dirty_mask = 0;
    return;
  }
  CacheLineState& cl = units_[f];
  const std::byte* frame = ctx_.dram_pool->FramePtr(f);
  for (size_t u = 0; u < kPageSize / unit_size_; ++u) {
    if (cl.dirty.Test(u)) fn(u * unit_size_, frame + u * unit_size_);
  }
  cl.dirty.Reset();
}

bool HymemDram::WriteBack(SharedPageDescriptor* d, DramMode mode) {
  if (mode == DramMode::kFull) return false;
  const uint64_t nvm_off = NvmOffset(d);
  bool any = false;
  DrainDirtyUnits(d, mode, [&](size_t page_off, const std::byte* bytes) {
    (void)ctx_.nvm->Write(nvm_off + page_off, bytes, unit_size_);
    any = true;
  });
  if (any) d->nvm.dirty.store(true, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// Mini pages
// ---------------------------------------------------------------------------

std::byte* HymemDram::MiniPtr(frame_id_t slot) {
  return ctx_.dram_pool->FramePtr(mini_hosts_[slot / mini_per_frame_]) +
         (slot % mini_per_frame_) * MiniPageView::BytesRequired(unit_size_);
}

frame_id_t HymemDram::AcquireMiniSlot() {
  for (int attempt = 0; attempt < 16; ++attempt) {
    frame_id_t m;
    if (mini_free_->TryPop(&m)) return m;
    mini_replacer_->PickVictim(
        [this](frame_id_t v) { return TryEvictMini(v); });
  }
  return kInvalidFrameId;
}

void HymemDram::FreeMiniSlot(frame_id_t slot) {
  mini_owners_[slot].store(nullptr, std::memory_order_release);
  while (!mini_free_->TryPush(slot)) __builtin_ia32_pause();
}

bool HymemDram::TryEvictMini(frame_id_t slot) {
  SharedPageDescriptor* d = mini_owners_[slot].load(std::memory_order_acquire);
  if (d == nullptr) return false;
  if (!d->dram_latch.TryLock()) return false;
  if (d->dram.Mode() != DramMode::kMini ||
      d->dram.frame.load(std::memory_order_relaxed) != slot) {
    d->dram_latch.Unlock();
    return false;
  }
  // Mini-page dirt is written under the dram latch, so this read is
  // authoritative. Dirty units make the NVM copy stale: retire the NVM
  // word BEFORE the DRAM word (see BufferShard::TryEvictDramFrame) so no
  // reader can fall through to the stale NVM bytes mid-write-back.
  const bool dirty = MiniPageView(MiniPtr(slot)).AnyDirty();
  if (dirty) {
    if (!d->nvm_latch.TryLock()) {
      d->dram_latch.Unlock();
      return false;
    }
    if (!d->nvm.TryRetire()) {
      d->nvm_latch.Unlock();
      d->dram_latch.Unlock();
      return false;
    }
  }
  if (!d->dram.TryRetire()) {  // pinned or raced
    if (dirty) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
    }
    d->dram_latch.Unlock();
    return false;
  }
  if (dirty) {
    WriteBack(d, DramMode::kMini);
    d->nvm.Publish(DramMode::kFull, 0);
    d->nvm_latch.Unlock();
  }
  d->dram.frame.store(kInvalidFrameId, std::memory_order_relaxed);
  d->dram.dirty.store(false, std::memory_order_relaxed);
  FreeMiniSlot(slot);
  d->dram_latch.Unlock();
  ctx_.stats->Add(BufferCounter::kDramEvictions);
  return true;
}

Status HymemDram::PromoteMiniToFull(SharedPageDescriptor* d) {
  // The caller (and possibly other guard holders) keep pins on the DRAM
  // copy throughout — SwitchMode preserves them.
  const frame_id_t slot = d->dram.frame.load(std::memory_order_relaxed);
  const frame_id_t f = ctx_.acquire_dram_frame();
  if (f == kInvalidFrameId) return Status::OutOfMemory("no frame for overflow");
  std::byte* dst = ctx_.dram_pool->FramePtr(f);
  const Status read_st = ctx_.nvm->Read(NvmOffset(d), dst, kPageSize);
  if (!read_st.ok()) {
    ctx_.dram_pool->FreeFrame(f);
    return read_st;
  }
  // Units dirtied in the mini page are newer than the NVM copy (and
  // `dram.dirty` already says so).
  DrainDirtyUnits(d, DramMode::kMini,
                  [&](size_t page_off, const std::byte* bytes) {
                    std::memcpy(dst + page_off, bytes, unit_size_);
                  });
  ctx_.dram_pool->SetOwner(f, d, d->pid);
  d->dram.frame.store(f, std::memory_order_relaxed);
  d->dram.SwitchMode(DramMode::kFull);
  ctx_.dram_pool->ReplacerRecordInstall(f);
  FreeMiniSlot(slot);
  ctx_.stats->Add(BufferCounter::kMiniPagePromotions);
  return Status::OK();
}

}  // namespace spitfire
