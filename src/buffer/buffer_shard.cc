#include "buffer/buffer_shard.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/timer.h"
#include "hymem/hymem_dram.h"
#include "storage/dram_device.h"

namespace spitfire {

namespace {
// How long a promotion waits to retire the NVM copy (drain optimistic
// pins, Section 5.2) before giving up and serving the access from NVM.
constexpr int kPinDrainSpins = 4096;

// Async miss path budgets. A submission spins kSubmitHitAttempts on
// transient pin races before reporting Busy; a queued ticket survives
// kTicketMaxAttempts completion-time re-dispatches (this also bounds the
// recursion depth when the simulated device completes reads inline); the
// blocking FetchPage shim resubmits a Busy ticket kFetchBusyRounds times
// under exponential backoff between kBackoffMinNanos and kBackoffMaxNanos.
constexpr int kSubmitHitAttempts = 256;
constexpr int kTicketMaxAttempts = 48;
constexpr int kFetchBusyRounds = 64;
constexpr uint64_t kBackoffMinNanos = 1'000;
constexpr uint64_t kBackoffMaxNanos = 512'000;
// Below this a backoff spins (sleeping costs more than it yields);
// above it the thread sleeps so evictors and completions get the core.
constexpr uint64_t kBackoffSpinCapNanos = 8'192;
}  // namespace

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

Status PageGuard::ReadAt(size_t offset, size_t size, void* dst) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardRead(desc_, tier_, offset, size, dst);
}

Status PageGuard::WriteAt(size_t offset, size_t size, const void* src) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardWrite(desc_, tier_, offset, size, src);
}

std::byte* PageGuard::RawData(bool for_write) {
  SPITFIRE_DCHECK(valid());
  return bm_->GuardRawData(desc_, tier_, for_write);
}

void PageGuard::MarkDirty() {
  SPITFIRE_DCHECK(valid());
  if (tier_ == Tier::kDram) {
    desc_->dram.dirty.store(true, std::memory_order_release);
  } else {
    desc_->nvm.dirty.store(true, std::memory_order_release);
  }
}

void PageGuard::Release() {
  if (desc_ != nullptr) {
    bm_->Unpin(desc_, tier_);
    desc_ = nullptr;
    bm_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BufferShard::BufferShard(const BufferManagerOptions& options,
                         const BufferShardContext& ctx)
    : options_(options),
      shard_index_(ctx.shard_index),
      num_shards_(ctx.num_shards),
      ssd_(ctx.ssd),
      nvm_(ctx.nvm),
      dram_backing_(ctx.dram_backing),
      descriptors_(ctx.ssd->capacity() / kPageSize),
      next_page_id_(ctx.next_page_id),
      io_(ctx.io) {
  SPITFIRE_CHECK(ssd_ != nullptr);
  SPITFIRE_CHECK(ctx.io != nullptr);
  SPITFIRE_CHECK(next_page_id_ != nullptr);
  SPITFIRE_CHECK(options_.replacer_sample_rate >= 1);
  SetPolicy(options_.policy);

  if (options_.nvm_frames > 0) {
    SPITFIRE_CHECK(nvm_ != nullptr);
    nvm_pool_ = std::make_unique<BufferPool>(
        BufferPoolConfig{Tier::kNvm, nvm_, options_.nvm_frames,
                         /*persistent_frame_table=*/true,
                         options_.nvm_replacer,
                         ctx.nvm_total_frames, ctx.nvm_frame_base});
  }

  if (options_.dram_frames > 0) {
    SPITFIRE_CHECK(dram_backing_ != nullptr);
    dram_pool_ = std::make_unique<BufferPool>(
        BufferPoolConfig{Tier::kDram, dram_backing_, options_.dram_frames,
                         /*persistent_frame_table=*/false,
                         options_.dram_replacer,
                         ctx.dram_total_frames, ctx.dram_frame_base});
  }
  SPITFIRE_CHECK(dram_pool_ != nullptr || nvm_pool_ != nullptr);
  hymem_ = HymemDram::Create(
      options_, {dram_pool_.get(), nvm_pool_.get(), nvm_, dram_backing_,
                 &stats_, [this] { return AcquireDramFrame(); }});

  // Per-shard admission control: each shard bounds its own in-flight
  // misses so one shard's miss storm cannot starve the others' install
  // capacity. Two ceilings apply: half the shard's own frame budget
  // (misses beyond that would thrash the pools on install), and this
  // shard's slice of the device's total queue slots with 2x
  // oversubscription (misses beyond the device depth only sit in the
  // scheduler's software queues adding latency, not throughput; the 2x
  // headroom keeps the hardware queues refillable the moment slots free).
  {
    const uint32_t frame_cap = std::max<uint32_t>(
        8,
        static_cast<uint32_t>(options_.dram_frames + options_.nvm_frames) / 2);
    const uint32_t device_slots = ssd_->profile().queues.TotalDepth();
    const uint32_t qd_cap = std::max<uint32_t>(
        8, 2 * device_slots / std::max<uint32_t>(1, num_shards_));
    miss_admission_cap_ = std::min(frame_cap, qd_cap);
  }

  if (options_.enable_background_writer) {
    size_t wm = options_.bg_writer_low_watermark;
    if (wm == 0) {
      size_t smallest = SIZE_MAX;
      if (dram_pool_ != nullptr) smallest = dram_pool_->num_frames();
      if (nvm_pool_ != nullptr) {
        smallest = std::min(smallest, nvm_pool_->num_frames());
      }
      wm = std::max<size_t>(1, smallest / 8);
    }
    bg_writer_ = std::make_unique<BackgroundWriter>(
        this, wm, options_.bg_writer_interval_us);
  }
}

void BufferShard::PrepareShutdown() {
  // Stop the writer before the pools it sweeps are torn down. The flag
  // makes completions fired during the subsequent I/O-scheduler drain fail
  // their tickets with Busy instead of installing pages and handing out
  // guards that would outlive the descriptors they pin. The scheduler
  // itself is shared across shards and shut down by the owning
  // BufferManager after every shard has run this.
  shutting_down_.store(true, std::memory_order_release);
  if (bg_writer_ != nullptr) bg_writer_->Stop();
}

BufferShard::~BufferShard() { PrepareShutdown(); }

// ---------------------------------------------------------------------------
// Pinning (the latch-free hit path)
// ---------------------------------------------------------------------------

bool BufferShard::ShouldSampleAccess() {
  const uint32_t k = options_.replacer_sample_rate;
  if (k <= 1) return true;
  thread_local uint32_t tick = 0;
  return (++tick % k) == 0;
}

bool BufferShard::TryPinDram(SharedPageDescriptor* d) {
  const DramMode m = d->dram.TryPin();
  if (m == DramMode::kNone) return false;
  // Sampled CLOCK accounting: the reference bitmap is shared, so touching
  // it on every hit restores the very contention the latch-free pin
  // removed. Misses are recorded exactly at install time.
  if (ShouldSampleAccess()) {
    stats_.Add(BufferCounter::kReplacerSampled);
    // A mini page's frame field is its slot; it may be stale if a
    // concurrent overflow promoted the page to a full frame, and a stray
    // reference bit on a freed slot is benign.
    const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
    if (m == DramMode::kMini) {
      hymem_->RecordMiniAccess(f);
    } else {
      dram_pool_->ReplacerRecordAccess(f);
    }
  }
  // No counter on the suppressed branch: an extra per-hit atomic here costs
  // ~10% of pure hit throughput. Snapshot() derives suppressed counts as
  // hits - sampled.
  return true;
}

bool BufferShard::TryPinNvm(SharedPageDescriptor* d) {
  if (d->nvm.TryPin() == DramMode::kNone) return false;
  if (ShouldSampleAccess()) {
    stats_.Add(BufferCounter::kReplacerSampled);
    nvm_pool_->ReplacerRecordAccess(
        d->nvm.frame.load(std::memory_order_relaxed));
  }
  return true;
}

bool BufferShard::ReadOptimistic(page_id_t pid, AccessIntent intent,
                                 OptimisticRead* out) {
  if (dram_pool_ == nullptr) return false;
  SharedPageDescriptor* d = descriptors_.Find(pid);
  if (d == nullptr) return false;
  const uint64_t w = d->dram.word.load(std::memory_order_acquire);
  if (TierState::ModeOf(w) != DramMode::kFull) return false;
  // An evictor that retired the copy after our sample stores
  // kInvalidFrameId here; the epoch check would reject the read, but only
  // after the pool had been indexed with it.
  const frame_id_t f = d->dram.frame.load(std::memory_order_acquire);
  if (f >= dram_pool_->num_frames()) return false;
  // The same bookkeeping as a pinned DRAM hit (SubmitFetch, TryPinDram).
  if (intent == AccessIntent::kWrite) {
    stats_.Add(BufferCounter::kWriteFetches);
  }
  NoteChainAccess(pid);
  stats_.Add(BufferCounter::kDramHits);
  if (ShouldSampleAccess()) {
    // If the copy was just evicted this marks the frame's next owner; as
    // with a stale mini-page slot in TryPinDram, a stray reference is
    // benign.
    stats_.Add(BufferCounter::kReplacerSampled);
    dram_pool_->ReplacerRecordAccess(f);
  }
  out->desc = d;
  out->data = dram_pool_->FramePtr(f);
  out->word = w;
  return true;
}

void BufferShard::Unpin(SharedPageDescriptor* d, Tier tier) {
  if (tier == Tier::kDram) {
    d->dram.Unpin();
  } else {
    d->nvm.Unpin();
  }
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

int BufferShard::TryHitOnce(SharedPageDescriptor* d, AccessIntent intent,
                              const MigrationPolicy& pol, Tier* tier) {
  // 1. DRAM hit: one CAS on the packed state word, no latch.
  if (TryPinDram(d)) {
    stats_.Add(BufferCounter::kDramHits);
    *tier = Tier::kDram;
    return 1;
  }

  // 2. NVM hit: possibly migrate up (Dr / Dw), else serve in place.
  if (d->NvmResident()) {
    const bool promote =
        dram_pool_ != nullptr &&
        (intent == AccessIntent::kRead ? pol.MigrateNvmToDramOnRead()
                                       : pol.UseDramOnWrite());
    if (promote) {
      const Status st = PromoteToDram(d);
      if (st.ok()) return -1;  // retry: should pin DRAM now
      // Busy: fall through and serve from NVM.
    }
    if (TryPinNvm(d)) {
      if (d->DramResident()) {
        // A promotion slipped in between the DRAM miss above and this
        // pin. Once a DRAM copy exists it is authoritative — every
        // other thread pins it first and writes land there — so serving
        // (or writing) the NVM copy now would act on stale bytes.
        // Promotion cannot exclude us either: it only drains NVM pins
        // that exist while it runs. Drop the pin and retry; the pin CAS
        // (acquire) pairs with the promoter's release publishes, so
        // this residency re-read is reliable.
        Unpin(d, Tier::kNvm);
        return -1;
      }
      stats_.Add(BufferCounter::kNvmHits);
      *tier = Tier::kNvm;
      return 1;
    }
    return -1;  // raced with an NVM eviction
  }
  return 0;
}

SharedPageDescriptor* BufferShard::ResolveFetch(page_id_t pid, Status* st) {
  if (pid >= next_page_id_->load(std::memory_order_relaxed)) {
    *st = Status::InvalidArgument("fetch of unallocated page");
    return nullptr;
  }
  SharedPageDescriptor* d = descriptors_.GetOrCreate(pid);
  if (d == nullptr) *st = Status::InvalidArgument("page past SSD capacity");
  return d;
}

void BufferShard::NoteChainAccess(page_id_t pid) {
  if (pid >= ra_live_lo_.load(std::memory_order_relaxed) &&
      pid < ra_next_pid_.load(std::memory_order_relaxed)) {
    ra_consumed_.store(true, std::memory_order_relaxed);
  }
}

Result<PageGuard> BufferShard::FetchPage(page_id_t pid,
                                           AccessIntent intent) {
  Status resolve;
  SharedPageDescriptor* d = ResolveFetch(pid, &resolve);
  if (d == nullptr) return resolve;

  // Blocking shim over the submission/completion split: submit a ticket,
  // drive completions until it fires, retry transient failures with a
  // bounded exponential backoff (the old code retried with a bare pause,
  // which under pool exhaustion just hammered the evictors it was
  // waiting on). The descriptor is resolved once, above; each round does
  // SubmitFetch's per-submission bookkeeping and submits on it directly.
  FetchTicket t;
  t.pid = pid;
  t.intent = intent;
  uint64_t backoff_ns = kBackoffMinNanos;
  for (int round = 0; round < kFetchBusyRounds; ++round) {
    if (intent == AccessIntent::kWrite) {
      stats_.Add(BufferCounter::kWriteFetches);
    }
    NoteChainAccess(pid);
    const FetchSubmit s = SubmitFetchOnDescriptor(d, intent, &t);
    if (s == FetchSubmit::kQueuedLeader) {
      // Blocking fidelity: the leader pays its miss latency on this core,
      // pumping completions (its own included) while it waits.
      while (!t.ready.load(std::memory_order_acquire)) {
        if (!io_->PumpCompletions(/*may_sleep=*/false)) {
          __builtin_ia32_pause();
        }
      }
    } else if (s == FetchSubmit::kQueuedJoined) {
      // A joiner's latency is covered by the leader's spin (or by the
      // async ring, or the completion worker); don't burn the core next to
      // it. Sleep on the scheduler's completion broadcast — epoch-checked,
      // so a completion firing between the ready check and the wait
      // returns immediately.
      while (!t.ready.load(std::memory_order_acquire)) {
        const uint64_t epoch = io_->completion_epoch();
        if (t.ready.load(std::memory_order_acquire)) break;
        io_->WaitForCompletion(epoch, 100'000);
      }
    }
    if (t.status.ok()) return std::move(t.guard);
    if (!t.status.IsBusy()) return t.status;
    if (backoff_ns <= kBackoffSpinCapNanos) {
      SpinWaitNanos(backoff_ns);
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
    }
    backoff_ns = std::min(backoff_ns * 2, kBackoffMaxNanos);
    t.Reset();
  }
  return Status::Busy("FetchPage exceeded retry budget");
}

BufferShard::FrameCensus BufferShard::DebugDramCensus() const {
  FrameCensus c;
  if (dram_pool_ == nullptr) return c;
  for (frame_id_t f = 0; f < dram_pool_->num_frames(); ++f) {
    SharedPageDescriptor* d = dram_pool_->Owner(f);
    if (d == nullptr) {
      ++c.free;
      continue;
    }
    if (d->dram.frame.load(std::memory_order_relaxed) != f ||
        !d->dram.Resident()) {
      ++c.detached;
      continue;
    }
    const uint32_t pins = d->dram.Pins();
    c.total_pins += pins;
    if (pins > 0) {
      ++c.pinned;
    } else {
      ++c.evictable;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Asynchronous miss path: submission half
// ---------------------------------------------------------------------------

void BufferShard::FinishTicket(FetchTicket* t, Status st) {
  t->status = std::move(st);
  t->ready.store(true, std::memory_order_release);
}

bool BufferShard::PumpIo(bool may_sleep) {
  return io_->PumpCompletions(may_sleep);
}

FetchSubmit BufferShard::SubmitFetch(page_id_t pid, AccessIntent intent,
                                       FetchTicket* t) {
  t->pid = pid;
  t->intent = intent;
  // Write-intent share of the fetch stream; the online tuner reads this
  // (with the hit/migration counters) as its workload-mix signature.
  if (intent == AccessIntent::kWrite) {
    stats_.Add(BufferCounter::kWriteFetches);
  }
  Status resolve;
  SharedPageDescriptor* d = ResolveFetch(pid, &resolve);
  if (d == nullptr) {
    FinishTicket(t, std::move(resolve));
    return FetchSubmit::kCompleted;
  }
  NoteChainAccess(pid);
  return SubmitFetchOnDescriptor(d, intent, t);
}

FetchSubmit BufferShard::SubmitFetchOnDescriptor(SharedPageDescriptor* d,
                                                   AccessIntent intent,
                                                   FetchTicket* t) {
  const MigrationPolicy pol = policy();
  for (int attempt = 0; attempt < kSubmitHitAttempts; ++attempt) {
    Tier tier;
    const int h = TryHitOnce(d, intent, pol, &tier);
    if (h > 0) {
      // Capture before firing: the owner may destroy the ticket the
      // moment ready reads true. A re-dispatched ticket (attempts > 0)
      // may have a sleeping owner, so wake the completion waiters.
      const bool redispatched = t->attempts > 0;
      t->guard = PageGuard(this, d, tier);
      FinishTicket(t, Status::OK());
      if (redispatched) io_->SignalCompletions();
      return FetchSubmit::kCompleted;
    }
    if (h < 0) {
      __builtin_ia32_pause();
      continue;
    }

    // Clean miss: join the in-flight fetch or become its leader. io_latch
    // is taken alone here — never a tier latch inside it — so it can nest
    // inside the tier latches on the completion side.
    d->io_latch.Lock();
    if (d->io_state == IoState::kIoInflight) {
      t->next = d->io_waiters;
      d->io_waiters = t;
      d->io_latch.Unlock();
      // Misses that piggyback on an in-flight read (a demand miss's or a
      // read-ahead window's) are the dedup wins; the scheduler's stat
      // keeps "N threads, one device read" observable next to read_ops.
      io_->stats().reads_deduped.fetch_add(1, std::memory_order_relaxed);
      stats_.Add(BufferCounter::kMissJoins);
      return FetchSubmit::kQueuedJoined;
    }
    if (d->DramResident() || d->NvmResident()) {
      // Residency appeared between the pin probe and the latch; loop and
      // pin it.
      d->io_latch.Unlock();
      continue;
    }
    // Admission control: refuse to lead a new miss once half the pool's
    // worth of pages is already in flight — the install would find no
    // frame and the re-dispatch re-reads would crowd the device queues.
    // Fail fast with Busy so the submitter backs off or works elsewhere.
    if (inflight_misses_.fetch_add(1, std::memory_order_acq_rel) >=
        miss_admission_cap_) {
      inflight_misses_.fetch_sub(1, std::memory_order_acq_rel);
      d->io_latch.Unlock();
      const bool redispatched = t->attempts > 0;
      FinishTicket(t, Status::Busy("miss admission: buffer saturated"));
      if (redispatched) io_->SignalCompletions();
      return FetchSubmit::kCompleted;
    }
    d->io_state = IoState::kIoInflight;
    t->next = nullptr;
    d->io_waiters = t;
    d->io_latch.Unlock();
    stats_.Add(BufferCounter::kMissSubmits);
    LeadMiss(d);
    return FetchSubmit::kQueuedLeader;
  }
  {
    const bool redispatched = t->attempts > 0;
    FinishTicket(t, Status::Busy("fetch submission starved by races"));
    if (redispatched) io_->SignalCompletions();
  }
  return FetchSubmit::kCompleted;
}

void BufferShard::LeadMiss(SharedPageDescriptor* d) {
  // A read-ahead window started by this miss reads the page in its one
  // coalesced device op; otherwise the page gets a single-page read.
  if (MaybeScheduleReadAhead(d)) return;
  io_->SubmitRead(SsdOffset(d->pid), 1,
                  [this, d](const Status& st, const std::byte* data,
                            const uint64_t* seqs) {
                    // Releases the admission slot taken when the
                    // descriptor entered kIoInflight.
                    inflight_misses_.fetch_sub(1, std::memory_order_acq_rel);
                    CompleteMiss(d, st, data, seqs[0]);
                  });
}

// ---------------------------------------------------------------------------
// Asynchronous miss path: completion half
// ---------------------------------------------------------------------------

FetchTicket* BufferShard::DetachWaiters(SharedPageDescriptor* d) {
  d->io_latch.Lock();
  FetchTicket* w = d->io_waiters;
  d->io_waiters = nullptr;
  d->io_state = IoState::kIdle;
  d->io_latch.Unlock();
  return w;
}

void BufferShard::CompleteMiss(SharedPageDescriptor* d, Status st,
                                 const std::byte* data, uint64_t seq) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    // Tear-down drain: the scheduler fires leftover reads early. Fail
    // every waiter without installing — tickets stay guard-free, so they
    // can safely outlive the buffer manager.
    for (FetchTicket* w = DetachWaiters(d); w != nullptr;) {
      FetchTicket* next = w->next;
      w->next = nullptr;
      FinishTicket(w, Status::Busy("buffer manager shutting down"));
      w = next;
    }
    return;
  }
  FetchTicket* waiters = nullptr;
  bool installed = false;
  if (st.ok()) {
    SpinLatchGuard gd(d->dram_latch);
    SpinLatchGuard gn(d->nvm_latch);
    PageGuard first;
    if (d->DramResident() || d->NvmResident()) {
      st = Status::Busy("page appeared while installing");
    } else if (io_->WriteSeq(SsdOffset(d->pid)) != seq) {
      // A write-back landed while the read was in flight; the
      // re-dispatch below is served from the scheduler's staged image.
      st = Status::Busy("page written during miss read");
    } else {
      Result<PageGuard> r = InstallPinned(d, data);
      if (r.ok()) {
        first = r.MoveValue();
        installed = true;
      } else {
        st = r.status();
      }
    }

    if (installed) {
      // Detach the waiter list and clear the in-flight mark. io_latch
      // nests inside the tier latches only here (submitters take it
      // alone), so install → detach → pin is one atomic step with respect
      // to evictors: nothing can retire the fresh copy before every
      // waiter holds a pin.
      waiters = DetachWaiters(d);
      const Tier tier = first.tier();
      for (FetchTicket* t = waiters; t != nullptr; t = t->next) {
        if (first.valid()) {
          t->guard = std::move(first);  // the install's own pin
        } else {
          // Cannot fail: the copy was published above and both tier
          // latches are held, so no evictor can retire it.
          const DramMode m =
              tier == Tier::kDram ? d->dram.TryPin() : d->nvm.TryPin();
          SPITFIRE_DCHECK(m != DramMode::kNone);
          (void)m;
          t->guard = PageGuard(this, d, tier);
          // Each completed waiter is one fetch served from SSD —
          // TotalFetches counts exactly one counter per success.
          stats_.Add(BufferCounter::kSsdFetches);
        }
        t->status = Status::OK();
      }
      // With no waiters (all were re-dispatched away earlier) `first`
      // drops its pin on scope exit and the page simply stays resident.
    }
  }  // tier latches released

  if (installed) {
    // Fire outside the latches. Read `next` before the release store:
    // the owner may destroy (or Reset and relink) the ticket the moment
    // it observes ready == true.
    bool woke_joiner = false;
    for (FetchTicket* t = waiters; t != nullptr;) {
      FetchTicket* next = t->next;
      t->next = nullptr;
      t->ready.store(true, std::memory_order_release);
      woke_joiner = true;
      t = next;
    }
    // Wake sleeping owners promptly, also for tickets completed outside a
    // scheduler callback (re-dispatch).
    if (woke_joiner) io_->SignalCompletions();
    return;
  }

  // Failure. Hard errors complete every waiter; Busy re-dispatches them
  // (the page may have appeared, be staged in the scheduler, or need a
  // fresh read) under a per-ticket attempt budget that also bounds the
  // recursion when the simulated device completes re-reads inline.
  // Resubmission runs outside all latches for the same reason.
  bool finished_any = false;
  for (FetchTicket* t = DetachWaiters(d); t != nullptr;) {
    FetchTicket* next = t->next;
    t->next = nullptr;
    if (!st.IsBusy()) {
      FinishTicket(t, st);
      finished_any = true;
    } else if (++t->attempts >= kTicketMaxAttempts) {
      FinishTicket(t, Status::Busy("fetch re-dispatch budget exhausted"));
      finished_any = true;
    } else {
      (void)SubmitFetchOnDescriptor(d, t->intent, t);
    }
    t = next;
  }
  if (finished_any) io_->SignalCompletions();
}

Result<PageGuard> BufferShard::NewPageWithId(page_id_t pid,
                                             uint32_t page_type) {
  SPITFIRE_DCHECK(ShardOfPage(pid, num_shards_) == shard_index_);
  SharedPageDescriptor* d = descriptors_.GetOrCreate(pid);
  if (d == nullptr) return Status::OutOfMemory("SSD device full");
  SpinLatchGuard gd(d->dram_latch);
  SpinLatchGuard gn(d->nvm_latch);
  if (dram_pool_ != nullptr) {
    const frame_id_t f = AcquireDramFrame();
    if (f != kInvalidFrameId) {
      PageView(dram_pool_->FramePtr(f)).Format(pid, page_type);
      PublishFull(d, Tier::kDram, f, /*dirty=*/true, /*pins=*/1);
      return PageGuard(this, d, Tier::kDram);
    }
  }
  if (nvm_pool_ != nullptr) {
    const frame_id_t f = AcquireNvmFrame();
    if (f != kInvalidFrameId) {
      PageView(nvm_pool_->FramePtr(f)).Format(pid, page_type);
      nvm_->OnDirectWrite(nvm_pool_->FrameOffset(f), kPageSize,
                          /*sequential=*/true);
      PublishFull(d, Tier::kNvm, f, /*dirty=*/true, /*pins=*/1);
      return PageGuard(this, d, Tier::kNvm);
    }
  }
  return Status::OutOfMemory("no frame available for new page");
}

Result<PageGuard> BufferShard::InstallPinned(SharedPageDescriptor* d,
                                               const std::byte* src) {
  const bool have_dram = dram_pool_ != nullptr;
  const bool have_nvm = nvm_pool_ != nullptr;

  // Where does the page land? Bypassing NVM on the read path happens with
  // probability 1 - Nr (Section 3.3); without a DRAM tier everything goes
  // to NVM and vice versa. An NVM landing falls back to DRAM when no NVM
  // frame is free.
  const bool to_nvm =
      !have_dram || (have_nvm && policy().InstallSsdToNvmOnRead());

  const auto install_nvm = [&](frame_id_t nf) {
    std::memcpy(nvm_pool_->FramePtr(nf), src, kPageSize);
    nvm_->OnDirectWrite(nvm_pool_->FrameOffset(nf), kPageSize,
                        /*sequential=*/true);
    PublishFull(d, Tier::kNvm, nf, /*dirty=*/false, /*pins=*/1);
    stats_.Add(BufferCounter::kSsdFetches);
    stats_.Add(BufferCounter::kNvmInstalls);
    return PageGuard(this, d, Tier::kNvm);
  };

  if (to_nvm) {
    const frame_id_t f = AcquireNvmFrame();
    if (f != kInvalidFrameId) return install_nvm(f);
    if (!have_dram) return Status::Busy("NVM pool exhausted; retry");
  }

  const frame_id_t f = AcquireDramFrame();
  if (f == kInvalidFrameId) {
    // Transient exhaustion (every frame pinned or latched). If NVM has
    // room, land the page there instead; otherwise let the caller retry.
    if (have_nvm) {
      const frame_id_t nf = AcquireNvmFrame();
      if (nf != kInvalidFrameId) return install_nvm(nf);
    }
    return Status::Busy("DRAM pool exhausted; retry");
  }
  std::memcpy(dram_pool_->FramePtr(f), src, kPageSize);
  dram_backing_->OnDirectWrite(dram_pool_->FrameOffset(f), kPageSize,
                               /*sequential=*/true);
  PublishFull(d, Tier::kDram, f, /*dirty=*/false, /*pins=*/1);
  stats_.Add(BufferCounter::kSsdFetches);
  return PageGuard(this, d, Tier::kDram);
}

void BufferShard::PublishFull(SharedPageDescriptor* d, Tier tier,
                              frame_id_t f, bool dirty, uint32_t pins) {
  BufferPool* pool = tier == Tier::kDram ? dram_pool_.get() : nvm_pool_.get();
  TierState& state = tier == Tier::kDram ? d->dram : d->nvm;
  pool->SetOwner(f, d, d->pid);
  state.frame.store(f, std::memory_order_relaxed);
  state.dirty.store(dirty, std::memory_order_relaxed);
  state.Publish(DramMode::kFull, pins);
  pool->ReplacerRecordInstall(f);
}

// ---------------------------------------------------------------------------
// Read-ahead
// ---------------------------------------------------------------------------

bool BufferShard::MaybeScheduleReadAhead(SharedPageDescriptor* lead) {
  if (options_.io_scheduler.read_ahead_pages == 0) return false;
  const page_id_t pid = lead->pid;
  const page_id_t prev = last_miss_pid_.exchange(pid);
  bool trigger = false;
  if (pid == ra_next_pid_.load(std::memory_order_relaxed)) {
    // The scan consumed the previous window and ran off its end: chain the
    // next window without rebuilding a two-miss run.
    trigger = true;
  } else if (prev != kInvalidPageId && pid == prev + 1) {
    trigger = seq_miss_run_.fetch_add(1) + 1 >= 2;
  } else {
    seq_miss_run_.store(1, std::memory_order_relaxed);
  }
  if (!trigger) return false;
  if (read_ahead_inflight_.exchange(true)) return false;  // one in flight
  // The window INCLUDES the missing page, so the whole window is one
  // coalesced device op with no separate front-page read.
  return StartWindow(pid, lead);
}

bool BufferShard::StartWindow(page_id_t start, SharedPageDescriptor* lead) {
  const size_t ra = options_.io_scheduler.read_ahead_pages;
  const page_id_t horizon = std::min<page_id_t>(
      next_page_id_->load(std::memory_order_relaxed),
      descriptors_.max_pages());
  // Skip pages that are already resident (e.g. whole windows surviving
  // from the scan's previous pass over the database): the front HITS
  // straight through a resident window, so a window placed there would
  // be read for nothing while the front runs ahead on single-page reads.
  // At a miss-triggered call the first page just missed, so this loop
  // exits immediately; it only walks (bounded) on a chained call.
  size_t trim_budget = 4 * ra;
  while (start < horizon && OwnsPage(start)) {
    SharedPageDescriptor* d = descriptors_.GetOrCreate(start);
    if (!d->DramResident() && !d->NvmResident()) break;
    ++start;
    if (--trim_budget == 0) break;
  }
  size_t n = start < horizon && trim_budget > 0 && OwnsPage(start)
                 ? std::min<size_t>(ra, horizon - start)
                 : 0;
  // Clamp the window to this shard's contiguous run of pages: routing is
  // block-granular (kShardBlockBits), so a window crossing the block edge
  // would install foreign pages into this shard's slice and duplicate a
  // copy the owning shard knows nothing about. The front's next miss past
  // the edge triggers the owning shard's own run detector.
  size_t owned_run = 0;
  while (owned_run < n && OwnsPage(start + owned_run)) ++owned_run;
  n = owned_run;
  if (n == 0) {
    read_ahead_inflight_.store(false);
    return false;
  }
  // A miss exactly at the window's end chains the next window without
  // rebuilding a two-miss run (see MaybeScheduleReadAhead); any access
  // inside [previous window, window end) marks the chain as consumed (see
  // NoteChainAccess). The lower bound trails by one window because the
  // front may still be consuming the window behind this one when the next
  // chain decision is made.
  ra_live_lo_.store(start >= ra ? start - ra : 0, std::memory_order_relaxed);
  ra_next_pid_.store(start + n, std::memory_order_relaxed);

  // Mark every idle, non-resident page kIoInflight: from here on a miss on
  // a window page parks on its descriptor instead of leading its own read.
  // Pages already resident or being read stay with their owner.
  ReadAheadWindow w;
  w.start = start;
  w.end = start + n;
  size_t first = n, last = 0;
  std::vector<SharedPageDescriptor*> marked(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    SharedPageDescriptor* d = descriptors_.GetOrCreate(start + i);
    if (d == lead) {
      w.lead = lead;  // already kIoInflight on this miss's behalf
    } else {
      d->io_latch.Lock();
      const bool idle = d->io_state == IoState::kIdle && !d->DramResident() &&
                        !d->NvmResident();
      if (idle) d->io_state = IoState::kIoInflight;
      d->io_latch.Unlock();
      if (!idle) continue;
    }
    marked[i] = d;
    first = std::min(first, i);
    last = i;
  }
  if (first == n) {
    read_ahead_inflight_.store(false);
    return false;
  }

  // One device op over the marked span; unmarked pages inside it cost
  // only their share of the coalesced transfer.
  w.pages.assign(marked.begin() + first, marked.begin() + last + 1);
  const bool took_lead = w.lead != nullptr;
  const uint64_t offset = SsdOffset(start + first);
  const size_t span = w.pages.size();
  io_->SubmitRead(offset, span,
                  [this, w = std::move(w)](const Status& st,
                                           const std::byte* data,
                                           const uint64_t* seqs) {
                    CompleteWindow(w, st, data, seqs);
                  });
  return took_lead;
}

void BufferShard::CompleteWindow(const ReadAheadWindow& w, const Status& st,
                                 const std::byte* data,
                                 const uint64_t* seqs) {
  if (w.lead != nullptr) {
    inflight_misses_.fetch_sub(1, std::memory_order_acq_rel);
  }
  const size_t n = w.pages.size();
  // Which pages have parked misses, sampled before anything is handed
  // over. Misses other than the lead's are a scan front consuming the
  // window.
  std::vector<char> waited(n, 0);
  size_t joined = 0;
  for (size_t i = 0; i < n; ++i) {
    SharedPageDescriptor* d = w.pages[i];
    if (d == nullptr) continue;
    d->io_latch.Lock();
    waited[i] = d->io_waiters != nullptr;
    d->io_latch.Unlock();
    if (waited[i] && d != w.lead) ++joined;
  }

  // Chain decision, before any waiter wakes, so the next window is in
  // flight before the front reaches it. Joiners (or a hit inside the live
  // range) mean a scan front is consuming this window. The front must
  // also be AT this window (last miss within one window of it): if the
  // front has run past on single reads, chaining would start a stale
  // chase — windows forever behind the front, each evicting the frames
  // the front just filled. No signal = nobody follows: release the gate
  // and let the run detector start a fresh chain.
  const bool consumed = ra_consumed_.exchange(false, std::memory_order_relaxed);
  const page_id_t lm = last_miss_pid_.load(std::memory_order_relaxed);
  const size_t ra = options_.io_scheduler.read_ahead_pages;
  const bool near =
      lm != kInvalidPageId && lm + ra >= w.start && lm < w.end + ra;
  if ((joined > 0 || consumed) && near &&
      !shutting_down_.load(std::memory_order_acquire)) {
    (void)StartWindow(w.end, nullptr);
  } else {
    read_ahead_inflight_.store(false);
  }

  // Install every page nobody waits on first, then hand over the waited
  // pages: a woken front then runs through resident pages instead of
  // parking again on each page still being installed.
  for (size_t i = 0; i < n; ++i) {
    SharedPageDescriptor* d = w.pages[i];
    if (d == nullptr || waited[i]) continue;
    if (st.ok() && !shutting_down_.load(std::memory_order_acquire)) {
      InstallPrefetched(d, data + i * kPageSize, seqs[i]);
    }
    // Settle the page; a miss that parked after the sample re-dispatches
    // and hits the fresh copy (or leads its own read).
    CompleteMiss(d, Status::Busy("read-ahead page settled"), nullptr, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    if (waited[i]) CompleteMiss(w.pages[i], st, data + i * kPageSize, seqs[i]);
  }
}

void BufferShard::InstallPrefetched(SharedPageDescriptor* d,
                                    const std::byte* src, uint64_t seq) {
  // Never contend with foreground work: TryLock only on the target, and at
  // most one (try-lock-based) eviction round per pool when no frame is
  // free — without it read-ahead would go dead the moment the pool warms
  // up, which is exactly when a scan needs it.
  if (!d->dram_latch.TryLock()) return;
  if (!d->nvm_latch.TryLock()) {
    d->dram_latch.Unlock();
    return;
  }
  [&] {
    if (d->DramResident() || d->NvmResident()) return;
    if (io_->WriteSeq(SsdOffset(d->pid)) != seq) return;
    const MigrationPolicy pol = policy();
    const bool have_dram = dram_pool_ != nullptr;
    const bool have_nvm = nvm_pool_ != nullptr;
    const bool to_nvm = have_nvm && (!have_dram || pol.InstallSsdToNvmOnRead());
    if (to_nvm) {
      frame_id_t f;
      if (!nvm_pool_->TryAllocateFrame(&f)) {
        (void)EvictOneNvmFrame();
        if (!nvm_pool_->TryAllocateFrame(&f)) return;
      }
      std::memcpy(nvm_pool_->FramePtr(f), src, kPageSize);
      nvm_->OnDirectWrite(nvm_pool_->FrameOffset(f), kPageSize,
                          /*sequential=*/true);
      PublishFull(d, Tier::kNvm, f, /*dirty=*/false, /*pins=*/0);
    } else {
      if (dram_pool_ == nullptr) return;
      frame_id_t f;
      if (!dram_pool_->TryAllocateFrame(&f)) {
        (void)EvictOneDramFrame();
        if (!dram_pool_->TryAllocateFrame(&f)) return;
      }
      std::memcpy(dram_pool_->FramePtr(f), src, kPageSize);
      dram_backing_->OnDirectWrite(dram_pool_->FrameOffset(f), kPageSize,
                                   /*sequential=*/true);
      PublishFull(d, Tier::kDram, f, /*dirty=*/false, /*pins=*/0);
    }
    stats_.Add(BufferCounter::kReadAheadInstalls);
  }();
  d->nvm_latch.Unlock();
  d->dram_latch.Unlock();
}

// ---------------------------------------------------------------------------
// Promotion (NVM → DRAM, data flow path 7)
// ---------------------------------------------------------------------------

Status BufferShard::PromoteToDram(SharedPageDescriptor* d) {
  SPITFIRE_DCHECK(dram_pool_ != nullptr);
  SpinLatchGuard gd(d->dram_latch);
  if (d->DramResident()) return Status::OK();
  SpinLatchGuard gn(d->nvm_latch);
  const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
  if (!d->NvmResident() || nf == kInvalidFrameId) {
    return Status::Busy("NVM copy gone");
  }

  // Take the NVM copy private: retiring the state word drains in-flight
  // optimistic pins and blocks new ones, so the DRAM copy includes every
  // modification made in place on NVM (Section 5.2). Fetchers that miss
  // during the copy block on the latches we hold, then retry. Every exit
  // below must re-publish the NVM copy.
  int spins = 0;
  while (!d->nvm.TryRetire()) {
    if (++spins > kPinDrainSpins) {
      return Status::Busy("NVM readers did not drain");
    }
    __builtin_ia32_pause();
  }

  // HyMem may admit the promotion as a partial copy instead.
  Status st;
  if (hymem_ == nullptr || !hymem_->AdmitPromotion(d, &st)) {
    const frame_id_t f = AcquireDramFrame();
    if (f == kInvalidFrameId) {
      st = Status::Busy("no DRAM frame");
    } else {
      st = nvm_->Read(nvm_pool_->FrameOffset(nf), dram_pool_->FramePtr(f),
                      kPageSize);
      if (st.ok()) {
        dram_backing_->OnDirectWrite(dram_pool_->FrameOffset(f), kPageSize,
                                     /*sequential=*/true);
        PublishFull(d, Tier::kDram, f, /*dirty=*/false, /*pins=*/0);
      } else {
        dram_pool_->FreeFrame(f);
      }
    }
  }
  d->nvm.Publish(DramMode::kFull, 0);
  if (st.ok()) stats_.Add(BufferCounter::kPromotions);
  return st;
}

// ---------------------------------------------------------------------------
// Frame acquisition & eviction
// ---------------------------------------------------------------------------

frame_id_t BufferShard::AcquireDramFrame() {
  for (int attempt = 0; attempt < 64; ++attempt) {
    frame_id_t f;
    if (dram_pool_->TryAllocateFrame(&f)) return f;
    if (attempt == 0 && bg_writer_ != nullptr) bg_writer_->Nudge();
    dram_pool_->ReplacerPickVictim(
        [this](frame_id_t v) { return TryEvictDramFrame(v); });
  }
  return kInvalidFrameId;
}

frame_id_t BufferShard::AcquireNvmFrame() {
  for (int attempt = 0; attempt < 64; ++attempt) {
    frame_id_t f;
    if (nvm_pool_->TryAllocateFrame(&f)) return f;
    if (attempt == 0 && bg_writer_ != nullptr) bg_writer_->Nudge();
    nvm_pool_->ReplacerPickVictim(
        [this](frame_id_t v) { return TryEvictNvmFrame(v); });
  }
  return kInvalidFrameId;
}

frame_id_t BufferShard::EvictOneDramFrame() {
  return dram_pool_->ReplacerPickVictim(
      [this](frame_id_t v) { return TryEvictDramFrame(v); },
      /*max_rounds=*/1);
}

frame_id_t BufferShard::EvictOneNvmFrame() {
  return nvm_pool_->ReplacerPickVictim(
      [this](frame_id_t v) { return TryEvictNvmFrame(v); },
      /*max_rounds=*/1);
}

bool BufferShard::DecideNvmAdmission(page_id_t pid) {
  if (hymem_ != nullptr && hymem_->queues_admissions()) {
    return hymem_->AdmitToNvm(pid);
  }
  return policy().AdmitToNvmOnDramEviction();
}

// Eviction protocol: retire the state word FIRST (fails if any pin exists
// or races in), which makes the evictor the exclusive owner of the frame
// contents; only then write back / free. A failure after the retire must
// re-publish the copy before unlocking.
//
// Retire ORDER matters. When the DRAM copy is dirty, any NVM copy is stale
// until the write-back completes. If the DRAM word were retired first, a
// reader whose optimistic DRAM pin lands in the retire window falls
// through to TryPinNvm and reads pre-write-back bytes — a lost update from
// the reader's point of view. So dirty paths retire the NVM word BEFORE
// the DRAM word; with both retired (and both latches held, which blocks
// CompleteMiss's install), readers can only spin in FetchPage until the
// write-back finishes and the copies are republished.
bool BufferShard::TryEvictDramFrame(frame_id_t f) {
  SharedPageDescriptor* d = dram_pool_->Owner(f);
  if (d == nullptr) return false;
  if (!d->dram_latch.TryLock()) return false;
  // Under the latch, owning frame f means d's DRAM copy lives in it (a
  // full copy, or HyMem's cache-line-grained one).
  if (d->dram.frame.load(std::memory_order_relaxed) != f ||
      dram_pool_->Owner(f) != d) {
    d->dram_latch.Unlock();
    return false;
  }
  const DramMode mode = d->dram.Mode();

  // Dirty hint, read before the retires to pick the retire order. The hint
  // can miss a writer that set dirty but has not yet unpinned; the
  // authoritative re-read after the DRAM retire catches that case.
  const bool dirty_hint = d->dram.dirty.load(std::memory_order_relaxed);
  // HyMem's admission queue considers EVERY page evicted from DRAM, not
  // just dirty ones (Section 1): a clean page admitted on its second
  // consideration is copied into NVM so future reads skip the SSD. The
  // probabilistic (Spitfire) mode discards clean pages (Section 3.3).
  const bool queue = hymem_ != nullptr && hymem_->queues_admissions();

  bool nvm_locked = false;
  bool nvm_retired = false;
  if (nvm_pool_ != nullptr && (dirty_hint || queue)) {
    if (!d->nvm_latch.TryLock()) {
      d->dram_latch.Unlock();
      return false;
    }
    nvm_locked = true;
    if (dirty_hint && d->nvm.Resident()) {
      if (!d->nvm.TryRetire()) {
        d->nvm_latch.Unlock();
        d->dram_latch.Unlock();
        return false;
      }
      nvm_retired = true;
    }
  }
  const auto abort_evict = [&](bool republish_dram) {
    if (republish_dram) d->dram.Publish(mode, 0);
    if (nvm_retired) d->nvm.Publish(DramMode::kFull, 0);
    if (nvm_locked) d->nvm_latch.Unlock();
    d->dram_latch.Unlock();
  };

  if (!d->dram.TryRetire()) {  // pinned or raced
    abort_evict(false);
    return false;
  }

  // Authoritative dirty read: the successful retire synchronized with every
  // unpin, so any writer's dirty store is visible now.
  const bool dirty = d->dram.dirty.load(std::memory_order_relaxed);
  if (dirty && !dirty_hint) {
    // Raced with a writer after the hint was read; the NVM word was not
    // retired first, so the write-back cannot proceed safely this round.
    abort_evict(true);
    return false;
  }

  // A dirty page updates its NVM copy in place (a partial copy writes back
  // just its dirty units; its NVM copy is always resident). Otherwise it
  // may be admitted into NVM — the nvm latch is held only for a dirty page
  // or under the admission queue — and a dirty page not admitted bypasses
  // NVM down to SSD (Section 3.4).
  std::byte* dram_ptr = dram_pool_->FramePtr(f);
  bool to_ssd = dirty;
  if (nvm_retired) {
    if (hymem_ == nullptr || !hymem_->WriteBack(d, mode)) {
      const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
      SPITFIRE_DCHECK(nf != kInvalidFrameId);
      (void)nvm_->Write(nvm_pool_->FrameOffset(nf), dram_ptr, kPageSize);
      d->nvm.dirty.store(true, std::memory_order_relaxed);
    }
    d->nvm.Publish(DramMode::kFull, 0);
    nvm_retired = false;
    stats_.Add(BufferCounter::kDemotionsToNvm);
    to_ssd = false;
  } else if (nvm_locked && !d->NvmResident() && DecideNvmAdmission(d->pid)) {
    const frame_id_t nf = AcquireNvmFrame();
    if (nf != kInvalidFrameId) {
      (void)nvm_->Write(nvm_pool_->FrameOffset(nf), dram_ptr, kPageSize);
      PublishFull(d, Tier::kNvm, nf, dirty, /*pins=*/0);
      stats_.Add(BufferCounter::kDemotionsToNvm);
      to_ssd = false;
    }
  }
  if (to_ssd) {
    if (!d->ssd_latch.TryLock()) {
      abort_evict(true);
      return false;
    }
    const Status st = WriteToSsd(d->pid, dram_ptr);
    d->ssd_latch.Unlock();
    if (!st.ok()) {
      abort_evict(true);
      return false;
    }
    stats_.Add(BufferCounter::kDemotionsToSsd);
  }
  d->dram.frame.store(kInvalidFrameId, std::memory_order_relaxed);
  d->dram.dirty.store(false, std::memory_order_relaxed);
  dram_pool_->FreeFrame(f);
  if (nvm_locked) d->nvm_latch.Unlock();
  d->dram_latch.Unlock();
  stats_.Add(BufferCounter::kDramEvictions);
  return true;
}

bool BufferShard::TryEvictNvmFrame(frame_id_t f) {
  SharedPageDescriptor* d = nvm_pool_->Owner(f);
  if (d == nullptr) return false;
  if (!d->nvm_latch.TryLock()) return false;
  if (d->nvm.frame.load(std::memory_order_relaxed) != f ||
      nvm_pool_->Owner(f) != d) {
    d->nvm_latch.Unlock();
    return false;
  }
  // A partial DRAM copy (HyMem) loads its units from this NVM frame; it
  // pins the NVM copy implicitly. (No partial copy can appear while we
  // hold the nvm latch — promotion takes it.)
  if (hymem_ != nullptr && HymemDram::HasPartialCopy(d)) {
    d->nvm_latch.Unlock();
    return false;
  }
  if (!d->nvm.TryRetire()) {  // pinned or raced
    d->nvm_latch.Unlock();
    return false;
  }
  if (d->nvm.dirty.load(std::memory_order_relaxed)) {
    if (!d->ssd_latch.TryLock()) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
      return false;
    }
    std::byte* ptr = nvm_pool_->FramePtr(f);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(f), kPageSize,
                       /*sequential=*/true);
    const Status st = WriteToSsd(d->pid, ptr);
    d->ssd_latch.Unlock();
    if (!st.ok()) {
      d->nvm.Publish(DramMode::kFull, 0);
      d->nvm_latch.Unlock();
      return false;
    }
    d->nvm.dirty.store(false, std::memory_order_relaxed);
  }
  d->nvm.frame.store(kInvalidFrameId, std::memory_order_relaxed);
  nvm_pool_->FreeFrame(f);
  d->nvm_latch.Unlock();
  stats_.Add(BufferCounter::kNvmEvictions);
  return true;
}

// ---------------------------------------------------------------------------
// Guard data plane
// ---------------------------------------------------------------------------

Status BufferShard::GuardRead(SharedPageDescriptor* d, Tier tier,
                              size_t offset, size_t size, void* dst) {
  if (offset + size > kPageSize) {
    return Status::InvalidArgument("page access out of range");
  }
  if (tier == Tier::kNvm) {
    const frame_id_t f = d->nvm.frame.load(std::memory_order_acquire);
    SPITFIRE_DCHECK(f != kInvalidFrameId);
    std::memcpy(dst, nvm_pool_->FramePtr(f) + offset, size);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(f) + offset, size);
    return Status::OK();
  }
  if (d->dram.Mode() != DramMode::kFull) {
    SpinLatchGuard g(d->dram_latch);
    return hymem_->Access(d, offset, size, static_cast<std::byte*>(dst),
                          /*src=*/nullptr);
  }
  const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
  std::memcpy(dst, dram_pool_->FramePtr(f) + offset, size);
  dram_backing_->OnDirectRead(dram_pool_->FrameOffset(f) + offset, size);
  return Status::OK();
}

Status BufferShard::GuardWrite(SharedPageDescriptor* d, Tier tier,
                               size_t offset, size_t size, const void* src) {
  if (offset + size > kPageSize) {
    return Status::InvalidArgument("page access out of range");
  }
  if (tier == Tier::kNvm) {
    const frame_id_t f = d->nvm.frame.load(std::memory_order_acquire);
    SPITFIRE_DCHECK(f != kInvalidFrameId);
    std::memcpy(nvm_pool_->FramePtr(f) + offset, src, size);
    nvm_->OnDirectWrite(nvm_pool_->FrameOffset(f) + offset, size);
    d->nvm.dirty.store(true, std::memory_order_release);
    return Status::OK();
  }
  if (d->dram.Mode() != DramMode::kFull) {
    SpinLatchGuard g(d->dram_latch);
    return hymem_->Access(d, offset, size, /*dst=*/nullptr,
                          static_cast<const std::byte*>(src));
  }
  const frame_id_t f = d->dram.frame.load(std::memory_order_relaxed);
  std::memcpy(dram_pool_->FramePtr(f) + offset, src, size);
  dram_backing_->OnDirectWrite(dram_pool_->FrameOffset(f) + offset, size);
  d->dram.dirty.store(true, std::memory_order_release);
  return Status::OK();
}

std::byte* BufferShard::GuardRawData(SharedPageDescriptor* d, Tier tier,
                                     bool for_write) {
  if (tier == Tier::kNvm) {
    const frame_id_t f = d->nvm.frame.load(std::memory_order_acquire);
    SPITFIRE_DCHECK(f != kInvalidFrameId);
    if (for_write) d->nvm.dirty.store(true, std::memory_order_release);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(f), 256);
    return nvm_pool_->FramePtr(f);
  }
  if (d->dram.Mode() != DramMode::kFull) {
    // Materialize a partial copy so callers can treat the page as one
    // contiguous 16 KB buffer.
    SpinLatchGuard g(d->dram_latch);
    if (!hymem_->Materialize(d)) return nullptr;
  }
  if (for_write) d->dram.dirty.store(true, std::memory_order_release);
  return dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Flushing, recovery, introspection
// ---------------------------------------------------------------------------

Status BufferShard::WriteToSsd(page_id_t pid, const std::byte* data) {
  // Every page image headed to SSD passes through here — the one place a
  // whole-page checksum can be stamped so recovery can detect torn or
  // short page writes. Stamp a private copy: the source frame may be
  // concurrently repinned the moment the write is staged.
  thread_local std::unique_ptr<std::byte[]> stamp_buf;
  if (stamp_buf == nullptr) stamp_buf = std::make_unique<std::byte[]>(kPageSize);
  std::memcpy(stamp_buf.get(), data, kPageSize);
  StampPageChecksum(stamp_buf.get());
  // Asynchronous staged write: the scheduler copies the image, so the
  // buffer may be reused the moment this returns.
  return io_->WritePage(SsdOffset(pid), stamp_buf.get());
}

Status BufferShard::DrainIo() { return io_->Drain(); }

Status BufferShard::FlushPage(page_id_t pid) {
  SharedPageDescriptor* d = descriptors_.Find(pid);
  const Status st =
      d != nullptr ? FlushPageImpl(d, /*include_nvm=*/true) : Status::OK();
  const Status drained = DrainIo();
  SPITFIRE_RETURN_NOT_OK(st);
  return drained;
}

Status BufferShard::FlushPageImpl(SharedPageDescriptor* d, bool include_nvm,
                                  size_t* skipped) {
  const page_id_t pid = d->pid;
  SpinLatchGuard gd(d->dram_latch);
  SpinLatchGuard gn(d->nvm_latch);
  SpinLatchGuard gs(d->ssd_latch);

  // Guard holders may be mutating page contents; flushing a pinned page
  // could persist a torn image. Each copy is retired for the duration of
  // its copy-out, so optimistic pins cannot land mid-flush; copies that
  // cannot be retired (pinned) are skipped — the WAL keeps them
  // recoverable and a later flush round catches them.
  //
  // The dirty read is latch-authoritative for a partial copy (its dirt is
  // written under the dram latch); for a full one a just-unpinned
  // writer's store may be missed, which only postpones that page to a
  // later round.
  if (d->DramResident() && d->dram.dirty.load(std::memory_order_relaxed)) {
    const DramMode mode = d->dram.Mode();
    // Dirty DRAM state makes any NVM copy stale, so the NVM word must be
    // retired BEFORE the DRAM word: a reader that loses its optimistic
    // DRAM pin mid-flush would otherwise fall through to TryPinNvm and
    // read pre-flush bytes (see TryEvictDramFrame).
    const bool nvm_resident = d->NvmResident();
    if (nvm_resident && !d->nvm.TryRetire()) {
      if (skipped != nullptr) ++*skipped;
      return Status::OK();  // NVM copy actively referenced; later round
    }
    if (!d->dram.TryRetire()) {  // actively referenced
      if (nvm_resident) d->nvm.Publish(DramMode::kFull, 0);
      if (skipped != nullptr) ++*skipped;
      return Status::OK();
    }
    Status st = Status::OK();
    // A partial copy's dirty units go to its NVM copy (persistent; the
    // NVM half below takes them on to SSD). A full copy goes to SSD, and
    // the NVM copy (if any) is overwritten with the freshest data so later
    // direct NVM reads never observe stale bytes.
    if (hymem_ == nullptr || !hymem_->WriteBack(d, mode)) {
      std::byte* ptr =
          dram_pool_->FramePtr(d->dram.frame.load(std::memory_order_relaxed));
      st = WriteToSsd(pid, ptr);
      if (st.ok() && nvm_resident) {
        const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
        (void)nvm_->Write(nvm_pool_->FrameOffset(nf), ptr, kPageSize);
        d->nvm.dirty.store(false, std::memory_order_relaxed);
      }
    }
    if (st.ok()) d->dram.dirty.store(false, std::memory_order_relaxed);
    if (nvm_resident) d->nvm.Publish(DramMode::kFull, 0);
    d->dram.Publish(mode, 0);
    SPITFIRE_RETURN_NOT_OK(st);
  }

  // Without include_nvm (background checkpointing, Section 5.2) dirty NVM
  // copies stay in place: they are already persistent.
  if (include_nvm && d->NvmResident() &&
      d->nvm.dirty.load(std::memory_order_relaxed)) {
    if (!d->nvm.TryRetire()) {
      if (skipped != nullptr) ++*skipped;
      return Status::OK();  // actively referenced
    }
    const frame_id_t nf = d->nvm.frame.load(std::memory_order_relaxed);
    std::byte* ptr = nvm_pool_->FramePtr(nf);
    nvm_->OnDirectRead(nvm_pool_->FrameOffset(nf), kPageSize,
                       /*sequential=*/true);
    const Status st = WriteToSsd(pid, ptr);
    if (st.ok()) d->nvm.dirty.store(false, std::memory_order_relaxed);
    d->nvm.Publish(DramMode::kFull, 0);
    SPITFIRE_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status BufferShard::FlushAll(bool include_nvm, size_t* skipped) {
  Status result = Status::OK();
  descriptors_.ForEach([&](SharedPageDescriptor* d) {
    Status st = FlushPageImpl(d, include_nvm, skipped);
    // A full flush drains per page rather than once per sweep: the I/O
    // scheduler would otherwise coalesce the whole batch into a handful
    // of device ops, and this path feeds checkpoints whose write
    // accounting (and fault injection points) assume one write per
    // flushed page.
    if (include_nvm) {
      const Status drained = DrainIo();
      if (st.ok()) st = drained;
    }
    if (!st.ok()) result = st;
  });
  if (!include_nvm) {
    // One drain for the whole sweep: the staged writes coalesce while the
    // sweep runs, and any async error surfaces here.
    const Status drained = DrainIo();
    if (result.ok()) result = drained;
  }
  return result;
}

Status BufferShard::RecoverNvmResidentPages() {
  if (nvm_pool_ == nullptr) {
    return Status::InvalidArgument("no NVM pool to recover");
  }
  // Drain the free list; re-add frames that the persistent frame table
  // marks as free, claim the rest.
  std::vector<frame_id_t> all;
  frame_id_t f;
  while (nvm_pool_->TryAllocateFrame(&f)) all.push_back(f);
  size_t recovered = 0;
  for (frame_id_t frame : all) {
    const page_id_t pid = nvm_pool_->PersistedOwner(frame);
    // A pid past the SSD's capacity cannot have been allocated.
    bool valid = pid < descriptors_.max_pages();
    if (valid) {
      PageView view(nvm_pool_->FramePtr(frame));
      valid = view.header()->IsValid() && view.header()->page_id == pid;
    }
    if (!valid) {
      nvm_pool_->FreeFrame(frame);
      continue;
    }
    if (!OwnsPage(pid)) {
      // The persistent frame table was written under a different shard
      // count: this frame's page routes to another shard's slice. Bail
      // without freeing the frame (FreeFrame would zero the persisted
      // entry and destroy the only copy); the caller must re-open the
      // device with the num_shards it was populated under.
      return Status::InvalidArgument(
          "persisted NVM page routes to a different shard; recover with "
          "the original num_shards");
    }
    SharedPageDescriptor* d = descriptors_.GetOrCreate(pid);
    d->nvm.frame.store(frame, std::memory_order_relaxed);
    // NVM copies may be newer than their SSD counterparts; treat them as
    // dirty so they flow down before being dropped.
    d->nvm.dirty.store(true, std::memory_order_relaxed);
    d->nvm.Publish(DramMode::kFull, 0);
    nvm_pool_->SetOwner(frame, d, pid);
    page_id_t expect = next_page_id_->load(std::memory_order_relaxed);
    while (pid + 1 > expect &&
           !next_page_id_->compare_exchange_weak(expect, pid + 1)) {
    }
    ++recovered;
  }
  (void)recovered;
  return Status::OK();
}

void BufferShard::InclusivityCounts(size_t* both, size_t* either) const {
  descriptors_.ForEach([&](const SharedPageDescriptor* d) {
    const bool in_dram = d->DramResident();
    const bool in_nvm = d->NvmResident();
    if (in_dram && in_nvm) ++*both;
    if (in_dram || in_nvm) ++*either;
  });
}

double BufferShard::InclusivityRatio() const {
  size_t both = 0;
  size_t either = 0;
  InclusivityCounts(&both, &either);
  return either == 0 ? 0.0
                     : static_cast<double>(both) / static_cast<double>(either);
}

size_t BufferShard::DramResidentPages() const {
  size_t n = 0;
  descriptors_.ForEach([&](const SharedPageDescriptor* d) {
    if (d->DramResident()) ++n;
  });
  return n;
}

bool BufferShard::IsDramResident(page_id_t pid) const {
  const SharedPageDescriptor* d = descriptors_.Find(pid);
  return d != nullptr && d->DramResident();
}

bool BufferShard::IsNvmResident(page_id_t pid) const {
  const SharedPageDescriptor* d = descriptors_.Find(pid);
  return d != nullptr && d->NvmResident();
}

size_t BufferShard::NvmResidentPages() const {
  size_t n = 0;
  descriptors_.ForEach([&](const SharedPageDescriptor* d) {
    if (d->NvmResident()) ++n;
  });
  return n;
}

}  // namespace spitfire
