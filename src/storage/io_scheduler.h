#ifndef SPITFIRE_STORAGE_IO_SCHEDULER_H_
#define SPITFIRE_STORAGE_IO_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "storage/device.h"

namespace spitfire {

// Tuning knobs for the SSD I/O scheduler.
struct IoSchedulerOptions {
  // Maximum pages merged into one device write. Adjacent staged writes
  // within one batch become a single larger request, which the device
  // latency model rewards: the per-op fixed cost is paid once instead of
  // per page.
  size_t max_coalesce_pages = 8;
  // After picking up a pending write, the writer lingers this long for more
  // writes to arrive before issuing, so eviction bursts coalesce. Drain()
  // requests cut the window short.
  uint64_t coalesce_window_us = 50;
  // Pages prefetched ahead of a detected sequential miss run; 0 disables
  // read-ahead. (The trigger lives in the buffer manager; this is the
  // window size it reads.) 32 pages = 512 KB: on the simulated device
  // a 32-page sequential read costs ~1/3 of 32 single-page reads, and a
  // wider window also means fewer chain handoffs per scanned megabyte.
  size_t read_ahead_pages = 32;
};

// Monotonic counters; all relaxed, reporting only.
struct IoSchedulerStats {
  std::atomic<uint64_t> read_ops{0};           // device read requests issued
  std::atomic<uint64_t> reads_deduped{0};      // misses parked on a read
  std::atomic<uint64_t> reads_from_staged{0};  // pages served from a write
  std::atomic<uint64_t> writes_staged{0};
  std::atomic<uint64_t> write_ops{0};          // device write requests issued
  std::atomic<uint64_t> writes_coalesced{0};   // pages merged into larger ops
};

// Owner of all SSD-tier page traffic (an io_uring-style submission model
// over the simulated device's queues):
//
//  - SubmitRead admits a read of one or more contiguous pages and returns
//    at once; its callback runs when the device model's deadline passes.
//    There is no single-flight here: the buffer manager's page descriptors
//    own every in-flight read, and a second miss parks on the descriptor.
//  - WritePage is ASYNCHRONOUS: the page image is staged in a heap buffer
//    and queued; a writer thread drains the queue, merging adjacent-page
//    writes into one larger device op. Reads of a staged page are served
//    from the staged image, so callers may free the source frame at once.
//  - Every offset carries a WRITE SEQUENCE number, bumped when a write is
//    staged. A read reports the sequence its bytes correspond to; a caller
//    installing the page re-validates it under its own latches (WriteSeq)
//    and retries on mismatch, so reads need no page latch.
//
// Offsets must be kPageSize-aligned; transfers are whole pages.
class IoScheduler {
 public:
  // `ssd` must support deadline-based submission (SupportsAsyncIo).
  explicit IoScheduler(Device* ssd, const IoSchedulerOptions& opts = {});
  ~IoScheduler();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(IoScheduler);

  // Fired exactly once per SubmitRead, with the pages' bytes (page i at
  // data + i * kPageSize) and, per page, the write sequence its bytes
  // correspond to. `data` is only valid for the duration of the call. A
  // non-OK status is a device error (data is then meaningless). The
  // callback runs without any scheduler lock held, but must not block on
  // this scheduler's own completions.
  using ReadCallback = std::function<void(const Status&, const std::byte* data,
                                          const uint64_t* seqs)>;

  // Reads pages [offset, offset + n * kPageSize) as one device op. Pages
  // with a staged write come from the staged image, never from the
  // device's older bytes. Never blocks on device latency: the callback
  // runs at the op's deadline — on a thread pumping completions or on the
  // completion worker — or inline, when every page was staged, the device
  // failed, or the deadline has already passed (latency scale 0).
  void SubmitRead(uint64_t offset, size_t n, ReadCallback cb);

  // Runs every completion whose deadline has passed on the calling thread.
  // With `may_sleep`, blocks briefly (bounded, ~200 us) until the next
  // deadline or a notification when nothing is runnable — the async
  // workload driver's idle wait. Returns whether anything ran.
  bool PumpCompletions(bool may_sleep);

  // Completion broadcast, for continuation waiters (e.g. a fetch parked on
  // an in-flight read). Every fired read completion bumps the epoch and
  // notifies; a waiter samples the epoch, re-checks its own ready flag,
  // then sleeps in WaitForCompletion — which returns immediately if the
  // epoch moved in between, so no wakeup is lost. Continuation layers that
  // complete waiters outside a read callback call SignalCompletions.
  uint64_t completion_epoch() const {
    return comp_epoch_.load(std::memory_order_acquire);
  }
  void WaitForCompletion(uint64_t observed_epoch, uint64_t max_wait_ns);
  void SignalCompletions();

  // Stages one page write and returns immediately; the device write
  // happens on the writer thread. A newer write of the same page before the
  // queue drains overwrites the staged image in place (last writer wins).
  // Errors surface at the next Drain().
  Status WritePage(uint64_t offset, const std::byte* src);

  // Current write sequence of `offset` (0 = never written through the
  // scheduler). Compare against a read's sequence before installing.
  uint64_t WriteSeq(uint64_t offset);

  // Blocks until every staged write has reached the device; returns (and
  // clears) the first asynchronous write error since the previous Drain.
  Status Drain();

  // Drains outstanding writes, fires every pending completion early and
  // joins the threads. Idempotent; called by the destructor.
  void Shutdown();

  IoSchedulerStats& stats() { return stats_; }

 private:
  static constexpr size_t kNumShards = 16;

  // One staged write. The image may be overwritten (under the shard
  // mutex) only while `issuing` is false; the writer sets `issuing` under
  // the mutex before copying the image out, so the copy needs no lock.
  struct StagedWrite {
    std::unique_ptr<std::byte[]> buf;
    bool issuing = false;
  };

  // Entries exist only for offsets written through the scheduler; they
  // are kept so sequence numbers stay monotonic for the device's lifetime
  // (bounded by the page count).
  struct Entry {
    std::shared_ptr<StagedWrite> write;
    uint64_t write_seq = 0;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, Entry> table;
  };

  struct QueueItem {
    uint64_t offset = 0;
    std::shared_ptr<StagedWrite> w;
  };

  Shard& ShardFor(uint64_t offset) {
    return shards_[(offset / kPageSize) % kNumShards];
  }

  void WriterLoop();
  void ProcessBatch(std::vector<QueueItem>* batch, std::byte* scratch);
  // Clears the staged entries of a completed write run and releases its
  // backpressure slots; runs at the run's deadline.
  void RetireWrites(const std::vector<QueueItem>& items, const Status& st);

  // --- Completion engine --------------------------------------------------
  // Deferred completions ordered by their device-model deadline. Two heaps
  // under one lock: read completions re-enter buffer-manager code through
  // their callbacks (install pages, evict victims, stage writes), while
  // write completions only clear scheduler state — so code that must make
  // progress *inside* a read completion (WritePage backpressure, Drain)
  // pumps the write heap alone and cannot recurse.
  struct Completion {
    uint64_t deadline = 0;
    uint64_t seqno = 0;  // FIFO tie-break for equal deadlines
    std::function<void()> fn;
  };
  struct CompletionLater {
    bool operator()(const Completion& a, const Completion& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.seqno > b.seqno;
    }
  };
  using CompletionHeap =
      std::priority_queue<Completion, std::vector<Completion>, CompletionLater>;

  // Enqueues `fn` to run at `deadline_ns` (NowNanos clock); runs it inline
  // when the deadline has already passed (scale 0). Callers must not hold
  // shard or queue locks.
  void ScheduleAt(uint64_t deadline_ns, std::function<void()> fn,
                  bool is_write);
  // Runs every completion due at entry (both heaps, or the write heap
  // alone). Exclusive-pop under comp_mu_, so each completion runs exactly
  // once. Returns whether anything ran.
  bool PumpDue(bool writes_only);
  // Dedicated thread that sleeps to the earliest deadline and runs whatever
  // nobody pumped — the backstop that makes completions a guarantee rather
  // than a cooperative convention.
  void CompletionWorkerLoop();

  Device* ssd_;
  IoSchedulerOptions opts_;
  IoSchedulerStats stats_;

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  CompletionHeap comps_;   // read completions
  CompletionHeap wcomps_;  // write completions
  uint64_t comp_seq_ = 0;
  std::atomic<uint64_t> comp_epoch_{0};  // completion-broadcast stamp
  std::atomic<int> comp_sleepers_{0};    // threads parked on comp_cv_ for
                                         // completion signals; lets
                                         // SignalCompletions skip the
                                         // mutex when nobody sleeps
  bool comp_stop_ = false;
  std::thread completion_worker_;

  Shard shards_[kNumShards];

  std::mutex q_mu_;
  std::condition_variable q_cv_;
  std::deque<QueueItem> write_queue_;
  size_t pending_writes_ = 0;  // staged, not yet on the device
  size_t drain_waiters_ = 0;
  Status first_write_error_;
  bool stop_ = false;

  std::thread writer_;
};

}  // namespace spitfire

#endif  // SPITFIRE_STORAGE_IO_SCHEDULER_H_
