// Miss-path microbenchmark: FetchPage throughput when most accesses must
// go to the (simulated) SSD, at 1/2/4/8 threads, for two patterns:
//
//  - uniform: each thread fetches uniformly random pages from a database
//    ~8x larger than the buffer, so threads mostly miss on DISTINCT pages
//    (measures raw miss bandwidth: async staging, no latch across I/O);
//  - hot: all threads fetch the same slowly-advancing page (a shared
//    counter advances the target every 8 global ops), so every advance
//    is a MISS STORM — N threads hitting one cold page at once.
//    Single-flight dedup turns N device reads into one read plus N-1
//    sleeping waiters, and because the hot page advances sequentially (a
//    shared scan front), read-ahead streams the next window in one
//    coalesced device op, paying the per-op fixed cost once per window
//    instead of once per page.
//
// Every fetch goes through the one asynchronous miss path (I/O scheduler,
// descriptor kIoInflight state, completion install); the pattern rows
// are tagged "sched": "on" for continuity with older runs, whose
// "sched": "off" rows measured a synchronous read-under-latch path that
// no longer exists.
//
// A second section sweeps the submission/completion split: the blocking
// FetchPage shim versus the interleaved executor
// (WorkloadDriver::RunInterleaved over a one-fetch PageOpMachine) at
// --queue-depth=1,4,16,64 ops in flight per worker. Blocking keeps at
// most one miss per thread in the SSD's queues no matter how deep they
// are; the ring converts queue depth into throughput. Latency percentiles
// (p50/p99/p999) come from the same histogram for both modes.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/driver.h"

namespace spitfire::bench {
namespace {

constexpr double kDbMb = 32;     // 2048 pages
constexpr double kBufferMb = 4;  // 256 frames — ~12% of the database

struct MissHierarchy {
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<BufferManager> bm;
};

MissHierarchy Make() {
  MissHierarchy h;
  h.ssd = std::make_unique<SsdDevice>(
      static_cast<uint64_t>(2 * kDbMb * 1024 * 1024));
  BufferManagerOptions opt;
  opt.dram_frames = FramesForMb(kBufferMb);
  opt.nvm_frames = 0;
  opt.policy = MigrationPolicy::Eager();
  opt.ssd = h.ssd.get();
  h.bm = std::make_unique<BufferManager>(opt);
  return h;
}

void RunPatterns(double seconds) {
  const uint64_t num_pages = PagesForMb(kDbMb);
  for (const bool hot : {false, true}) {
    MissHierarchy h = Make();
    Populate(*h.bm, num_pages);
    // Devices simulate Table 1 latencies during measurement: the miss
    // path's cost is the device wait, which is what the scheduler hides.
    LatencySimulator::SetScale(EnvScale(1.0));
    BufferManager& bm = *h.bm;
    for (int threads : {1, 2, 4, 8}) {
      bm.stats().Reset();
      h.ssd->stats().Reset();
      std::atomic<uint64_t> tick{0};
      const double ops =
          MeasureClosedLoop(threads, seconds, 0x4155C, [&](Xoshiro256& rng) {
            // Hot: all threads chase one page that advances every 8 global
            // ops — a shared scan front: each advance storms a cold page,
            // and the sequential order lets read-ahead stay ahead of it.
            const page_id_t pid =
                hot ? static_cast<page_id_t>(
                          (tick.fetch_add(1, std::memory_order_relaxed) / 8) %
                          num_pages)
                    : rng.NextUint64(num_pages);
            return bm.FetchPage(pid, AccessIntent::kRead).ok();
          });
      const auto snap = bm.stats().Snapshot();
      JsonLine()
          .Str("bench", "micro_miss_path")
          .Str("sched", "on")
          .Str("pattern", hot ? "hot" : "uniform")
          .Num("threads", threads)
          .Num("pages", num_pages)
          .Num("ops_per_sec", ops)
          .Num("ssd_reads", h.ssd->stats().num_reads.load())
          .Num("ssd_read_pages", h.ssd->stats().bytes_read.load() / kPageSize)
          .Num("ssd_fetches", snap.ssd_fetches)
          .Num("reads_deduped",
               bm.io_scheduler()->stats().reads_deduped.load())
          .Num("ra_installs", snap.read_ahead_installs)
          .Print();
    }
    LatencySimulator::SetScale(0.0);
  }
}

// Shared op stream for the queue-depth sweep, so the blocking and
// interleaved modes measure identical access sequences.
//
// The hot pattern here differs from RunPatterns' scan front on purpose:
// the storm page jumps kStormStride (> read_ahead_pages) per advance,
// so every storm target is COLD — read-ahead cannot stream it in, and
// all eight threads pile onto one in-flight read per advance. Blocking
// mode therefore serializes on one device latency per 8 ops; the async
// ring keeps QD storm fronts in flight at once, which is exactly the
// submission/completion split's win.
struct MissOpGen {
  static constexpr uint64_t kStormStride = 97;  // prime, > RA window (32)

  uint64_t num_pages = 0;
  bool hot = false;
  std::atomic<uint64_t> tick{0};

  page_id_t Next(Xoshiro256& rng) {
    if (hot) {
      const uint64_t c = tick.fetch_add(1, std::memory_order_relaxed);
      return static_cast<page_id_t>(((c / 8) * kStormStride) % num_pages);
    }
    return static_cast<page_id_t>(rng.NextUint64(num_pages));
  }
};

// One read fetch per transaction. The machine holds its own ticket and
// harvests the completion in place: the FetchContext resume protocol
// (drop the completion's pin, re-fetch as a hit) would re-miss under ring
// pressure and cost two device reads for one op. Until the ticket fires
// the machine reports WouldBlock, so the driver's pump-when-stuck rule
// paces the wait. A Busy completion (miss admission full, install race)
// is resubmitted on a later step once the page's shard admits misses
// again, up to kMaxBusyRetries times, before the op counts as aborted.
class PageOpMachine final : public TxnMachine {
 public:
  static constexpr int kMaxBusyRetries = 32;

  PageOpMachine(BufferManager* bm, MissOpGen* gen) : bm_(bm), gen_(gen) {}

  Status Step(Xoshiro256& rng, FetchContext*) override {
    if (!in_flight_) {
      pid_ = gen_->Next(rng);
      busy_retries_ = 0;
      in_flight_ = true;
      Submit();
    } else if (Fired() && ticket_.status.IsBusy() &&
               busy_retries_ < kMaxBusyRetries && AdmissionOpen()) {
      ++busy_retries_;
      Submit();
    }
    if (!Fired() ||
        (ticket_.status.IsBusy() && busy_retries_ < kMaxBusyRetries)) {
      return Status::WouldBlock();
    }
    in_flight_ = false;
    ticket_.guard.Release();
    return ticket_.status;
  }

  void Cancel() override {
    while (in_flight_ && !Fired()) (void)bm_->PumpIo(/*may_sleep=*/true);
    ticket_.guard.Release();
    in_flight_ = false;
  }

  bool in_flight() const override { return in_flight_; }

 private:
  bool Fired() const { return ticket_.ready.load(std::memory_order_acquire); }
  // Whether the page's shard would admit a new miss right now. Retrying
  // into a full admission gate only burns the retry budget.
  bool AdmissionOpen() const {
    const BufferShard* s = bm_->shard(bm_->ShardIndexOf(pid_));
    return s->inflight_misses() < s->miss_admission_cap();
  }
  void Submit() {
    ticket_.Reset();
    (void)bm_->SubmitFetch(pid_, AccessIntent::kRead, &ticket_);
  }

  BufferManager* bm_;
  MissOpGen* gen_;
  FetchTicket ticket_;
  page_id_t pid_ = 0;
  int busy_retries_ = 0;
  bool in_flight_ = false;
};

void EmitSweepLine(const char* mode, int qd, bool hot, int threads,
                   const DriverResult& res, BufferManager& bm,
                   SsdDevice& ssd) {
  const auto snap = bm.stats().Snapshot();
  JsonLine line;
  line.Str("bench", "micro_miss_path")
      .Str("section", "queue_depth_sweep")
      .Str("mode", mode)
      .Num("queue_depth", qd)
      .Str("pattern", hot ? "hot" : "uniform")
      .Num("threads", threads)
      .Num("ops_per_sec", res.Throughput())
      .Num("aborted", res.aborted)
      .Num("ssd_reads", ssd.stats().num_reads.load())
      .Num("miss_submits", snap.miss_submits)
      .Num("miss_joins", snap.miss_joins)
      .Num("reads_deduped", bm.io_scheduler()->stats().reads_deduped.load())
      .Num("ra_installs", snap.read_ahead_installs);
  AddLatencyPercentiles(line, res.latency_ns).Print();
}

// Blocking vs async at each queue depth, 8 workers each. The blocking
// reference is the FetchPage shim driven by the closed-loop driver.
void RunQueueDepthSweep(const std::vector<int>& depths, double seconds) {
  const uint64_t num_pages = PagesForMb(kDbMb);
  // SPITFIRE_SWEEP_THREADS overrides the worker count (useful for
  // isolating driver behavior from cross-thread contention).
  int threads = 8;
  if (const char* e = std::getenv("SPITFIRE_SWEEP_THREADS")) {
    threads = std::max(1, std::atoi(e));
  }
  for (const bool hot : {false, true}) {
    // qd 0 is the blocking reference.
    std::vector<int> points = {0};
    points.insert(points.end(), depths.begin(), depths.end());
    for (const int qd : points) {
      MissHierarchy h = Make();
      Populate(*h.bm, num_pages);
      LatencySimulator::SetScale(EnvScale(1.0));
      h.bm->stats().Reset();
      h.ssd->stats().Reset();
      MissOpGen gen{num_pages, hot};
      BufferManager* bm = h.bm.get();
      const auto blocking_op = [bm, &gen](Xoshiro256& rng) {
        return bm->FetchPage(gen.Next(rng), AccessIntent::kRead).status();
      };
      const auto machine = [bm, &gen] {
        return std::make_unique<PageOpMachine>(bm, &gen);
      };
      const DriverResult res =
          qd == 0 ? WorkloadDriver::Run(threads, seconds, blocking_op)
                  : WorkloadDriver::RunInterleaved(bm, threads, seconds, qd,
                                                   machine);
      // Blocking reports qd 1: one op in flight per thread by construction.
      EmitSweepLine(qd == 0 ? "blocking" : "async", std::max(qd, 1), hot,
                    threads, res, *h.bm, *h.ssd);
      LatencySimulator::SetScale(0.0);
    }
  }
}

void Main(const std::vector<int>& depths, bool sweep_only) {
  PrintBanner("micro_miss_path", "SSD-miss fetch throughput (I/O scheduler)");
  const double seconds = EnvSeconds(1.5);
  LatencySimulator::SetScale(0.0);
  if (!sweep_only) RunPatterns(seconds);
  RunQueueDepthSweep(depths, seconds);
  LatencySimulator::SetScale(1.0);
}

}  // namespace
}  // namespace spitfire::bench

int main(int argc, char** argv) {
  // --queue-depth=1,4,16,64 selects the per-worker ring depths swept by
  // the async section (comma-separated).
  std::vector<int> depths = {1, 4, 16, 64};
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--sweep-only") == 0) {
      sweep_only = true;
    } else if (std::strncmp(arg, "--queue-depth=", 14) == 0) {
      depths.clear();
      std::string list(arg + 14);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        depths.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  spitfire::bench::Main(depths, sweep_only);
  return 0;
}
