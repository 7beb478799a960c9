#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace spitfire {

std::string DriverResult::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%.0f txn/s (committed=%llu aborted=%llu over %.2fs, "
      "p50=%.1fus p99=%.1fus p999=%.1fus)",
      Throughput(), static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(aborted), seconds,
      static_cast<double>(latency_ns.Percentile(50)) * 1e-3,
      static_cast<double>(latency_ns.Percentile(99)) * 1e-3,
      static_cast<double>(latency_ns.Percentile(99.9)) * 1e-3);
  return buf;
}

namespace {

// A blocking procedure as a machine: every step runs one whole
// transaction, so it never parks and is never in flight between steps.
class FnMachine final : public TxnMachine {
 public:
  explicit FnMachine(const WorkloadDriver::TxnFn* fn) : fn_(fn) {}
  Status Step(Xoshiro256& rng, FetchContext*) override { return (*fn_)(rng); }
  void Cancel() override {}
  bool in_flight() const override { return false; }

 private:
  const WorkloadDriver::TxnFn* fn_;
};

struct CorePhase {
  std::string name;
  double seconds = 0;
  const TxnMachineFactory* factory = nullptr;
};

// The execution core. Stage 0 is the warm-up (run with phase 0's
// factory), stage p+1 is measured phase p, and stage phases.size()+1 is
// the stop, after which workers only drain. `bm` null means the machines
// never park: workers then never pump I/O and are not marked async-aware.
std::vector<DriverResult> RunCore(BufferManager* bm, int num_threads,
                                  int ring_depth, double warmup_seconds,
                                  const std::vector<CorePhase>& phases,
                                  double slice_seconds) {
  const size_t num_phases = phases.size();
  std::vector<DriverResult> results(num_phases);
  if (num_phases == 0 || num_threads <= 0) return results;
  const size_t stop_stage = num_phases + 1;
  const size_t depth = static_cast<size_t>(std::max(1, ring_depth));
  const bool sliced = slice_seconds > 0;
  const uint64_t slice_ns =
      sliced ? static_cast<uint64_t>(slice_seconds * 1e9) : 1;

  // Throughput-over-time bins, one slab per phase. Workers accumulate
  // locally and flush on slice/phase change, so the atomics see one RMW
  // per worker per slice, not per transaction.
  std::vector<std::vector<std::atomic<uint64_t>>> bins(num_phases);
  if (sliced) {
    for (size_t p = 0; p < num_phases; ++p) {
      bins[p] = std::vector<std::atomic<uint64_t>>(
          static_cast<size_t>(phases[p].seconds / slice_seconds + 0.5) + 1);
    }
  }
  // Start timestamp of each phase, written before the stage advances to
  // it (release), so workers entering the phase see it.
  std::vector<std::atomic<uint64_t>> phase_start_ns(num_phases);
  std::atomic<size_t> stage{warmup_seconds > 0 ? size_t{0} : size_t{1}};
  phase_start_ns[0].store(NowNanos(), std::memory_order_relaxed);

  struct WorkerStats {
    std::vector<uint64_t> committed, aborted;
    std::vector<Histogram> latency;
  };
  std::vector<WorkerStats> stats(static_cast<size_t>(num_threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));

  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x5EED0000ULL + static_cast<uint64_t>(t) * 7919);
      WorkerStats& my = stats[static_cast<size_t>(t)];
      my.committed.assign(num_phases, 0);
      my.aborted.assign(num_phases, 0);
      my.latency.resize(num_phases);

      // Slots hold the FetchContext the buffer manager's completer
      // writes into, so they need stable addresses for the whole run.
      struct Slot {
        FetchContext ctx;
        std::unique_ptr<TxnMachine> machine;
        const TxnMachineFactory* factory = nullptr;  // built `machine`
        size_t start_stage = 0;
        uint64_t start_ns = 0;
      };
      std::vector<std::unique_ptr<Slot>> ring(depth);
      for (auto& s : ring) s = std::make_unique<Slot>();
      // Mark this worker async-aware up front: simulated device waits on
      // this thread (e.g. a stolen prefetch execution) sleep instead of
      // spinning, letting the ring's other completions overlap.
      if (bm != nullptr) (void)bm->PumpIo(/*may_sleep=*/true);

      size_t bin_phase = 0, bin_slice = 0;
      uint64_t pending = 0;
      const auto flush = [&] {
        if (pending == 0) return;
        auto& slab = bins[bin_phase];
        slab[std::min(bin_slice, slab.size() - 1)].fetch_add(
            pending, std::memory_order_relaxed);
        pending = 0;
      };
      const auto record = [&](const Slot& s, const Status& st) {
        const size_t p = s.start_stage - 1;
        const uint64_t now = NowNanos();
        my.latency[p].Add(now - s.start_ns);
        if (!st.ok()) {
          if (!st.IsAborted() && !st.IsBusy()) {
            std::fprintf(stderr, "driver: txn failed: %s\n",
                         st.ToString().c_str());
          }
          ++my.aborted[p];
          return;
        }
        ++my.committed[p];
        if (!sliced) return;
        const uint64_t start =
            phase_start_ns[p].load(std::memory_order_relaxed);
        const size_t slice =
            now > start ? static_cast<size_t>((now - start) / slice_ns) : 0;
        if (p != bin_phase || slice != bin_slice) {
          flush();
          bin_phase = p;
          bin_slice = slice;
        }
        ++pending;
      };

      for (;;) {
        const size_t cur = stage.load(std::memory_order_acquire);
        const bool stopping = cur >= stop_stage;
        const TxnMachineFactory* factory =
            stopping ? nullptr : phases[cur == 0 ? 0 : cur - 1].factory;
        bool progressed = false;  // any real forward motion this pass
        bool any_active = false;  // some machine still parked or in flight
        int moved = 0;            // resumed or finished transactions

        for (auto& sp : ring) {
          Slot& s = *sp;
          if (s.ctx.pending()) {
            if (!s.ctx.ready()) {
              any_active = true;
              continue;  // still waiting on the device
            }
            // Harvesting a real completion is progress; harvesting an
            // instantly-rejected (Busy) park is not — counting it would
            // spin the pass loop against a saturated admission gate and
            // starve the completion pump.
            const bool was_busy = s.ctx.parked_busy();
            (void)s.ctx.Harvest();
            if (!was_busy) {
              progressed = true;
              ++moved;
            }
          } else if (s.machine == nullptr || !s.machine->in_flight()) {
            if (stopping) continue;  // draining: no new transactions
            // Idle slot: begin the next transaction, on a machine of the
            // current phase.
            if (s.factory != factory) {
              s.machine = (*factory)();
              s.factory = factory;
            }
            s.start_stage = cur;
            s.start_ns = NowNanos();
          }
          const Status st = s.machine->Step(rng, &s.ctx);
          if (st.IsWouldBlock()) {
            any_active = true;
            continue;
          }
          progressed = true;
          ++moved;
          if (s.start_stage > 0 && !stopping) record(s, st);
        }

        if (stopping && !any_active) break;  // drained
        if (moved == 0 && bm != nullptr) {
          // Nothing moved: reap completions ourselves (submit-and-reap);
          // sleep only if the pass also made no other progress, since the
          // next state change can then only be a completion firing.
          (void)bm->PumpIo(/*may_sleep=*/!progressed);
        }
      }
      flush();
    });
  }

  if (warmup_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_seconds));
  }
  for (size_t p = 0; p < num_phases; ++p) {
    Timer phase_timer;
    if (p > 0 || warmup_seconds > 0) {
      phase_start_ns[p].store(NowNanos(), std::memory_order_relaxed);
      stage.store(p + 1, std::memory_order_release);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(phases[p].seconds));
    results[p].seconds = phase_timer.ElapsedSeconds();
  }
  stage.store(stop_stage, std::memory_order_release);
  for (auto& w : workers) w.join();

  for (size_t p = 0; p < num_phases; ++p) {
    DriverResult& r = results[p];
    r.name = phases[p].name;
    for (const auto& s : stats) {
      r.committed += s.committed[p];
      r.aborted += s.aborted[p];
      r.latency_ns.Merge(s.latency[p]);
    }
    for (const auto& b : bins[p]) {
      r.slice_ops_per_sec.push_back(
          static_cast<double>(b.load(std::memory_order_relaxed)) /
          slice_seconds);
    }
  }
  return results;
}

}  // namespace

DriverResult WorkloadDriver::Run(int num_threads, double seconds,
                                 const TxnFn& txn_fn, double warmup_seconds,
                                 double slice_seconds) {
  const TxnMachineFactory factory = [&txn_fn] {
    return std::make_unique<FnMachine>(&txn_fn);
  };
  auto r = RunCore(/*bm=*/nullptr, num_threads, /*ring_depth=*/1,
                   warmup_seconds, {{"", seconds, &factory}}, slice_seconds);
  return std::move(r[0]);
}

std::vector<WorkloadDriver::PhaseResult> WorkloadDriver::RunPhased(
    int num_threads, const std::vector<PhaseSpec>& phases,
    double slice_seconds) {
  std::vector<TxnMachineFactory> factories;
  factories.reserve(phases.size());
  for (const PhaseSpec& p : phases) {
    factories.push_back(
        [fn = &p.fn] { return std::make_unique<FnMachine>(fn); });
  }
  std::vector<CorePhase> core;
  for (size_t i = 0; i < phases.size(); ++i) {
    core.push_back({phases[i].name, phases[i].seconds, &factories[i]});
  }
  return RunCore(/*bm=*/nullptr, num_threads, /*ring_depth=*/1,
                 /*warmup_seconds=*/0, core, std::max(1e-3, slice_seconds));
}

DriverResult WorkloadDriver::RunInterleaved(BufferManager* bm,
                                            int num_threads, double seconds,
                                            int ring_depth,
                                            const TxnMachineFactory& factory,
                                            double warmup_seconds,
                                            double slice_seconds) {
  auto r = RunCore(bm, num_threads, ring_depth, warmup_seconds,
                   {{"", seconds, &factory}}, slice_seconds);
  return std::move(r[0]);
}

}  // namespace spitfire
