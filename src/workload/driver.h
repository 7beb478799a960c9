#ifndef SPITFIRE_WORKLOAD_DRIVER_H_
#define SPITFIRE_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "workload/txn_machine.h"

namespace spitfire {

// Result of one timed workload run (or of one phase of a phased run).
struct DriverResult {
  std::string name;  // phase name; empty for single-phase runs
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  // Begin → commit/abort latency of every counted transaction, parked
  // time included.
  Histogram latency_ns;
  // Committed txns per second per slice of the measurement window, when
  // the run was invoked with slice_seconds > 0 (throughput over time).
  std::vector<double> slice_ops_per_sec;

  // Committed transactions per second.
  double Throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0.0;
  }
  double AbortRate() const {
    const double total = static_cast<double>(committed + aborted);
    return total > 0 ? static_cast<double>(aborted) / total : 0.0;
  }
  std::string ToString() const;
};

// Multi-threaded closed-loop workload driver. Every entry point is a thin
// wrapper over one execution core: N workers each drive a ring of K
// TxnMachine slots (each with its own FetchContext) through a schedule of
// phases — an optional unrecorded warm-up, then one or more measured
// phases — and finally drain the transactions still in flight. A machine
// that parks on a buffer miss (WouldBlock) yields its worker to a sibling;
// a worker whose pass moves nothing reaps I/O completions itself and
// sleeps only if nothing at all happened.
//
// A transaction counts toward the phase it began in, if it finishes
// before the stop; warm-up and drained transactions are not counted.
// A machine step returning OK is a commit, any other status an abort.
class WorkloadDriver {
 public:
  // One blocking transaction per call: OK = commit, Aborted = rolled-back
  // conflict. Runs as a one-slot machine that never parks.
  using TxnFn = std::function<Status(Xoshiro256&)>;

  // Runs `txn_fn` on `num_threads` workers for `seconds`, after running it
  // for `warmup_seconds` without recording. With slice_seconds > 0 the
  // measurement window is additionally binned into throughput-over-time
  // slices. Workers are not async-aware: a miss spins its worker, which is
  // the blocking K=1 baseline the interleaved executor is measured against.
  static DriverResult Run(int num_threads, double seconds, const TxnFn& txn_fn,
                          double warmup_seconds = 0.0,
                          double slice_seconds = 0.0);

  // One phase of a phase-change scenario: run `fn` on every worker for
  // `seconds`, then all workers move to the next phase together.
  struct PhaseSpec {
    std::string name;
    double seconds = 1.0;
    TxnFn fn;
  };
  using PhaseResult = DriverResult;

  // Runs the phases back to back on `num_threads` workers (no warm-up;
  // make the first phase the warm-up if one is needed). Workers observe
  // the phase switch at their next transaction boundary. Each phase's
  // committed ops are binned into `slice_seconds` slices so transitions
  // (e.g. the post-scan recovery of a point-lookup phase) are visible
  // inside a phase, not just across phases.
  static std::vector<PhaseResult> RunPhased(
      int num_threads, const std::vector<PhaseSpec>& phases,
      double slice_seconds = 0.1);

  // Interleaved executor: each worker drives a ring of `ring_depth`
  // machines from `factory` (called once per slot per worker) over the
  // async miss path of `bm`, converting per-transaction miss stalls into
  // device queue depth. ring_depth <= 1 still parks and resumes through
  // the ring — use Run() with the blocking procedure for the true K=1
  // baseline.
  static DriverResult RunInterleaved(BufferManager* bm, int num_threads,
                                     double seconds, int ring_depth,
                                     const TxnMachineFactory& factory,
                                     double warmup_seconds = 0.0,
                                     double slice_seconds = 0.0);
};

}  // namespace spitfire

#endif  // SPITFIRE_WORKLOAD_DRIVER_H_
