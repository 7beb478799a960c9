#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracing for the traced run. Spans are recorded by the
// benchmark's own client loops around each call into an engine module, so
// the engine itself is not instrumented. Every span carries a name (kind),
// start, end, its parent span and the id of the transaction it served.
//
// Each client thread owns one Tracer. It keeps per-kind aggregates of all
// spans (count, duration samples, self time) and retains the first
// kKeepPerThread spans verbatim for the span dump written at the end.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kTxn,  // begin -> outcome of one transaction attempt (root)
  kBegin,
  kRead,
  kCommit,
  kStep,  // one TxnMachine::Step call
  kPump,  // one BufferManager::PumpIo call (client level, no transaction)
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
  kNumKinds,
};

inline const char* SpanName(SpanKind k) {
  static const char* const kNames[] = {
      "txn",      "db.begin",         "db.read",        "db.commit",
      "exec.step", "exec.pump",       "tpcc.new_order", "tpcc.payment",
      "tpcc.order_status", "tpcc.delivery", "tpcc.stock_level"};
  return kNames[static_cast<size_t>(k)];
}

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t txn;     // 0 = not tied to a transaction
  uint32_t id;
  uint32_t parent;  // 0 = root
  SpanKind kind;
};

struct SpanStats {
  Samples duration;
  uint64_t self_ns = 0;  // duration minus the time covered by child spans

  void Merge(const SpanStats& o) {
    duration.Merge(o.duration);
    self_ns += o.self_ns;
  }
};

class Tracer {
 public:
  static constexpr size_t kKeepPerThread = 16384;

  explicit Tracer(uint32_t thread) : next_id_(thread << 24 | 1) {}

  uint32_t NewId() { return next_id_++; }

  // Records a finished span. `child_ns` is the time its children covered
  // (they run sequentially on this thread, so they never overlap).
  void Record(SpanKind k, uint64_t start, uint64_t end, uint32_t id,
              uint32_t parent, uint64_t txn, uint64_t child_ns = 0) {
    const uint64_t dur = end - start;
    SpanStats& s = stats_[static_cast<size_t>(k)];
    s.duration.Add(dur);
    s.self_ns += dur - std::min(dur, child_ns);
    if (kept_.size() < kKeepPerThread) {
      kept_.push_back(Span{start, end, txn, id, parent, k});
    }
  }

  std::array<SpanStats, static_cast<size_t>(SpanKind::kNumKinds)>& stats() {
    return stats_;
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  uint32_t next_id_;
  std::array<SpanStats, static_cast<size_t>(SpanKind::kNumKinds)> stats_;
  std::vector<Span> kept_;
};

// Writes retained spans as CSV: name,start_ns,end_ns,id,parent,txn.
inline bool WriteSpans(const char* path,
                       const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,txn\n");
  for (const Tracer* t : tracers) {
    for (const Span& s : t->kept()) {
      std::fprintf(f, "%s,%llu,%llu,%u,%u,%llu\n", SpanName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                   static_cast<unsigned long long>(s.txn));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
