// The repository benchmark: one seeded workload per invocation, driven
// through the public Database API by a closed loop of client threads.
//
//   perfbench --workload <ycsb-hot|ycsb-spill|tpcc> --seed N --seconds S
//             [--trace 0|1] [--spans PATH]
//
// With --trace 0 it reports the end-to-end metrics of one untraced timed
// window. With --trace 1 it splits the window into untraced and traced
// slices (ABBA order, so drift cancels), reports per-layer metrics from
// the traced slices, counter deltas over the whole window, and a
// single-thread probe, and writes retained spans to PATH.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The exit code is non-zero when an output check fails.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "db/database.h"
#include "stats.h"
#include "storage/perf_model.h"
#include "trace.h"
#include "txn/transaction.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using spitfire::BufferStatsSnapshot;
using spitfire::Database;
using spitfire::DatabaseOptions;
using spitfire::FetchContext;
using spitfire::LatencySimulator;
using spitfire::MigrationPolicy;
using spitfire::NowNanos;
using spitfire::Status;
using spitfire::TpccConfig;
using spitfire::TpccWorkload;
using spitfire::Xoshiro256;
using spitfire::YcsbConfig;
using spitfire::YcsbTxnMachine;
using spitfire::YcsbWorkload;

constexpr int kClients = 4;          // closed loop; the host has 4 CPUs
constexpr int kRingDepth = 8;        // ycsb-spill machines per client
constexpr int kSetups = 3;           // setup_s is the median of these
constexpr double kWarmupSeconds = 3.0;  // spill throughput settles after ~3 s
constexpr double kSliceSeconds = 1.0;  // --trace 0 reports medians over slices
constexpr int kProbeLookups = 10000;

// ---------------------------------------------------------------------------
// Workload specifications
// ---------------------------------------------------------------------------

enum class Kind { kYcsbHot, kYcsbSpill, kTpcc };

struct Spec {
  Kind kind;
  const char* name;
  DatabaseOptions opts;
  YcsbConfig ycsb;
  TpccConfig tpcc;
  int ring_depth = 0;  // 0 = blocking clients
};

// Engine defaults everywhere (auto shards, WAL with group commit staged in
// NVM, I/O scheduler on, no online tuner) except the sizes below.
bool MakeSpec(const std::string& name, Spec* s) {
  s->opts = DatabaseOptions{};
  if (name == "ycsb-hot") {
    // YCSB-RO, 40k x 1 KB tuples (~2,700 heap pages): everything fits in
    // DRAM, commits are read-only, so the hit path is the work.
    s->kind = Kind::kYcsbHot;
    s->name = "ycsb-hot";
    s->opts.dram_frames = 4096;
    s->opts.nvm_frames = 1024;
    s->opts.ssd_capacity = 128ull << 20;
    s->opts.log_ssd_capacity = 128ull << 20;
    s->ycsb = YcsbConfig::ReadOnly(40'000);
    s->ycsb.zipf_theta = 0.6;
    return true;
  }
  if (name == "ycsb-spill") {
    // YCSB-BA over 60k tuples (~4,000 pages, >5x DRAM+NVM): the async miss
    // path, I/O scheduler, NVM admission and dirty eviction do the work.
    s->kind = Kind::kYcsbSpill;
    s->name = "ycsb-spill";
    s->opts.dram_frames = 256;
    s->opts.nvm_frames = 512;
    s->opts.policy = MigrationPolicy::Lazy();
    s->opts.ssd_capacity = 192ull << 20;
    // The log file only grows: ~64 MB of load plus ~36 MB/s of updates.
    s->opts.log_ssd_capacity = 768ull << 20;
    s->ycsb = YcsbConfig::Balanced(60'000);
    s->ycsb.zipf_theta = 0.3;
    s->ring_depth = kRingDepth;
    return true;
  }
  if (name == "tpcc") {
    // The five-type mix over 4 warehouses: writes beside reads, group
    // commit on most commits, MVTO conflicts, growing trees and heaps.
    s->kind = Kind::kTpcc;
    s->name = "tpcc";
    s->opts.dram_frames = 512;
    s->opts.nvm_frames = 2048;
    s->opts.policy = MigrationPolicy::Lazy();
    s->opts.log_ssd_capacity = 768ull << 20;  // ~33 MB/s of log
    s->tpcc.num_warehouses = 4;
    return true;
  }
  return false;
}

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<YcsbWorkload> ycsb;  // destroyed before db
  std::unique_ptr<TpccWorkload> tpcc;
};

// create + load + warm-up.
Status Setup(const Spec& spec, Instance* in) {
  auto r = Database::Create(spec.opts);
  if (!r.ok()) return r.status();
  in->db = r.MoveValue();
  if (spec.kind == Kind::kTpcc) {
    in->tpcc = std::make_unique<TpccWorkload>(in->db.get(), spec.tpcc);
    SPITFIRE_RETURN_NOT_OK(in->tpcc->Load());
  } else {
    in->ycsb = std::make_unique<YcsbWorkload>(in->db.get(), spec.ycsb);
    SPITFIRE_RETURN_NOT_OK(in->ycsb->Load());
    SPITFIRE_RETURN_NOT_OK(in->ycsb->WarmUp());
  }
  return in->db->buffer_manager()->DrainIo();
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

enum Outcome { kOk, kAborted, kBusy, kError };

// MVTO conflict aborts are the only expected failures; their reasons are
// the ones Table returns (src/db/table.cc). Everything else is an error:
// Busy surfaces directly, or wrapped by the TPC-C procedures as
// "Aborted: Busy: ..." and by YcsbTxnMachine as Aborted with the original
// message (which then counts as another error, since its code is lost).
Outcome Classify(const Status& st) {
  if (st.ok()) return kOk;
  if (st.IsAborted()) {
    static const char* const kConflicts[] = {
        "older write in flight",  "write-write conflict",
        "newer version exists",   "version read by younger transaction",
        "lost write race",        "head moved"};
    const std::string& m = st.message();
    for (const char* c : kConflicts) {
      if (m == c) return kAborted;
    }
    if (m.rfind("Busy", 0) == 0) return kBusy;
    return kError;
  }
  return st.IsBusy() ? kBusy : kError;
}

// ---------------------------------------------------------------------------
// Client loops
// ---------------------------------------------------------------------------

// The timed window is a sequence of slices, each untraced or traced,
// switched by the main thread. A transaction belongs to the slice that was
// current when it began; kWarmup and kStop bracket the window.
constexpr int kWarmup = -1;
constexpr int kStop = -2;

struct Schedule {
  std::atomic<int> slice{kWarmup};
  std::vector<char> traced;  // per slice; fixed before the clients start

  bool Traced(int s) const { return s >= 0 && traced[s] != 0; }
};

constexpr int kTpccTypes = 5;
const SpanKind kTpccSpan[kTpccTypes] = {
    SpanKind::kNewOrder, SpanKind::kPayment, SpanKind::kOrderStatus,
    SpanKind::kDelivery, SpanKind::kStockLevel};

struct WindowStats {
  uint64_t attempted = 0, ok = 0, aborted = 0, busy = 0, errors = 0;
  Samples commit_ns;  // committed transactions only
  uint64_t parks = 0;  // WouldBlock returns from TxnMachine::Step
  uint64_t tpcc_attempted[kTpccTypes] = {};
  uint64_t tpcc_aborted[kTpccTypes] = {};
  uint64_t tpcc_writing_commits = 0;

  void Merge(const WindowStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    aborted += o.aborted;
    busy += o.busy;
    errors += o.errors;
    commit_ns.Merge(o.commit_ns);
    parks += o.parks;
    for (int i = 0; i < kTpccTypes; ++i) {
      tpcc_attempted[i] += o.tpcc_attempted[i];
      tpcc_aborted[i] += o.tpcc_aborted[i];
    }
    tpcc_writing_commits += o.tpcc_writing_commits;
  }
};

struct Client {
  Client(int index, uint64_t seed, const Schedule* s)
      : rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1),
        sched(s),
        slices(s->traced.size()),
        tracer(static_cast<uint32_t>(index)),
        txn_base(static_cast<uint64_t>(index + 1) << 48) {}

  Xoshiro256 rng;
  const Schedule* sched;
  std::vector<WindowStats> slices;
  Tracer tracer;
  uint64_t txn_base;
  uint64_t txn_seq = 0;
  uint64_t pump_ns = 0;  // traced time inside PumpIo
  std::string first_error;

  int Slice() const { return sched->slice.load(std::memory_order_acquire); }

  // Counts one finished transaction that began in `slice`.
  Outcome Count(int slice, const Status& st, uint64_t dur_ns) {
    const Outcome o = Classify(st);
    if (slice < 0) return o;
    WindowStats& w = slices[slice];
    ++w.attempted;
    switch (o) {
      case kOk:
        ++w.ok;
        w.commit_ns.Add(dur_ns);
        break;
      case kAborted: ++w.aborted; break;
      case kBusy: ++w.busy; break;
      case kError: ++w.errors; break;
    }
    if (o >= kBusy && first_error.empty()) first_error = st.ToString();
    return o;
  }
  uint64_t NextTxnId() { return txn_base | ++txn_seq; }
};

// ycsb-hot: the benchmark issues Begin / Table::Read / Commit itself.
void HotClient(YcsbWorkload* w, Client* c) {
  Database* db = w->db();
  spitfire::Table* table = w->table();
  std::vector<std::byte> buf(YcsbWorkload::kTupleSize);
  for (;;) {
    const int sl = c->Slice();
    if (sl == kStop) break;
    const bool traced = c->sched->Traced(sl);
    const uint64_t key = w->SampleKey(c->rng);
    const uint64_t t0 = NowNanos();
    auto txn = db->Begin();
    const uint64_t t1 = traced ? NowNanos() : 0;
    Status st = table->Read(txn.get(), key, buf.data());
    const uint64_t t2 = traced ? NowNanos() : 0;
    if (st.ok()) {
      st = db->Commit(txn.get());
    } else {
      (void)db->Abort(txn.get());
    }
    const uint64_t t3 = NowNanos();
    c->Count(sl, st, t3 - t0);
    if (traced) {
      Tracer& tr = c->tracer;
      const uint32_t root = tr.NewId();
      const uint64_t id = c->NextTxnId();
      tr.Record(SpanKind::kBegin, t0, t1, tr.NewId(), root, id);
      tr.Record(SpanKind::kRead, t1, t2, tr.NewId(), root, id);
      tr.Record(SpanKind::kCommit, t2, t3, tr.NewId(), root, id);
      tr.Record(SpanKind::kTxn, t0, t3, root, 0, id, t3 - t0);
    }
  }
}

// ycsb-spill: a ring of YcsbTxnMachines per client over FetchContext. A
// machine that parks on a miss yields the client to a sibling; the client
// pumps I/O completions itself when nothing in its ring can move.
void RingClient(YcsbWorkload* w, int depth, Client* c) {
  struct Slot {
    FetchContext ctx;
    std::unique_ptr<YcsbTxnMachine> machine;
    uint64_t start_ns = 0;
    int slice = kWarmup;
    uint32_t root = 0;
    uint64_t txn = 0;
    uint64_t child_ns = 0;
  };
  spitfire::BufferManager* bm = w->db()->buffer_manager();
  std::vector<std::unique_ptr<Slot>> ring;
  for (int i = 0; i < depth; ++i) {
    ring.push_back(std::make_unique<Slot>());
    ring.back()->machine = std::make_unique<YcsbTxnMachine>(w);
  }
  // Marks this thread async-aware: simulated device waits on it sleep
  // instead of spinning, so the ring's other completions overlap.
  (void)bm->PumpIo(/*may_sleep=*/true);
  Tracer& tr = c->tracer;
  for (;;) {
    const int sl = c->Slice();
    bool progressed = false;
    bool any_active = false;
    int resumed = 0;
    int finished = 0;
    for (auto& sp : ring) {
      Slot& s = *sp;
      if (s.ctx.pending()) {
        if (!s.ctx.ready()) {
          any_active = true;
          continue;
        }
        // Harvesting an instantly rejected (Busy) park is not progress.
        const bool was_busy = s.ctx.parked_busy();
        (void)s.ctx.Harvest();
        if (!was_busy) {
          progressed = true;
          ++resumed;
        }
      } else if (!s.machine->in_flight()) {
        if (sl == kStop) continue;
        s.start_ns = NowNanos();
        s.slice = sl;
        s.child_ns = 0;
        if (c->sched->Traced(sl)) {
          s.root = tr.NewId();
          s.txn = c->NextTxnId();
        }
      }
      const bool traced = c->sched->Traced(s.slice);
      const uint64_t ts = traced ? NowNanos() : 0;
      const Status st = s.machine->Step(c->rng, &s.ctx);
      if (traced) {
        const uint64_t te = NowNanos();
        tr.Record(SpanKind::kStep, ts, te, tr.NewId(), s.root, s.txn);
        s.child_ns += te - ts;
      }
      if (st.IsWouldBlock()) {
        if (s.slice >= 0) ++c->slices[s.slice].parks;
        any_active = true;
        continue;
      }
      progressed = true;
      ++finished;
      const uint64_t end = NowNanos();
      c->Count(s.slice, st, end - s.start_ns);
      if (traced) {
        tr.Record(SpanKind::kTxn, s.start_ns, end, s.root, 0, s.txn,
                  s.child_ns);
      }
    }
    if (sl == kStop && !any_active) break;
    if (resumed == 0 && finished == 0) {
      // Sleep only if the pass made no progress at all: the next state
      // change can then only be a completion firing.
      if (c->sched->Traced(sl)) {
        const uint64_t t0 = NowNanos();
        (void)bm->PumpIo(/*may_sleep=*/!progressed);
        const uint64_t t1 = NowNanos();
        tr.Record(SpanKind::kPump, t0, t1, tr.NewId(), 0, 0);
        c->pump_ns += t1 - t0;
      } else {
        (void)bm->PumpIo(/*may_sleep=*/!progressed);
      }
    }
  }
}

// tpcc: the benchmark draws the transaction type from the standard mix and
// calls the procedure; each procedure runs begin..commit internally.
void TpccClient(TpccWorkload* w, Client* c) {
  const TpccConfig& cfg = w->config();
  const uint32_t pct[kTpccTypes] = {cfg.pct_new_order, cfg.pct_payment,
                                    cfg.pct_order_status, cfg.pct_delivery,
                                    cfg.pct_stock_level};
  for (;;) {
    const int sl = c->Slice();
    if (sl == kStop) break;
    const uint32_t pick = static_cast<uint32_t>(c->rng.NextUint64(100));
    int type = kTpccTypes - 1;
    for (uint32_t acc = 0, i = 0; i < kTpccTypes; ++i) {
      acc += pct[i];
      if (pick < acc) {
        type = static_cast<int>(i);
        break;
      }
    }
    const uint64_t t0 = NowNanos();
    Status st;
    switch (type) {
      case 0: st = w->NewOrder(c->rng); break;
      case 1: st = w->Payment(c->rng); break;
      case 2: st = w->OrderStatus(c->rng); break;
      case 3: st = w->Delivery(c->rng); break;
      default: st = w->StockLevel(c->rng); break;
    }
    const uint64_t t1 = NowNanos();
    const Outcome o = c->Count(sl, st, t1 - t0);
    if (sl >= 0) {
      WindowStats& ws = c->slices[sl];
      ++ws.tpcc_attempted[type];
      if (o == kAborted) ++ws.tpcc_aborted[type];
      // NewOrder, Payment and Delivery write; the other two are read-only.
      if (o == kOk && type != 2 && type != 4) ++ws.tpcc_writing_commits;
    }
    if (c->sched->Traced(sl)) {
      Tracer& tr = c->tracer;
      const uint32_t root = tr.NewId();
      const uint64_t id = c->NextTxnId();
      tr.Record(kTpccSpan[type], t0, t1, tr.NewId(), root, id);
      tr.Record(SpanKind::kTxn, t0, t1, root, 0, id, t1 - t0);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

struct Counters {
  BufferStatsSnapshot buf;
  uint64_t io_read_ops = 0, io_reads_deduped = 0, io_write_ops = 0,
           io_writes_staged = 0, io_writes_coalesced = 0;
  uint64_t ssd_read_bytes = 0, ssd_write_bytes = 0;
  uint64_t nvm_read_bytes = 0, nvm_media_write_bytes = 0;
  uint64_t log_ssd_write_bytes = 0;
  uint64_t log_lsn = 0, log_generation = 0;

  static Counters Take(Database* db) {
    Counters c;
    spitfire::BufferManager* bm = db->buffer_manager();
    c.buf = bm->stats().Snapshot();
    if (spitfire::IoScheduler* io = bm->io_scheduler()) {
      auto& s = io->stats();
      c.io_read_ops = s.read_ops.load();
      c.io_reads_deduped = s.reads_deduped.load();
      c.io_write_ops = s.write_ops.load();
      c.io_writes_staged = s.writes_staged.load();
      c.io_writes_coalesced = s.writes_coalesced.load();
    }
    const spitfire::DatabaseEnv& env = db->env();
    c.ssd_read_bytes = env.db_ssd->stats().bytes_read.load();
    c.ssd_write_bytes = env.db_ssd->stats().bytes_written.load();
    if (env.nvm != nullptr) {
      c.nvm_read_bytes = env.nvm->stats().bytes_read.load();
      c.nvm_media_write_bytes = env.nvm->stats().media_bytes_written.load();
    }
    if (env.log_ssd != nullptr) {
      c.log_ssd_write_bytes = env.log_ssd->stats().bytes_written.load();
    }
    if (spitfire::LogManager* lm = db->log_manager()) {
      c.log_lsn = lm->next_lsn();
      c.log_generation = lm->durable_generation();
    }
    return c;
  }
};

// ---------------------------------------------------------------------------
// Output checks (run on the quiesced database)
// ---------------------------------------------------------------------------

bool CheckOutputs(const Spec& spec, Instance* in, std::string* why) {
  Database* db = in->db.get();
  Status st = db->buffer_manager()->DrainIo();
  if (!st.ok()) {
    *why = "DrainIo: " + st.ToString();
    return false;
  }
  st = db->CheckIntegrity(why);
  if (!st.ok()) {
    *why = "CheckIntegrity: " + st.ToString();
    return false;
  }
  if (in->ycsb != nullptr) {
    auto n = in->ycsb->table()->index()->Count();
    if (!n.ok() || n.value() != spec.ycsb.num_tuples) {
      *why = "index Count() = " +
             (n.ok() ? std::to_string(n.value()) : n.status().ToString()) +
             ", loaded " + std::to_string(spec.ycsb.num_tuples);
      return false;
    }
    return true;
  }
  // TPC-C money conservation: W.ytd == sum of its districts' ytd.
  auto txn = db->Begin();
  for (uint32_t w = 1; w <= spec.tpcc.num_warehouses; ++w) {
    TpccWorkload::WarehouseTuple wt{};
    st = db->GetTable(TpccWorkload::kWarehouse)
             ->Read(txn.get(), TpccWorkload::WarehouseKey(w), &wt);
    double districts = 0;
    for (uint32_t d = 1; st.ok() && d <= spec.tpcc.districts_per_warehouse;
         ++d) {
      TpccWorkload::DistrictTuple dt{};
      st = db->GetTable(TpccWorkload::kDistrict)
               ->Read(txn.get(), TpccWorkload::DistrictKey(w, d), &dt);
      districts += dt.ytd;
    }
    if (!st.ok()) {
      (void)db->Abort(txn.get());
      *why = "reading warehouse " + std::to_string(w) + ": " + st.ToString();
      return false;
    }
    if (std::abs(wt.ytd - districts) > 1e-9 * std::max(1.0, wt.ytd)) {
      (void)db->Abort(txn.get());
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "warehouse %u: W.ytd=%.6f but sum(D.ytd)=%.6f", w, wt.ytd,
                    districts);
      *why = buf;
      return false;
    }
  }
  st = db->Commit(txn.get());
  if (!st.ok()) *why = "check commit: " + st.ToString();
  return st.ok();
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           uint64_t samples = 0) {
    if (!std::isfinite(value)) value = 0;
    items_.push_back({name, value, unit, samples});
  }

  void PrintTable() const {
    for (const Item& i : items_) {
      if (i.samples > 0) {
        std::printf("%-34s %18.6f %-6s (n=%llu)\n", i.name.c_str(), i.value,
                    i.unit, static_cast<unsigned long long>(i.samples));
      } else {
        std::printf("%-34s %18.6f %s\n", i.name.c_str(), i.value, i.unit);
      }
    }
  }

  std::string MetricsJson() const {
    std::string out = "{";
    char buf[256];
    for (size_t k = 0; k < items_.size(); ++k) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    k > 0 ? ", " : "", items_[k].name.c_str(), items_[k].value,
                    items_[k].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
    uint64_t samples;
  };
  std::vector<Item> items_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a->seconds >= 0.5 &&
         a->seconds <= 600 && !a->workload.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// What one timed window produced, merged over the clients.
struct WindowResult {
  std::vector<WindowStats> slices;
  std::vector<double> slice_seconds;
  WindowStats win[2];  // untraced, traced
  double mode_seconds[2] = {0, 0};
  WindowStats all;
  Counters before, after;
  std::array<SpanStats, static_cast<size_t>(SpanKind::kNumKinds)> spans;
  uint64_t pump_ns = 0;

  SpanStats& span(SpanKind k) { return spans[static_cast<size_t>(k)]; }
};

struct Probe {
  Samples lookup_ns, fetch_ns;
  uint32_t height = 0;
};

// Single thread, after the timed window: BTree::Lookup -> RidPage ->
// BufferManager::FetchPage over keys of the workload's distribution.
Probe RunProbe(const Spec& spec, Instance* in, uint64_t seed) {
  Probe p;
  Database* db = in->db.get();
  spitfire::BTree* index = spec.kind == Kind::kTpcc
                               ? db->GetTable(TpccWorkload::kStock)->index()
                               : in->ycsb->table()->index();
  p.height = index->height();
  Xoshiro256 rng(seed ^ 0x5052'4F42'4500'0000ULL);
  for (int i = 0; i < kProbeLookups; ++i) {
    const uint64_t key =
        spec.kind == Kind::kTpcc
            ? TpccWorkload::StockKey(
                  1 + static_cast<uint32_t>(
                          rng.NextUint64(spec.tpcc.num_warehouses)),
                  1 + static_cast<uint32_t>(
                          rng.NextUint64(spec.tpcc.num_items)))
            : in->ycsb->SampleKey(rng);
    uint64_t rid = 0;
    const uint64_t t0 = NowNanos();
    const Status st = index->Lookup(key, &rid);
    const uint64_t t1 = NowNanos();
    if (!st.ok()) continue;
    p.lookup_ns.Add(t1 - t0);
    auto g = db->buffer_manager()->FetchPage(spitfire::RidPage(rid),
                                             spitfire::AccessIntent::kRead);
    const uint64_t t2 = NowNanos();
    if (g.ok()) p.fetch_ns.Add(t2 - t1);
  }
  return p;
}

// --trace 0: the end-to-end metrics of the untraced slices.
void AddEndToEnd(WindowResult* res, const std::vector<double>& setup_s,
                 Report* r) {
  const WindowStats& w = res->win[0];
  // Each slice gives a throughput and commit percentiles; the medians over
  // slices are robust to a stall confined to one slice.
  std::vector<double> tps, p50, p99;
  uint64_t min_n = UINT64_MAX;
  for (size_t i = 0; i < res->slices.size(); ++i) {
    WindowStats& s = res->slices[i];
    tps.push_back(Ratio(static_cast<double>(s.ok), res->slice_seconds[i]));
    p50.push_back(s.commit_ns.Percentile(50) * 1e-3);
    p99.push_back(s.commit_ns.Percentile(99) * 1e-3);
    min_n = std::min(min_n, s.commit_ns.count());
  }
  std::printf("# slices tx_per_s:");
  for (const double v : tps) std::printf(" %.0f", v);
  std::printf("\n# slices commit_p99_us:");
  for (const double v : p99) std::printf(" %.1f", v);
  std::printf("\n");
  r->Add("tx_per_s", Median(tps), "1/s", w.ok);
  r->Add("commit_p50_us", Median(p50), "us", min_n);
  r->Add("commit_p99_us", Median(p99), "us", min_n);
  r->Add("commit_ratio", Ratio(static_cast<double>(w.ok), w.attempted),
         "ratio");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", Median(setup_s), "s");
  std::printf(
      "# also: abort_rate=%.6f error_rate=%.6f nvm_write_bytes_per_tx=%.3f "
      "attempted=%llu busy=%llu\n",
      Ratio(static_cast<double>(w.aborted), w.attempted),
      Ratio(static_cast<double>(w.busy + w.errors), w.attempted),
      Ratio(static_cast<double>(res->after.nvm_media_write_bytes -
                                res->before.nvm_media_write_bytes),
            static_cast<double>(w.ok)),
      static_cast<unsigned long long>(w.attempted),
      static_cast<unsigned long long>(w.busy));
}

// --trace 1: counter deltas over the whole window per committed
// transaction, span statistics of the traced slices, the probe, the
// tracing overhead and the layer accounting.
void AddPerLayer(const Spec& spec, WindowResult* res, Probe* probe,
                 Report* r) {
  const WindowStats& all = res->all;
  const Counters& before = res->before;
  const Counters& after = res->after;
  const double committed = static_cast<double>(all.ok);
  const auto per_tx = [&](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(a - b), committed);
  };
  const BufferStatsSnapshot& b1 = after.buf;
  const BufferStatsSnapshot& b0 = before.buf;
  const double fetches =
      static_cast<double>(b1.TotalFetches() - b0.TotalFetches());
  // txn / end to end
  r->Add("abort_rate", Ratio(static_cast<double>(all.aborted), all.attempted),
         "ratio");
  r->Add("error_rate",
         Ratio(static_cast<double>(all.busy + all.errors), all.attempted),
         "ratio");
  r->Add("nvm_write_bytes_per_tx",
         per_tx(after.nvm_media_write_bytes, before.nvm_media_write_bytes),
         "B");
  // buffer
  r->Add("buffer.fetch_ns_p50", probe->fetch_ns.Percentile(50), "ns",
         probe->fetch_ns.count());
  r->Add("buffer.fetch_ns_p99", probe->fetch_ns.Percentile(99), "ns",
         probe->fetch_ns.count());
  r->Add("buffer.fetches_per_tx", Ratio(fetches, committed), "count");
  r->Add("buffer.dram_hit_ratio",
         Ratio(static_cast<double>(b1.dram_hits - b0.dram_hits), fetches),
         "ratio");
  r->Add("buffer.nvm_hit_ratio",
         Ratio(static_cast<double>(b1.nvm_hits - b0.nvm_hits), fetches),
         "ratio");
  r->Add("buffer.ssd_fetches_per_tx", per_tx(b1.ssd_fetches, b0.ssd_fetches),
         "count");
  const double joins = static_cast<double>(b1.miss_joins - b0.miss_joins);
  r->Add("buffer.miss_join_ratio",
         Ratio(joins,
               joins + static_cast<double>(b1.miss_submits - b0.miss_submits)),
         "ratio");
  r->Add("buffer.readahead_installs_per_tx",
         per_tx(b1.read_ahead_installs, b0.read_ahead_installs), "count");
  r->Add("buffer.promotions_per_tx", per_tx(b1.promotions, b0.promotions),
         "count");
  r->Add("buffer.nvm_installs_per_tx", per_tx(b1.nvm_installs, b0.nvm_installs),
         "count");
  r->Add("buffer.dram_evictions_per_tx",
         per_tx(b1.dram_evictions, b0.dram_evictions), "count");
  r->Add("buffer.nvm_evictions_per_tx",
         per_tx(b1.nvm_evictions, b0.nvm_evictions), "count");
  // index
  r->Add("index.lookup_ns_p50", probe->lookup_ns.Percentile(50), "ns",
         probe->lookup_ns.count());
  r->Add("index.lookup_ns_p99", probe->lookup_ns.Percentile(99), "ns",
         probe->lookup_ns.count());
  r->Add("index.height", probe->height, "count");
  // db / txn spans (traced slices)
  Samples& begin = res->span(SpanKind::kBegin).duration;
  Samples& read = res->span(SpanKind::kRead).duration;
  Samples& commit = res->span(SpanKind::kCommit).duration;
  r->Add("db.begin_ns_p50", begin.Percentile(50), "ns", begin.count());
  r->Add("db.read_us_p50", read.Percentile(50) * 1e-3, "us", read.count());
  r->Add("db.read_us_p99", read.Percentile(99) * 1e-3, "us", read.count());
  r->Add("db.commit_ns_p50", commit.Percentile(50), "ns", commit.count());
  static const char* const kTpccNames[kTpccTypes] = {
      "new_order", "payment", "order_status", "delivery", "stock_level"};
  for (int t = 0; t < kTpccTypes; ++t) {
    Samples& d = res->span(kTpccSpan[t]).duration;
    const std::string name = std::string("tpcc.") + kTpccNames[t];
    r->Add(name + "_us_p50", d.Percentile(50) * 1e-3, "us", d.count());
    if (t >= 2) continue;  // tails and aborts of NewOrder and Payment only
    r->Add(name + "_us_p99", d.Percentile(99) * 1e-3, "us", d.count());
    r->Add(name + "_abort_rate",
           Ratio(static_cast<double>(all.tpcc_aborted[t]),
                 all.tpcc_attempted[t]),
           "ratio", all.tpcc_attempted[t]);
  }
  // wal
  r->Add("wal.log_bytes_per_tx", per_tx(after.log_lsn, before.log_lsn), "B");
  // Writing commits are known where the benchmark issues the writes
  // itself (tpcc; ycsb-hot has none). YcsbTxnMachine hides its
  // read/update choice, so ycsb-spill reports 0 here.
  const double writing = spec.kind == Kind::kTpcc
                             ? static_cast<double>(all.tpcc_writing_commits)
                             : 0.0;
  r->Add("wal.commits_per_group",
         Ratio(writing,
               static_cast<double>(after.log_generation -
                                   before.log_generation)),
         "count");
  r->Add("wal.groups_per_tx",
         per_tx(after.log_generation, before.log_generation), "count");
  r->Add("wal.log_ssd_write_bytes_per_tx",
         per_tx(after.log_ssd_write_bytes, before.log_ssd_write_bytes), "B");
  // storage
  r->Add("io.read_ops_per_tx", per_tx(after.io_read_ops, before.io_read_ops),
         "count");
  const double deduped =
      static_cast<double>(after.io_reads_deduped - before.io_reads_deduped);
  r->Add("io.dedup_ratio",
         Ratio(deduped, deduped + static_cast<double>(after.io_read_ops -
                                                      before.io_read_ops)),
         "ratio");
  r->Add("io.write_ops_per_tx", per_tx(after.io_write_ops, before.io_write_ops),
         "count");
  r->Add("io.coalesce_ratio",
         Ratio(static_cast<double>(after.io_writes_coalesced -
                                   before.io_writes_coalesced),
               static_cast<double>(after.io_writes_staged -
                                   before.io_writes_staged)),
         "ratio");
  r->Add("ssd.read_bytes_per_tx",
         per_tx(after.ssd_read_bytes, before.ssd_read_bytes), "B");
  r->Add("ssd.write_bytes_per_tx",
         per_tx(after.ssd_write_bytes, before.ssd_write_bytes), "B");
  r->Add("nvm.read_bytes_per_tx",
         per_tx(after.nvm_read_bytes, before.nvm_read_bytes), "B");
  // executor
  r->Add("exec.parks_per_tx", Ratio(static_cast<double>(all.parks), committed),
         "count");
  Samples& step = res->span(SpanKind::kStep).duration;
  r->Add("exec.step_us_p50", step.Percentile(50) * 1e-3, "us", step.count());
  r->Add("exec.pump_share",
         Ratio(static_cast<double>(res->pump_ns) * 1e-9,
               res->mode_seconds[1] * kClients),
         "ratio");
  // tracing overhead and layer accounting
  const double tps_untraced =
      Ratio(static_cast<double>(res->win[0].ok), res->mode_seconds[0]);
  const double tps_traced =
      Ratio(static_cast<double>(res->win[1].ok), res->mode_seconds[1]);
  r->Add("trace.tx_per_s_untraced", tps_untraced, "1/s", res->win[0].ok);
  r->Add("trace.tx_per_s_traced", tps_traced, "1/s", res->win[1].ok);
  r->Add("trace.overhead", Ratio(tps_untraced - tps_traced, tps_untraced),
         "ratio");
  // The untraced mean commit latency against the sum, over the spans the
  // benchmark put around engine calls in the traced slices, of calls per
  // committed transaction times mean self time.
  const double traced_committed = static_cast<double>(res->win[1].ok);
  const double mean_commit_us = res->win[0].commit_ns.Mean() * 1e-3;
  double layer_sum_us = 0;
  for (size_t k = 0; k < res->spans.size(); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    if (kind == SpanKind::kTxn || kind == SpanKind::kPump) continue;
    layer_sum_us += Ratio(static_cast<double>(res->spans[k].self_ns) * 1e-3,
                          traced_committed);
  }
  r->Add("acct.mean_commit_us", mean_commit_us, "us",
         res->win[0].commit_ns.count());
  r->Add("acct.layer_sum_us", layer_sum_us, "us");
  r->Add("acct.gap_us", mean_commit_us - layer_sum_us, "us");
  r->Add("acct.gap_share", Ratio(mean_commit_us - layer_sum_us, mean_commit_us),
         "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  Spec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ycsb-hot|ycsb-spill|tpcc "
                 "--seed N --seconds S [--trace 0|1] [--spans PATH]\n");
    return 2;
  }
  LatencySimulator::SetScale(1.0);  // unscaled Table 1 device latencies

  // --- setup, several times; the last instance is measured ---
  std::vector<double> setup_s;
  Instance in;
  for (int i = 0; i < kSetups; ++i) {
    in.ycsb.reset();  // workloads before the database they point into
    in.tpcc.reset();
    in.db.reset();
    const uint64_t t0 = NowNanos();
    const Status st = Setup(spec, &in);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup of %s failed: %s\n", spec.name,
                   st.ToString().c_str());
      return 1;
    }
  }
  Database* db = in.db.get();

  // --- stamp ---
  if (!Optimized() || Sanitized()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: unoptimized or sanitized build; "
                 "timings are not comparable\n");
  }
  std::printf(
      "# host {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"optimized\": %s, \"sanitized\": %s}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      Optimized() ? "true" : "false", Sanitized() ? "true" : "false");
  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %d, \"ring_depth\": %d, \"shards\": %zu, "
      "\"latency_scale\": %g, \"dram_frames\": %zu, \"nvm_frames\": %zu, "
      "\"policy\": \"%s\", \"setups\": %d}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kClients, spec.ring_depth,
      db->buffer_manager()->num_shards(), LatencySimulator::scale(),
      spec.opts.dram_frames, spec.opts.nvm_frames,
      spec.opts.policy.ToString().c_str(), kSetups);
  std::fflush(stdout);

  // --- timed window ---
  // --trace 0: untraced slices of kSliceSeconds; the end-to-end metrics
  // are medians over them. --trace 1: untraced / traced / traced /
  // untraced quarters, so drift cancels between the two modes.
  Schedule sched;
  if (args.trace) {
    sched.traced = {0, 1, 1, 0};
  } else {
    const long n = std::max(1L, std::lround(args.seconds / kSliceSeconds));
    sched.traced.assign(static_cast<size_t>(n), 0);
  }
  const size_t num_slices = sched.traced.size();
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(i, args.seed, &sched));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    Client* c = clients[static_cast<size_t>(i)].get();
    threads.emplace_back([&, c] {
      switch (spec.kind) {
        case Kind::kYcsbHot: HotClient(in.ycsb.get(), c); break;
        case Kind::kYcsbSpill:
          RingClient(in.ycsb.get(), spec.ring_depth, c);
          break;
        case Kind::kTpcc: TpccClient(in.tpcc.get(), c); break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  WindowResult res;
  res.slice_seconds.resize(num_slices);
  res.before = Counters::Take(db);
  uint64_t t = NowNanos();
  for (size_t i = 0; i < num_slices; ++i) {
    sched.slice.store(static_cast<int>(i), std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.seconds / num_slices));
    const uint64_t now = NowNanos();
    res.slice_seconds[i] = static_cast<double>(now - t) * 1e-9;
    t = now;
  }
  sched.slice.store(kStop, std::memory_order_release);
  res.after = Counters::Take(db);
  for (auto& th : threads) th.join();

  res.slices.resize(num_slices);
  std::string first_error;
  for (size_t i = 0; i < num_slices; ++i) {
    for (const auto& c : clients) res.slices[i].Merge(c->slices[i]);
    const int traced = sched.traced[i] != 0 ? 1 : 0;
    res.win[traced].Merge(res.slices[i]);
    res.mode_seconds[traced] += res.slice_seconds[i];
  }
  for (const auto& c : clients) {
    if (first_error.empty()) first_error = c->first_error;
    for (size_t k = 0; k < res.spans.size(); ++k) {
      res.spans[k].Merge(c->tracer.stats()[k]);
    }
    res.pump_ns += c->pump_ns;
  }
  res.all = res.win[0];
  res.all.Merge(res.win[1]);

  Probe probe;
  if (args.trace) probe = RunProbe(spec, &in, args.seed);

  // --- output checks, with device delays off: they are not measured ---
  LatencySimulator::SetScale(0.0);
  std::string why;
  const bool correct = CheckOutputs(spec, &in, &why);
  LatencySimulator::SetScale(1.0);
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: output check FAILED for workload %s seed %llu: "
                 "%s\n",
                 spec.name, static_cast<unsigned long long>(args.seed),
                 why.c_str());
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: first unexpected status: %s\n",
                 first_error.c_str());
  }

  // --- metrics ---
  Report r;
  if (!args.trace) {
    AddEndToEnd(&res, setup_s, &r);
  } else {
    AddPerLayer(spec, &res, &probe, &r);
    if (!args.spans.empty()) {
      std::vector<const Tracer*> tracers;
      for (const auto& c : clients) tracers.push_back(&c->tracer);
      if (!WriteSpans(args.spans.c_str(), tracers)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans.c_str());
      }
    }
  }
  r.PrintTable();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(res.all.attempted),
      static_cast<unsigned long long>(res.all.busy + res.all.errors),
      r.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
