// perfbench — the dynopt end-to-end benchmark.
//
//   perfbench --workload <analytic_warm|dynamic_mix|write_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>] [--trace-out <f>]
//
// Builds its own data from the seed, runs one workload's closed-loop
// client against the engine's public API (Database, Table, CompilePlan /
// RowOperator, DynamicRetrieval) for the given wall time, checks every
// result against the naive oracle after the window, and prints one JSON
// object as the last line of standard output. With --trace 0 it reports
// the end-to-end metrics, its timings scaled to a reference host speed by
// the host probe's median; with --trace 1 it alternates untraced and traced
// slices of the window and reports the per-layer ledger, writing the spans
// it recorded as a Chrome trace. A human-readable report, the coverage
// warnings and any oracle mismatches go to standard error. See README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "harness.h"
#include "oracle.h"
#include "plans.h"

namespace perfbench {
namespace {

using dynopt::Database;
using dynopt::DatabaseOptions;
using dynopt::Status;
using dynopt::Table;
using dynopt::Tactic;

constexpr int kSetupReps = 5;               // setup_s is their median
constexpr int kProbesPerSetup = 10;         // host probes after each set-up
constexpr auto kProbeEvery = std::chrono::milliseconds(50);  // in the window
// End-to-end timings are reported as they would read on a host where the
// probe's median run takes this long (README.md, "Host-speed scaling").
constexpr double kReferenceProbeMicros = 400;
constexpr double kSliceMicros = 500000;     // traced/untraced alternation
constexpr auto kQueryDeadline = std::chrono::seconds(60);
constexpr uint64_t kPageBudget = uint64_t{1} << 60;  // never trips
constexpr size_t kMaxMismatchesShown = 5;

// ------------------------------------------------------------- workloads

enum class WorkloadId { kAnalyticWarm, kDynamicMix, kWriteMix };

/// Cards in a client's op deck below zero are writes.
constexpr int kInsertCard = -1;
constexpr int kDeleteCard = -2;

struct Workload {
  WorkloadId id;
  std::string name;
  size_t rows = 0;
  size_t pool_pages = 0;
  bool file_backed = false;
  size_t warmup_queries = 0;  // per client, untimed, before the window
  std::vector<QueryShape> shapes;
  std::vector<int> op_cards;  // one round of the op deck
};

QueryShape Shape(std::string name, Restriction r, Top top,
                 std::vector<uint32_t> proj) {
  QueryShape s;
  s.name = std::move(name);
  s.restriction = r;
  s.top = top;
  s.projection = std::move(proj);
  if (top == Top::kLimit) s.limit = 10;
  return s;
}

std::vector<int> Cards(std::initializer_list<std::pair<int, int>> counts) {
  std::vector<int> cards;
  for (auto [card, n] : counts) cards.insert(cards.end(), n, card);
  return cards;
}

Workload MakeWorkload(WorkloadId id) {
  const std::vector<uint32_t> wide = {kId, kAge, kIncome, kCity};
  Workload w;
  w.id = id;
  switch (id) {
    case WorkloadId::kAnalyticWarm: {
      // The pool holds the table and every index, warmed during set-up.
      w.name = "analytic_warm";
      w.rows = 200000;
      w.pool_pages = 16384;
      QueryShape sum = Shape("sum", Restriction::kAnalytic, Top::kSum, {kIncome});
      QueryShape sort =
          Shape("sort", Restriction::kAnalytic, Top::kSort, {kId, kIncome});
      sort.column = 1;
      w.shapes = {Shape("count", Restriction::kAnalytic, Top::kCount, {kId}),
                  sum,
                  sort,
                  Shape("distinct", Restriction::kAnalytic, Top::kDistinct, {kCity}),
                  Shape("drain", Restriction::kAnalytic, Top::kNone, wide),
                  Shape("point", Restriction::kId, Top::kNone, wide),
                  Shape("limit", Restriction::kConj, Top::kLimit, wide),
                  Shape("exists", Restriction::kConj, Top::kExists, {kId})};
      // Total-time plans hold nearly all the time. The point and fast-first
      // probes (a few percent of it) give this workload the latency classes
      // of the others, on a fully cached table. The fast-first probes use
      // dynamic_mix's conjunction and widths: under the analytic restriction
      // (or none) 2-3% of fast-first executions take 10-30 ms, a tail too
      // thin for a steady p99.
      w.op_cards = Cards({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1},
                          {5, 40}, {6, 10}, {7, 10}});
      break;
    }
    case WorkloadId::kDynamicMix: {
      // About 8x the data the 1,024-frame pool holds. One client: with two
      // sharing the pool, run-to-run spread of first-row p99 and throughput
      // reached 0.26 on a shared 4-core host, against about 0.1 with one.
      w.name = "dynamic_mix";
      w.rows = 200000;
      w.pool_pages = 1024;
      w.warmup_queries = 1000;
      QueryShape order = Shape("order", Restriction::kConj, Top::kNone, {kId, kIncome});
      order.order_by = kIncome;
      w.shapes = {Shape("point", Restriction::kId, Top::kNone, wide),
                  Shape("limit", Restriction::kConj, Top::kLimit, wide),
                  Shape("exists", Restriction::kConj, Top::kExists, {kId}),
                  order,
                  Shape("drain", Restriction::kConj, Top::kNone, wide),
                  Shape("index_count", Restriction::kAgeIncome, Top::kCount, {kAge})};
      w.op_cards = Cards({{0, 4}, {1, 2}, {2, 1}, {3, 1}, {4, 1}, {5, 1}});
      break;
    }
    case WorkloadId::kWriteMix: {
      w.name = "write_mix";
      w.rows = 50000;
      w.pool_pages = 4096;
      w.file_backed = true;
      w.shapes = {Shape("point", Restriction::kId, Top::kNone, wide),
                  Shape("range", Restriction::kIncome, Top::kNone, wide),
                  Shape("limit", Restriction::kIncome, Top::kLimit, wide)};
      w.op_cards = Cards({{kInsertCard, 9}, {kDeleteCard, 2},
                          {0, 4}, {1, 3}, {2, 2}});
      break;
    }
  }
  return w;
}

/// Host-variable width buckets of a restriction, dealt like the op deck so
/// every run sees each bucket equally often.
std::vector<int> WidthCards(Restriction r) {
  size_t n = 1;
  switch (r) {
    case Restriction::kId:
      return {1, 0, 0, 0, 0, 0, 0, 0};  // card 1: a miss (dynamic_mix only)
    case Restriction::kAnalytic:
      // age width 10..100% (5 steps) x income cap 20, 60, 100%. A coarse
      // grid completes several cycles per run, which steadies the p99.
      n = 5 * 3;
      break;
    case Restriction::kConj:
    case Restriction::kAgeIncome:
      // log2 buckets: age width 2^0..2^6 x income width 2^0..2^14. Wider
      // income ranges would let a few ORDER BY scans dominate a run.
      n = 7 * 15;
      break;
    case Restriction::kIncome:
      n = 10;  // narrow ranges, width 2^0..2^9
      break;
    case Restriction::kAll:
      break;
  }
  std::vector<int> cards(n);
  for (size_t i = 0; i < n; ++i) cards[i] = static_cast<int>(i);
  return cards;
}

Params DrawParams(WorkloadId id, Restriction r, int card, int64_t id_limit,
                  Rng& rng) {
  Params p;
  auto age_range = [&](int64_t width) {
    p.alo = rng.Between(0, kAges - width);
    p.ahi = p.alo + width - 1;
  };
  auto income_range = [&](int64_t width) {
    p.ilo = rng.Between(0, kIncomes - width);
    p.ihi = p.ilo + width - 1;
  };
  auto limit = static_cast<uint64_t>(id_limit);
  switch (r) {
    case Restriction::kId:
      // dynamic_mix misses one lookup in eight beyond the last id;
      // write_mix misses on the rows it deleted.
      p.id = static_cast<int64_t>(rng.Below(limit));
      if (id == WorkloadId::kDynamicMix && card == 1) p.id += id_limit;
      break;
    case Restriction::kAnalytic:
      age_range(10 + (card / 3) * 90 / 4);
      p.imax = kIncomes * (1 + 2 * (card % 3)) / 5 - 1;
      break;
    case Restriction::kConj:
      p.city = static_cast<int>(rng.Below(kCities));
      [[fallthrough]];
    case Restriction::kAgeIncome:
      age_range(int64_t{1} << (card / 15));
      income_range(int64_t{1} << (card % 15));
      break;
    case Restriction::kIncome:
      income_range(int64_t{1} << card);
      break;
    case Restriction::kAll:
      break;
  }
  return p;
}

// ------------------------------------------------------------ the clients

enum class OpKind : uint8_t { kQuery, kInsert, kDelete, kCommit, kCheckpoint };

/// One operation of the timed window, kept for the oracle and latencies.
struct OpRecord {
  OpKind kind = OpKind::kQuery;
  bool ok = true;
  uint8_t shape = 0;
  Tactic tactic = Tactic::kUndecided;
  Params params;
  Row row;                // insert: the row; delete: row.id
  Outcome out;
  double micros = 0;      // Open to last row (writes: the call)
  double first_micros = 0;  // Open to first row at the plan root
  uint64_t engine_rows = 0;
};

/// Span totals from the traced slices, and the slice query counts.
struct LayerAcc {
  double open_us = 0, first_batch_us = 0, drain_us = 0;
  uint64_t engine_rows = 0;
  std::array<double, kStrategies> strategy_us{};
  uint64_t races = 0;
  double race_us = 0;
  uint64_t inserts = 0, deletes = 0, commits = 0, checkpoints = 0;
  double insert_us = 0, delete_us = 0, commit_us = 0, checkpoint_us = 0;
  uint64_t traced_queries = 0, untraced_queries = 0;
};

/// write_mix's mutable table state (one client).
struct WriteState {
  std::vector<dynopt::Rid> rid_of;  // by id
  std::vector<int64_t> live;        // live ids, for uniform delete picks
  int writes_since_commit = 0;
  int commits_since_checkpoint = 0;
  uint64_t user_bytes_inserted = 0;
  // The WAL grows with every commit and empties at each checkpoint, so the
  // space ratio is averaged over samples taken after every commit.
  std::string db_path;  // the WAL lives at db_path + ".wal"
  uint64_t live_bytes = 0;
  std::vector<uint32_t> bytes_of;  // by id
  double space_ratio_sum = 0;
  uint64_t space_samples = 0;
};

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

constexpr int kWritesPerCommit = 20;
constexpr int kCommitsPerCheckpoint = 50;

struct Client {
  Rng rng{0};
  dynopt::ParamMap params;
  std::unique_ptr<dynopt::QueryContext> ctx;
  std::vector<CompiledPlan> plans;
  Deck ops;
  std::vector<Deck> widths;
  std::vector<OpRecord> log;
  LayerAcc acc;
};

struct Run {
  const Workload* w = nullptr;
  Database* db = nullptr;
  Table* table = nullptr;
  WriteState* writes = nullptr;  // write_mix only
  bool trace = false;
  Clock::time_point window_start;
  SpanRecorder* spans = nullptr;
};

bool InTracedSlice(const Run& run, Clock::time_point t) {
  if (!run.trace) return false;
  auto slice = static_cast<int64_t>(MicrosBetween(run.window_start, t) / kSliceMicros);
  return slice % 2 == 1;
}

std::string QueryArgs(const QueryShape& s, const OpRecord& r) {
  std::string args = "\"shape\":\"" + s.name + "\",\"tactic\":\"" +
                     std::string(dynopt::TacticName(r.tactic)) +
                     "\",\"rows\":" + std::to_string(r.engine_rows);
  dynopt::ParamMap bound;
  BindParams(s.restriction, r.params, &bound);
  for (const auto& [name, value] : bound) {
    args += ",\"" + name + "\":\"" + value.ToString() + "\"";
  }
  return args;
}

void RunQuery(const Run& run, Client& c, int shape, const Params& p, bool keep) {
  const QueryShape& s = run.w->shapes[static_cast<size_t>(shape)];
  CompiledPlan& plan = c.plans[static_cast<size_t>(shape)];
  BindParams(s.restriction, p, &c.params);
  c.ctx->SetDeadline(Clock::now() + kQueryDeadline);
  Timing t;
  OpRecord r;
  r.shape = static_cast<uint8_t>(shape);
  r.params = p;
  r.out = Execute(s, plan, &t);
  r.ok = r.out.ok;
  r.micros = MicrosBetween(t.start, t.end);
  r.first_micros = MicrosBetween(t.start, t.first);
  dynopt::DynamicRetrieval* engine = plan.leaf->engine();
  r.tactic = engine->tactic();
  r.engine_rows = engine->rows_delivered();
  if (!keep) return;
  if (InTracedSlice(run, t.start)) {
    LayerAcc& a = c.acc;
    a.traced_queries++;
    a.open_us += MicrosBetween(t.start, t.opened);
    a.first_batch_us += MicrosBetween(t.opened, t.first);
    a.drain_us += MicrosBetween(t.first, t.end);
    a.engine_rows += r.engine_rows;
    ProfileSummary prof = SummarizeProfile(engine);
    for (size_t i = 0; i < kStrategies; ++i) a.strategy_us[i] += prof.strategy_us[i];
    if (prof.raced) {
      a.races++;
      a.race_us += prof.race_us;
    }
    run.spans->Record("query", t.start, t.end, QueryArgs(s, r));
    run.spans->Record("open", t.start, t.opened);
    run.spans->Record("first_batch", t.opened, t.first);
    run.spans->Record("drain", t.first, t.end);
  } else {
    c.acc.untraced_queries++;
  }
  c.log.push_back(std::move(r));
}

/// Times one write-path call and files it in the log and, in a traced
/// slice, in the ledger.
template <typename Fn>
Status TimedWrite(const Run& run, Client& c, OpKind kind, const char* span,
                  OpRecord r, Fn&& call) {
  Clock::time_point start = Clock::now();
  Status st = call();
  Clock::time_point end = Clock::now();
  r.kind = kind;
  r.ok = st.ok();
  r.micros = MicrosBetween(start, end);
  if (InTracedSlice(run, start)) {
    LayerAcc& a = c.acc;
    double us = r.micros;
    switch (kind) {
      case OpKind::kInsert: a.inserts++; a.insert_us += us; break;
      case OpKind::kDelete: a.deletes++; a.delete_us += us; break;
      case OpKind::kCommit: a.commits++; a.commit_us += us; break;
      case OpKind::kCheckpoint: a.checkpoints++; a.checkpoint_us += us; break;
      case OpKind::kQuery: break;
    }
    run.spans->Record(span, start, end);
  }
  c.log.push_back(std::move(r));
  return st;
}

void MaybeCommit(const Run& run, Client& c) {
  WriteState& ws = *run.writes;
  if (++ws.writes_since_commit < kWritesPerCommit) return;
  ws.writes_since_commit = 0;
  TimedWrite(run, c, OpKind::kCommit, "commit", OpRecord(),
             [&] { return run.db->Commit(); });
  ws.space_ratio_sum +=
      static_cast<double>(FileSize(ws.db_path) + FileSize(ws.db_path + ".wal")) /
      static_cast<double>(ws.live_bytes);
  ws.space_samples++;
  if (++ws.commits_since_checkpoint < kCommitsPerCheckpoint) return;
  ws.commits_since_checkpoint = 0;
  TimedWrite(run, c, OpKind::kCheckpoint, "checkpoint", OpRecord(),
             [&] { return run.db->Checkpoint(); });
}

void RunInsert(const Run& run, Client& c) {
  WriteState& ws = *run.writes;
  OpRecord r;
  r.row = RandomRow(static_cast<int64_t>(ws.rid_of.size()), c.rng);
  dynopt::Record record = ToRecord(r.row);
  dynopt::Rid rid;
  Status st = TimedWrite(run, c, OpKind::kInsert, "insert", r, [&] {
    auto res = run.table->Insert(record);
    if (res.ok()) rid = *res;
    return res.ok() ? Status::OK() : res.status();
  });
  // A failed insert still uses up its id, so ids keep matching positions.
  ws.rid_of.push_back(rid);
  ws.bytes_of.push_back(static_cast<uint32_t>(UserBytes(r.row)));
  ws.user_bytes_inserted += ws.bytes_of.back();
  if (st.ok()) {
    ws.live.push_back(r.row.id);
    ws.live_bytes += ws.bytes_of.back();
  }
  MaybeCommit(run, c);
}

void RunDelete(const Run& run, Client& c) {
  WriteState& ws = *run.writes;
  if (ws.live.empty()) return;
  size_t pos = c.rng.Below(ws.live.size());
  int64_t id = ws.live[pos];
  ws.live[pos] = ws.live.back();
  ws.live.pop_back();
  ws.live_bytes -= ws.bytes_of[static_cast<size_t>(id)];
  OpRecord r;
  r.row.id = id;
  dynopt::Rid rid = ws.rid_of[static_cast<size_t>(id)];
  TimedWrite(run, c, OpKind::kDelete, "delete", r,
             [&] { return run.table->Delete(rid); });
  MaybeCommit(run, c);
}

/// Draws and runs the client's next operation. `keep` false runs it without
/// recording (warm-up).
void Step(const Run& run, Client& c, bool keep) {
  int card = c.ops.Draw(c.rng);
  if (card == kInsertCard) return RunInsert(run, c);
  if (card == kDeleteCard) return RunDelete(run, c);
  Restriction r = run.w->shapes[static_cast<size_t>(card)].restriction;
  int width = c.widths[static_cast<size_t>(card)].Draw(c.rng);
  int64_t id_limit = run.writes != nullptr
                         ? static_cast<int64_t>(run.writes->rid_of.size())
                         : static_cast<int64_t>(run.w->rows);
  Params p = DrawParams(run.w->id, r, width, id_limit, c.rng);
  RunQuery(run, c, card, p, keep);
}

Status InitClient(const Run& run, uint64_t seed, Client* c) {
  c->rng = Rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(run.w->id) * 977 + 1);
  dynopt::QueryGovernanceOptions gov;
  gov.budgets.max_pages_read = kPageBudget;
  c->ctx = run.db->NewQueryContext(gov);
  c->ops = Deck(run.w->op_cards);
  for (const QueryShape& s : run.w->shapes) {
    c->widths.emplace_back(WidthCards(s.restriction));
    auto plan = CompileShape(run.db, run.table, s, &c->params, c->ctx.get());
    if (!plan.ok()) return plan.status();
    c->plans.push_back(std::move(*plan));
  }
  return Status::OK();
}

// ----------------------------------------------------------------- set-up

struct Built {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  std::vector<dynopt::Rid> rids;
  std::string dir;  // file-backed only
};

const std::vector<std::pair<std::string, std::vector<std::string>>>& Indexes() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>> k = {
      {"by_id", {"id"}},
      {"by_age", {"age"}},
      {"by_income", {"income"}},
      {"by_city", {"city"}},
      {"by_age_income", {"age", "income"}}};
  return k;
}

/// analytic_warm's warm-up: every total-time shape once over the whole
/// table, so the window starts with the working set cached.
Status WarmCache(const Workload& w, Database* db, Table* table) {
  dynopt::ParamMap params;
  Params full;
  full.alo = 0;
  full.ahi = kAges - 1;
  full.imax = kIncomes - 1;
  for (const QueryShape& s : w.shapes) {
    if (s.restriction != Restriction::kAnalytic) continue;
    auto plan = CompileShape(db, table, s, &params, nullptr);
    if (!plan.ok()) return plan.status();
    BindParams(s.restriction, full, &params);
    Timing t;
    if (!Execute(s, *plan, &t).ok) return Status::Internal("warm-up query failed");
  }
  return Status::OK();
}

dynopt::Result<Built> Build(const Workload& w, const Oracle& oracle,
                            const std::string& dir) {
  Built b;
  DatabaseOptions opts;
  opts.pool_pages = w.pool_pages;
  if (w.file_backed) {
    b.dir = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    opts.path = dir + "/bench.db";
    opts.group_commit = true;
    opts.simulated_fsync_micros = 0;
    auto created = Database::Create(opts);
    if (!created.ok()) return created.status();
    b.db = std::move(*created);
  } else {
    b.db = std::make_unique<Database>(opts);
  }
  auto table = b.db->CreateTable("families", FamiliesSchema());
  if (!table.ok()) return table.status();
  b.table = *table;
  b.rids.reserve(oracle.rows().size());
  for (const Row& row : oracle.rows()) {
    auto rid = b.table->Insert(ToRecord(row));
    if (!rid.ok()) return rid.status();
    b.rids.push_back(*rid);
  }
  for (const auto& [name, cols] : Indexes()) {
    auto idx = b.table->CreateIndex(name, cols);
    if (!idx.ok()) return idx.status();
  }
  if (w.file_backed) {
    DYNOPT_RETURN_IF_ERROR(b.db->Commit());
    DYNOPT_RETURN_IF_ERROR(b.db->Checkpoint());
  }
  if (w.id == WorkloadId::kAnalyticWarm) {
    DYNOPT_RETURN_IF_ERROR(WarmCache(w, b.db.get(), b.table));
  }
  return dynopt::Result<Built>(std::move(b));
}

// ---------------------------------------------------------------- counters

const char* const kCounterNames[] = {
    "buffer_pool.hits",      "buffer_pool.misses",    "buffer_pool.evictions",
    "buffer_pool.writebacks", "btree.descents",       "btree.node_reads",
    "btree.estimates",       "exec.rows_screened",    "exec.records_fetched",
    "exec.batches",          "exec.realloc_count",    "jscan.entries_scanned",
    "jscan.rids_kept",       "jscan.scans_completed", "jscan.scans_discarded",
    "wal.bytes",             "wal.records",           "wal.fsyncs"};

struct Snapshot {
  std::map<std::string, double> counters;
  double physical_reads = 0, logical_reads = 0, key_compares = 0,
         record_evals = 0, rid_ops = 0, cost = 0;
};

Snapshot Take(Database* db) {
  Snapshot s;
  for (const char* name : kCounterNames) {
    s.counters[name] = static_cast<double>(db->metrics()->Value(name));
  }
  const dynopt::CostMeter& m = db->meter();
  s.physical_reads = static_cast<double>(m.physical_reads);
  s.logical_reads = static_cast<double>(m.logical_reads);
  s.key_compares = static_cast<double>(m.key_compares);
  s.record_evals = static_cast<double>(m.record_evals);
  s.rid_ops = static_cast<double>(m.rid_ops);
  s.cost = db->CurrentCost();
  return s;
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }



/// Microseconds of [0, total) that fall in traced (odd) slices.
double TracedMicros(double total) {
  double traced = 0;
  for (double s = kSliceMicros; s < total; s += 2 * kSliceMicros) {
    traced += std::min(kSliceMicros, total - s);
  }
  return traced;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%-36s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-36s %18.6f  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// write_mix's untimed reopen check: Close, Database::Open (WAL replay and
/// verify-on-open), then every acknowledged row must come back exactly and
/// no deleted row may return. Returns an empty string on success.
std::string CheckReopen(Built* b, const Oracle& oracle, const Workload& w) {
  Status st = b->db->Close();
  if (!st.ok()) return "close: " + st.ToString();
  b->db.reset();
  DatabaseOptions opts;
  opts.pool_pages = w.pool_pages;
  opts.path = b->dir + "/bench.db";
  auto reopened = Database::Open(opts);
  if (!reopened.ok()) return "reopen: " + reopened.status().ToString();
  b->db = std::move(*reopened);
  auto table = b->db->GetTable("families");
  if (!table.ok()) return "reopen: " + table.status().ToString();

  QueryShape all = Shape("reopen_scan", Restriction::kAll, Top::kNone,
                         {kId, kAge, kIncome, kCity, kPayload});
  QueryShape point = Shape("reopen_point", Restriction::kId, Top::kNone,
                           {kId, kAge, kIncome, kCity, kPayload});
  dynopt::ParamMap params;
  for (const QueryShape* s : {&all, &point}) {
    auto plan = CompileShape(b->db.get(), *table, *s, &params, nullptr);
    if (!plan.ok()) return "reopen: " + plan.status().ToString();
    if (s == &all) {
      Timing t;
      Outcome got = Execute(all, *plan, &t);
      if (!got.ok) return "reopen scan failed";
      std::string diff = oracle.Check(all, Params(), got);
      if (!diff.empty()) return "after reopen, " + diff;
      continue;
    }
    // Every 97th id through the by_id index, live and deleted alike.
    for (int64_t id = 0; id < static_cast<int64_t>(oracle.rows().size()); id += 97) {
      Params p;
      p.id = id;
      BindParams(Restriction::kId, p, &params);
      Timing t;
      Outcome got = Execute(point, *plan, &t);
      std::string diff = got.ok ? oracle.Check(point, p, got) : "lookup failed";
      if (!diff.empty()) return "after reopen, id " + std::to_string(id) + ": " + diff;
    }
  }
  return {};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <analytic_warm|dynamic_mix|"
                 "write_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scratch <dir>] [--trace-out <file>]\n");
    return 2;
  }
  WorkloadId wid;
  if (args.workload == "analytic_warm") {
    wid = WorkloadId::kAnalyticWarm;
  } else if (args.workload == "dynamic_mix") {
    wid = WorkloadId::kDynamicMix;
  } else if (args.workload == "write_mix") {
    wid = WorkloadId::kWriteMix;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload w = MakeWorkload(wid);

  // The loaded rows: a function of the seed and the workload only.
  Oracle oracle;
  {
    Rng data(args.seed ^ (0xda7a0000ULL + static_cast<uint64_t>(wid)));
    for (size_t i = 0; i < w.rows; ++i) {
      oracle.Add(RandomRow(static_cast<int64_t>(i), data));
    }
  }

  // Set-up, several times; setup_s is the median and the last one is used.
  std::vector<double> setup_s, setup_probe_us;
  HostProbe probe;
  Built built;
  int reps = args.trace ? 1 : kSetupReps;
  std::string dir_base = args.scratch + "/" + w.name + "-" + std::to_string(::getpid());
  for (int rep = 0; rep < reps; ++rep) {
    std::string old_dir = built.dir;
    built = Built();
    if (!old_dir.empty()) std::filesystem::remove_all(old_dir);
    Clock::time_point t0 = Clock::now();
    auto b = Build(w, oracle, dir_base + "-" + std::to_string(rep));
    if (!b.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   b.status().ToString().c_str());
      return 1;
    }
    built = std::move(*b);
    setup_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    for (int i = 0; i < kProbesPerSetup; ++i) setup_probe_us.push_back(probe.Run());
  }
  if (wid != WorkloadId::kWriteMix) oracle.Freeze();

  WriteState writes;
  if (wid == WorkloadId::kWriteMix) {
    writes.rid_of = built.rids;
    writes.db_path = built.dir + "/bench.db";
    for (size_t i = 0; i < built.rids.size(); ++i) {
      writes.live.push_back(static_cast<int64_t>(i));
      writes.bytes_of.push_back(static_cast<uint32_t>(UserBytes(oracle.rows()[i])));
      writes.live_bytes += writes.bytes_of.back();
    }
  }

  Clock::time_point origin = Clock::now();
  SpanRecorder spans(origin);
  Run run;
  run.w = &w;
  run.db = built.db.get();
  run.table = built.table;
  run.writes = wid == WorkloadId::kWriteMix ? &writes : nullptr;
  run.trace = args.trace;
  run.spans = &spans;

  Client client;
  Status compiled = InitClient(run, args.seed, &client);
  if (!compiled.ok()) {
    std::fprintf(stderr, "perfbench: compile failed: %s\n",
                 compiled.ToString().c_str());
    return 1;
  }
  for (size_t q = 0; q < w.warmup_queries; ++q) Step(run, client, false);

  // ---- the timed window
  Snapshot before = Take(run.db);
  run.window_start = Clock::now();
  Clock::time_point deadline =
      run.window_start + std::chrono::microseconds(static_cast<int64_t>(args.seconds * 1e6));
  // The host probe runs every kProbeEvery between operations; the time it
  // takes is left out of the window.
  std::vector<double> window_probe_us;
  double probing_us = 0;
  Clock::time_point next_probe = run.window_start;
  for (Clock::time_point now; (now = Clock::now()) < deadline;) {
    if (now < next_probe) {
      Step(run, client, true);
      continue;
    }
    window_probe_us.push_back(probe.Run());
    next_probe = Clock::now();
    probing_us += MicrosBetween(now, next_probe);
    next_probe += kProbeEvery;
  }
  double window_us = MicrosBetween(run.window_start, Clock::now()) - probing_us;
  Snapshot after = Take(run.db);
  double db_bytes = static_cast<double>(run.db->page_count() * dynopt::kPageSize);

  // ---- correctness, after the window
  uint64_t attempted = 0, failed = 0, queries = 0, mismatches = 0;
  std::map<Tactic, uint64_t> tactics;
  std::vector<double> point_us, first_us, total_us, commit_us;
  uint64_t writes_done = 0;
  const LayerAcc& acc = client.acc;
  auto report_mismatch = [&](const std::string& what) {
    if (mismatches++ < kMaxMismatchesShown) {
      std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
    }
  };
  // write_mix replays its log in order over the oracle's copy, starting
  // from the loaded rows; read-only workloads check against the frozen set.
  for (const OpRecord& r : client.log) {
    attempted++;
    if (!r.ok) failed++;
    switch (r.kind) {
      case OpKind::kInsert:
        oracle.Add(r.row);
        if (!r.ok) oracle.Delete(r.row.id);
        if (r.ok) writes_done++;
        continue;
      case OpKind::kDelete:
        oracle.Delete(r.row.id);
        if (r.ok) writes_done++;
        continue;
      case OpKind::kCommit:
        if (r.ok) commit_us.push_back(r.micros);
        continue;
      case OpKind::kCheckpoint:
        continue;
      case OpKind::kQuery:
        break;
    }
    queries++;
    tactics[r.tactic]++;
    const QueryShape& s = w.shapes[r.shape];
    if (!r.ok) continue;
    std::string diff = oracle.Check(s, r.params, r.out);
    if (!diff.empty()) {
      failed++;
      report_mismatch(diff);
    }
    if (s.restriction == Restriction::kId) {
      point_us.push_back(r.micros);
    } else if (s.top == Top::kLimit || s.top == Top::kExists) {
      first_us.push_back(r.first_micros);
    } else {
      total_us.push_back(r.micros);
    }
  }
  double user_bytes = static_cast<double>(oracle.LiveUserBytes());
  if (wid == WorkloadId::kWriteMix) {
    // Acknowledge the tail, then reopen and compare (untimed).
    attempted++;
    Status st = built.db->Commit();
    std::string diff = st.ok() ? CheckReopen(&built, oracle, w) : st.ToString();
    if (!diff.empty()) {
      failed++;
      report_mismatch(diff);
    }
  }
  // The compiled plans and contexts reference the database: release them
  // first (the logs stay for the report).
  client.plans.clear();
  client.ctx.reset();
  built.db.reset();
  if (!built.dir.empty()) std::filesystem::remove_all(built.dir);

  // ---- coverage
  std::fprintf(stderr, "perfbench: %s seed %llu, %llu queries in %.3f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(queries), window_us / 1e6);
  std::fprintf(stderr, "tactic shares:");
  for (auto [t, n] : tactics) {
    std::fprintf(stderr, " %s=%.4f", std::string(dynopt::TacticName(t)).c_str(),
                 Ratio(static_cast<double>(n), static_cast<double>(queries)));
  }
  std::fprintf(stderr, "\n");
  // Host-speed scaling: set-up and the window each have their own factor.
  double setup_scale = kReferenceProbeMicros / Median(setup_probe_us);
  double scale = kReferenceProbeMicros / Median(window_probe_us);
  std::fprintf(stderr,
               "host probe median: set-up %.3f us, window %.3f us (%zu runs); "
               "timings scaled by %.4f and %.4f\n",
               Median(setup_probe_us), Median(window_probe_us),
               window_probe_us.size(), setup_scale, scale);
  auto delta = [&](const char* name) {
    return after.counters[name] - before.counters[name];
  };
  double hits = delta("buffer_pool.hits"), misses = delta("buffer_pool.misses");
  double hit_ratio = Ratio(hits, hits + misses);
  if (wid == WorkloadId::kDynamicMix) {
    for (Tactic t : {Tactic::kShortcutEmpty, Tactic::kShortcutTiny,
                     Tactic::kBackgroundOnly, Tactic::kFastFirst, Tactic::kSorted,
                     Tactic::kIndexOnly}) {
      if (tactics[t] == 0) {
        std::fprintf(stderr, "perfbench: WARNING dynamic_mix never ran %s\n",
                     std::string(dynopt::TacticName(t)).c_str());
      }
    }
  }
  if (wid == WorkloadId::kAnalyticWarm && hit_ratio < 0.99) {
    std::fprintf(stderr, "perfbench: WARNING analytic_warm pool hit ratio %.4f < 0.99\n",
                 hit_ratio);
  }
  if (wid == WorkloadId::kWriteMix && commit_us.empty()) {
    std::fprintf(stderr, "perfbench: WARNING write_mix committed nothing\n");
  }

  double nq = static_cast<double>(queries);
  double window_s = window_us / 1e6;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s) * setup_scale, "s"},
        {"point_p50_us", Percentile(point_us, 0.5) * scale, "us"},
        {"point_p99_us", Percentile(point_us, 0.99) * scale, "us"},
        {"first_row_p50_us", Percentile(first_us, 0.5) * scale, "us"},
        {"first_row_p95_us", Percentile(first_us, 0.95) * scale, "us"},
        {"total_time_p50_ms", Percentile(total_us, 0.5) / 1e3 * scale, "ms"},
        {"total_time_p95_ms", Percentile(total_us, 0.95) / 1e3 * scale, "ms"},
        {"queries_per_s", nq / window_s / scale, "1/s"},
        {"cost_per_query", Ratio(after.cost - before.cost, nq), "cost"},
        {"bytes_per_user_byte",
         w.file_backed ? Ratio(writes.space_ratio_sum,
                               static_cast<double>(writes.space_samples))
                       : Ratio(db_bytes, user_bytes),
         "ratio"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
    // Not gated (the read-only workloads have no commits), reported here.
    std::fprintf(stderr,
                 "samples: point=%zu first_row=%zu total_time=%zu commits=%zu\n"
                 "commit_p50_us=%.3f commit_p99_us=%.3f writes_per_s=%.3f "
                 "fail_ratio=%.6f\n",
                 point_us.size(), first_us.size(), total_us.size(),
                 commit_us.size(), Percentile(commit_us, 0.5),
                 Percentile(commit_us, 0.99),
                 static_cast<double>(writes_done) / window_s,
                 Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  } else {
    double tq = static_cast<double>(acc.traced_queries);
    metrics.push_back({"core.open_us", Ratio(acc.open_us, tq), "us"});
    metrics.push_back({"core.first_batch_us", Ratio(acc.first_batch_us, tq), "us"});
    metrics.push_back({"core.drain_us", Ratio(acc.drain_us, tq), "us"});
    for (Tactic t : {Tactic::kShortcutEmpty, Tactic::kShortcutTiny,
                     Tactic::kStaticTscan, Tactic::kStaticSscan,
                     Tactic::kBackgroundOnly, Tactic::kFastFirst, Tactic::kSorted,
                     Tactic::kIndexOnly}) {
      metrics.push_back({"core.tactic_share." + std::string(dynopt::TacticName(t)),
                         Ratio(static_cast<double>(tactics[t]), nq), "ratio"});
    }
    for (size_t i = 0; i < kStrategies; ++i) {
      metrics.push_back({std::string("core.strategy_us.") + kStrategyNames[i],
                         Ratio(acc.strategy_us[i], tq), "us"});
    }
    double started = delta("jscan.scans_completed") + delta("jscan.scans_discarded");
    metrics.push_back({"core.jscan_discard_ratio",
                       Ratio(delta("jscan.scans_discarded"), started), "ratio"});
    metrics.push_back({"core.jscan_keep_ratio",
                       Ratio(delta("jscan.rids_kept"), delta("jscan.entries_scanned")),
                       "ratio"});
    metrics.push_back({"competition.race_share",
                       Ratio(static_cast<double>(acc.races), tq), "ratio"});
    metrics.push_back({"competition.race_us",
                       Ratio(acc.race_us, static_cast<double>(acc.races)), "us"});
    double ncommits = static_cast<double>(commit_us.size());
    metrics.push_back({"storage.pool_hit_ratio", hit_ratio, "ratio"});
    metrics.push_back({"storage.misses_per_query", Ratio(misses, nq), "count"});
    metrics.push_back({"storage.evictions_per_query",
                       Ratio(delta("buffer_pool.evictions"), nq), "count"});
    metrics.push_back({"storage.physical_reads_per_query",
                       Ratio(after.physical_reads - before.physical_reads, nq), "count"});
    metrics.push_back({"storage.logical_reads_per_query",
                       Ratio(after.logical_reads - before.logical_reads, nq), "count"});
    metrics.push_back({"storage.writebacks_per_commit",
                       Ratio(delta("buffer_pool.writebacks"), ncommits), "count"});
    metrics.push_back({"index.descents_per_query", Ratio(delta("btree.descents"), nq),
                       "count"});
    metrics.push_back({"index.node_reads_per_query",
                       Ratio(delta("btree.node_reads"), nq), "count"});
    metrics.push_back({"index.estimates_per_query",
                       Ratio(delta("btree.estimates"), nq), "count"});
    metrics.push_back({"index.key_compares_per_query",
                       Ratio(after.key_compares - before.key_compares, nq), "count"});
    double engine_rows = 0;
    for (const OpRecord& r : client.log) engine_rows += static_cast<double>(r.engine_rows);
    metrics.push_back({"exec.rows_screened_per_result",
                       Ratio(delta("exec.rows_screened"), engine_rows), "ratio"});
    metrics.push_back({"exec.records_fetched_per_query",
                       Ratio(delta("exec.records_fetched"), nq), "count"});
    metrics.push_back({"exec.rid_ops_per_query",
                       Ratio(after.rid_ops - before.rid_ops, nq), "count"});
    metrics.push_back({"exec.delivered_ns_per_row",
                       Ratio(acc.drain_us * 1e3, static_cast<double>(acc.engine_rows)),
                       "ns"});
    metrics.push_back({"exec.batches_per_query", Ratio(delta("exec.batches"), nq),
                       "count"});
    metrics.push_back({"exec.realloc_count", delta("exec.realloc_count"), "count"});
    metrics.push_back({"expr.record_evals_per_query",
                       Ratio(after.record_evals - before.record_evals, nq), "count"});
    metrics.push_back({"catalog.insert_us",
                       Ratio(acc.insert_us, static_cast<double>(acc.inserts)), "us"});
    metrics.push_back({"catalog.delete_us",
                       Ratio(acc.delete_us, static_cast<double>(acc.deletes)), "us"});
    metrics.push_back({"durability.commit_us",
                       Ratio(acc.commit_us, static_cast<double>(acc.commits)), "us"});
    metrics.push_back({"durability.wal_bytes_per_user_byte",
                       Ratio(delta("wal.bytes"),
                             static_cast<double>(writes.user_bytes_inserted)),
                       "ratio"});
    metrics.push_back({"durability.wal_records_per_commit",
                       Ratio(delta("wal.records"), ncommits), "count"});
    metrics.push_back({"durability.fsyncs_per_commit",
                       Ratio(delta("wal.fsyncs"), ncommits), "count"});
    metrics.push_back({"durability.checkpoint_ms",
                       Ratio(acc.checkpoint_us / 1e3,
                             static_cast<double>(acc.checkpoints)),
                       "ms"});
    double traced_us = TracedMicros(window_us);
    double traced_qps = Ratio(static_cast<double>(acc.traced_queries), traced_us);
    double untraced_qps =
        Ratio(static_cast<double>(acc.untraced_queries), window_us - traced_us);
    metrics.push_back({"trace_overhead", Ratio(traced_qps, untraced_qps), "ratio"});
    if (!args.trace_out.empty()) {
      std::filesystem::path out(args.trace_out);
      if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
      if (!spans.WriteChromeTrace(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: trace written to %s (%zu spans dropped)\n",
                     args.trace_out.c_str(), spans.dropped());
      }
    }
  }
  bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
