// Query profiling observatory tests: per-query span trees (timings,
// estimated vs actual), EXPLAIN ANALYZE exports, the durable query-class
// ProfileStore (including the Close/Open round trip), live workload
// telemetry, and concurrent profiling under the workload driver (the TSan
// target).

#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/explain.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "exec/operators.h"
#include "exec/query_class.h"
#include "families.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/profile_store.h"
#include "obs/telemetry.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

// ----------------------------------------------------------- span profiles

TEST(ProfileTest, SingleTacticQueryProducesRootAndStrategySpans) {
  Families f(2000);  // no indexes: static tscan
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 20), {0, 1}));
  ASSERT_TRUE(engine.Open({}).ok());
  size_t rows = DrainRids(&engine).size();
  ASSERT_GT(rows, 0u);

  const QueryProfile& p = engine.profile();
  ASSERT_TRUE(p.active());
  const ProfileSpan* root = p.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, SpanKind::kQuery);
  // The tactic is a decision: the event log records it.
  EXPECT_TRUE(engine.events().Contains(TraceEventKind::kTacticChosen,
                                       TacticName(Tactic::kStaticTscan)));
  EXPECT_EQ(root->actual_rows, rows);
  EXPECT_GT(root->elapsed_micros, 0.0);
  EXPECT_GT(root->actual_cost, 0.0);
  // The initial stage left an estimate on the root.
  EXPECT_GE(root->estimated_rows, 0.0);
  EXPECT_GE(root->estimated_cost, 0.0);

  const ProfileSpan* tscan = FindSpan(root, "tscan");
  ASSERT_NE(tscan, nullptr);
  EXPECT_EQ(tscan->kind, SpanKind::kStrategy);
  EXPECT_EQ(tscan->actual_rows, rows);  // every row credited to the scanner
  EXPECT_GT(tscan->actual_cost, 0.0);
  // All strategy time is inside the root's wall time.
  EXPECT_LE(tscan->elapsed_micros, root->elapsed_micros + 1.0);
}

TEST(ProfileTest, CompetitionQueryProfilesBothCompetitorsAndVerdict) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_age_income", {"age", "income"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 40), {1, 2}));
  ASSERT_TRUE(engine.Open({}).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  size_t rows = DrainRids(&engine).size();
  ASSERT_GT(rows, 0u);

  const ProfileSpan* root = engine.profile().root();
  ASSERT_NE(root, nullptr);
  const ProfileSpan* race = FindSpan(root, "race");
  ASSERT_NE(race, nullptr) << engine.profile().RenderTree();
  EXPECT_EQ(race->kind, SpanKind::kCompetition);
  // Both competitors hang under the competition node.
  ASSERT_EQ(race->children.size(), 2u);
  EXPECT_NE(FindSpan(race, "sscan"), nullptr);
  EXPECT_NE(FindSpan(race, "jscan"), nullptr);

  // The verdict is a decision: the event log records it, and the sample
  // holds the last one with the costs it settled on.
  const CompetitionSample* sample = engine.competition_sample();
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->tactic, Tactic::kIndexOnly);
  EXPECT_TRUE(SawVerdict(engine, sample->verdict)) << engine.events().ToJson();
  EXPECT_FALSE(sample->winner().empty());

  // So are the Jscan's per-index outcomes: one event per index it
  // completed, discarded or skipped, with its entries and kept RIDs.
  ExpectJscanEventsMatchCounters(engine, &f.db);
}

TEST(ProfileTest, ProfilingOffCostsNoSpansAndChangesNothing) {
  Families on(3000);
  Families off(3000);
  on.Index("by_age", {"age"});
  off.Index("by_age", {"age"});
  RetrievalOptions opts;
  opts.profile = false;
  DynamicRetrieval e_on(&on.db, on.Spec(AgeBetween(10, 15), {0, 3}));
  DynamicRetrieval e_off(&off.db, off.Spec(AgeBetween(10, 15), {0, 3}), opts);
  ASSERT_TRUE(e_on.Open({}).ok());
  ASSERT_TRUE(e_off.Open({}).ok());
  EXPECT_EQ(e_on.tactic(), e_off.tactic());
  EXPECT_EQ(DrainRids(&e_on).size(), DrainRids(&e_off).size());

  EXPECT_TRUE(e_on.profile().active());
  EXPECT_FALSE(e_off.profile().active());
  EXPECT_EQ(e_off.profile().span_count(), 0u);
  EXPECT_TRUE(e_off.query_class().empty());
  EXPECT_EQ(e_off.competition_sample(), nullptr);
  // ExplainAnalyze still renders (sans profile section).
  std::string report = ExplainAnalyze(e_off);
  EXPECT_EQ(report.find("profile:"), std::string::npos);
}

TEST(ProfileTest, ReopenResetsTheProfile) {
  Families f(2000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ASSERT_TRUE(engine.Open({}).ok());
  DrainRids(&engine);
  double first_elapsed = engine.profile().root()->elapsed_micros;
  EXPECT_GT(first_elapsed, 0.0);

  ASSERT_TRUE(engine.Open({}).ok());
  // Fresh profile: no rows delivered yet, elapsed restarts.
  EXPECT_EQ(engine.profile().root()->actual_rows, 0u);
  size_t rows = DrainRids(&engine).size();
  EXPECT_EQ(engine.profile().root()->actual_rows, rows);
}

// ------------------------------------------------------------- explain/json

TEST(ExplainAnalyzeTest, ReportShowsTimingsEstimatesAndCompetition) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_age_income", {"age", "income"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 40), {1, 2}));
  ASSERT_TRUE(engine.Open({}).ok());
  DrainRids(&engine);

  std::string report = ExplainAnalyze(engine, f.db.cost_weights());
  EXPECT_NE(report.find("profile:"), std::string::npos);
  EXPECT_NE(report.find("us "), std::string::npos);  // per-span timings
  EXPECT_NE(report.find("rows="), std::string::npos);
  EXPECT_NE(report.find("est_rows="), std::string::npos);
  EXPECT_NE(report.find("competition: winner="), std::string::npos);
  EXPECT_NE(report.find("query class: "), std::string::npos);

  std::string json = ExplainAnalyzeJson(engine, f.db.cost_weights());
  EXPECT_NE(json.find("\"execution\""), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"competition\""), std::string::npos);
  EXPECT_NE(json.find("\"query_class\""), std::string::npos);
  EXPECT_NE(json.find("\"estimated_rows\""), std::string::npos);
  EXPECT_NE(json.find("\"actual_rows\""), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"winner\""), std::string::npos);
}

TEST(ExplainAnalyzeTest, MidFlightExplainFinalizesAbandonedExecution) {
  Families f(5000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(0, 99), {0, 1}));
  ASSERT_TRUE(engine.Open({}).ok());
  RowBatch batch;
  auto more = engine.NextBatch(&batch, 1);  // deliver one row, abandon the rest
  ASSERT_TRUE(more.ok() && *more);

  std::string report = ExplainAnalyze(engine, f.db.cost_weights());
  EXPECT_NE(report.find("profile:"), std::string::npos);
  EXPECT_EQ(engine.profile().root()->actual_rows, 1u);
}

// -------------------------------------------------------------- plan wiring

TEST(PlanProfilingTest, BareRetrieveLeafStaysDowncastable) {
  Families f(2000);
  f.Index("by_age", {"age"});
  auto plan = PlanNode::Retrieve(f.Spec(AgeBetween(10, 15), {0, 1}));
  ParamMap params;
  auto op = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(op.ok()) << op.status();
  // The retrieval leaf is never wrapped: plan roots that are bare
  // retrievals keep downcasting (the governance tests rely on it).
  auto* leaf = dynamic_cast<DynamicRetrievalOperator*>(op->get());
  ASSERT_NE(leaf, nullptr);
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    auto more = (*op)->NextBatch(&rows);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  ASSERT_GT(rows.size(), 0u);
  EXPECT_TRUE(leaf->engine()->profile().active());
}

TEST(PlanProfilingTest, OperatorSpansNestAboveTheLeaf) {
  Families f(2000);
  f.Index("by_age", {"age"});
  auto plan = PlanNode::Sort(
      PlanNode::Retrieve(f.Spec(AgeBetween(10, 30), {1, 0})), 1);
  ParamMap params;
  auto op = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(op.ok()) << op.status();
  // The root is the sort's profiling wrapper.
  auto* wrapper = dynamic_cast<ProfilingOperator*>(op->get());
  ASSERT_NE(wrapper, nullptr);
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    auto more = (*op)->NextBatch(&rows);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
  }
  ASSERT_GT(rows.size(), 0u);
}

TEST(PlanProfilingTest, ProfilingOperatorRegistersSpanWithRowCount) {
  QueryProfile profile;
  profile.Begin("query");
  std::vector<std::vector<Value>> rows = {{Value(int64_t{1})},
                                          {Value(int64_t{2})},
                                          {Value(int64_t{3})}};
  auto source = std::make_unique<VectorSourceOperator>(rows);
  ProfilingOperator op(std::move(source), "limit", &profile);
  ASSERT_TRUE(op.Open().ok());
  std::vector<std::vector<Value>> out;
  for (;;) {
    auto more = op.NextBatch(&out, 1);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_EQ(out.size(), 3u);
  const ProfileSpan* span = FindSpan(profile.root(), "limit");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->kind, SpanKind::kOperator);
  EXPECT_EQ(span->actual_rows, 3u);
  EXPECT_GE(span->elapsed_micros, 0.0);
}

// ------------------------------------------------------------- query classes

TEST(QueryClassTest, LiteralsStripButParamMagnitudesBucket) {
  Families f(100);
  RetrievalSpec narrow = f.Spec(AgeBetween(10, 20), {0, 1});
  RetrievalSpec wide = f.Spec(AgeBetween(40, 90), {0, 1});
  // Literal constants strip to "?": same shape, same class prefix.
  EXPECT_EQ(QueryClassPrefix(narrow), QueryClassPrefix(wide));

  RetrievalSpec param = f.Spec(
      Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
      {0, 1});
  ParamMap small{{"lo", Value(int64_t{20})}, {"hi", Value(int64_t{25})}};
  ParamMap near_small{{"lo", Value(int64_t{17})}, {"hi", Value(int64_t{28})}};
  ParamMap huge{{"lo", Value(int64_t{20})}, {"hi", Value(int64_t{100000})}};
  // Same magnitude bucket folds together; a different magnitude is a
  // different workload, hence a different class.
  EXPECT_EQ(QueryClassOf(param, small), QueryClassOf(param, near_small));
  EXPECT_NE(QueryClassOf(param, small), QueryClassOf(param, huge));
  // Host-variable names are part of the query's identity.
  EXPECT_NE(QueryClassPrefix(param), QueryClassPrefix(narrow));
}

TEST(ProfileStoreTest, EngineDepositsSamplesUnderItsClass) {
  Families f(3000);
  f.Index("by_age", {"age"});
  ProfileStore* store = f.db.profiles();
  ASSERT_NE(store, nullptr);

  RetrievalSpec spec = f.Spec(
      Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
      {0, 1});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap p1{{"lo", Value(int64_t{10})}, {"hi", Value(int64_t{20})}};
  ParamMap p2{{"lo", Value(int64_t{12})}, {"hi", Value(int64_t{22})}};
  ASSERT_TRUE(engine.Open(p1).ok());
  size_t rows1 = DrainRids(&engine).size();
  // One sample per completed execution; a NextBatch past the end adds none.
  RowBatch batch;
  auto more = engine.NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  auto first = store->Find(engine.query_class());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->executions, 1u);
  EXPECT_DOUBLE_EQ(first->rows_q_error_sum,
                   QError(engine.predicted_rows(), static_cast<double>(rows1)));
  EXPECT_GT(first->total_cost, 0.0);
  // A fresh Open deposits one more.
  ASSERT_TRUE(engine.Open(p2).ok());
  size_t rows2 = DrainRids(&engine).size();

  // Same magnitude buckets: both executions fold into one class.
  ASSERT_EQ(store->size(), 1u);
  std::string cls = engine.query_class();
  auto agg = store->Find(cls);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->executions, 2u);
  EXPECT_GT(agg->latency_sum_micros, 0.0);
  EXPECT_GE(agg->total_rows, static_cast<double>(rows1));
  EXPECT_EQ(agg->total_rows, static_cast<double>(rows1 + rows2));
  EXPECT_GE(agg->rows_q_error_max, 1.0);
  ASSERT_EQ(agg->plan_counts.size(), 1u);  // same tactic both runs
  EXPECT_EQ(agg->plan_counts.begin()->first, TacticName(engine.tactic()));
  EXPECT_EQ(agg->plan_counts.begin()->second, 2u);
  EXPECT_GE(agg->LatencyPercentile(0.99), agg->LatencyPercentile(0.50));
}

// An unrestricted retrieval is a class of its own, keyed by TRUE's shape.
TEST(ProfileStoreTest, UnrestrictedRetrievalDepositsUnderItsClass) {
  Families f(2000);
  ProfileStore* store = f.db.profiles();
  ASSERT_NE(store, nullptr);
  RetrievalSpec spec = f.Spec(nullptr, {0, 2});
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open({}).ok());
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec));
  ASSERT_FALSE(engine.query_class().empty());
  auto agg = store->Find(engine.query_class());
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->executions, 1u);
  EXPECT_EQ(agg->total_rows, 2000.0);
}

TEST(ProfileStoreTest, SerializeLoadRoundTripIsByteIdentical) {
  ProfileStore store;
  ProfileStore::Sample s1{120.0, 10, 14, 50, 60, "background-only"};
  ProfileStore::Sample s2{80.0, 200, 180, 400, 390, "index-only"};
  store.Record("classA", s1);
  store.Record("classA", s2);
  store.Record("classB", s2);
  std::string blob = store.Serialize();
  std::string json = store.ToJson();

  ProfileStore reloaded;
  ASSERT_TRUE(reloaded.Load(blob).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.Serialize(), blob);
  EXPECT_EQ(reloaded.ToJson(), json);

  // Corrupt blobs are rejected, not half-loaded.
  std::string bad = blob.substr(0, blob.size() / 2);
  EXPECT_FALSE(reloaded.Load(bad).ok());
  EXPECT_EQ(reloaded.ToJson(), json);  // contents intact after rejection
  // A count is bounded by the bytes present, not allocated up front:
  // version 1, one class, an empty key, two zero fields, then a latency
  // bucket count of 0xFFFFFFFF in 32 bytes.
  std::string huge_count("\x01\0\0\0\x01\0\0\0\0\0\0\0", 12);
  huge_count.append(16, '\0');
  huge_count.append(4, '\xff');
  ASSERT_EQ(huge_count.size(), 32u);
  EXPECT_TRUE(reloaded.Load(huge_count).IsCorruption());
  EXPECT_EQ(reloaded.ToJson(), json);
}

TEST(ProfileStoreTest, ProfilesSurviveDatabaseCloseOpen) {
  const std::string path = ::testing::TempDir() + "dynopt_profiles.db";
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  std::string json_before;
  std::string cls;
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 512;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = BuildFamilies(db->get(), 800, /*seed=*/42);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());

    RetrievalSpec spec;
    spec.table = *table;
    spec.restriction = Predicate::Between(1, Operand::HostVar("lo"),
                                          Operand::HostVar("hi"));
    spec.projection = {0, 1};
    DynamicRetrieval engine(db->get(), spec);
    for (int64_t lo : {10, 30, 50}) {
      ParamMap p{{"lo", Value(lo)}, {"hi", Value(lo + 10)}};
      ASSERT_TRUE(engine.Open(p).ok());
      DrainRids(&engine);
    }
    cls = engine.query_class();
    // lo=10/30/50 land in distinct magnitude buckets: three classes.
    ASSERT_EQ((*db)->profiles()->size(), 3u);
    json_before = (*db)->profiles()->ToJson();
    ASSERT_TRUE((*db)->Close().ok());
  }
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 512;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  // The persisted aggregates re-export byte-identically.
  ASSERT_NE((*db)->profiles(), nullptr);
  EXPECT_EQ((*db)->profiles()->ToJson(), json_before);
  auto agg = (*db)->profiles()->Find(cls);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->executions, 1u);

  // New executions keep aggregating into the reloaded store.
  auto table = (*db)->GetTable("families");
  ASSERT_TRUE(table.ok());
  RetrievalSpec spec;
  spec.table = *table;
  spec.restriction = Predicate::Between(1, Operand::HostVar("lo"),
                                        Operand::HostVar("hi"));
  spec.projection = {0, 1};
  DynamicRetrieval engine(db->get(), spec);
  ParamMap p{{"lo", Value(int64_t{10})}, {"hi", Value(int64_t{20})}};
  ASSERT_TRUE(engine.Open(p).ok());
  DrainRids(&engine);
  // Before the rerun every class held exactly one execution; the rerun's
  // class (lo=10) now holds two.
  auto after = (*db)->profiles()->Find(engine.query_class());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->executions, 2u);
  ASSERT_TRUE((*db)->Close().ok());
}

// ---------------------------------------------------------------- telemetry

TEST(TelemetryTest, TickerEmitsMonotonicSnapshots) {
  Families f(4000);
  f.Index("by_id", {"id"});
  f.Index("by_age", {"age"});
  SessionWorkloadOptions options;
  options.sessions = 2;
  options.queries_per_session = 60;
  options.concurrent = true;
  options.telemetry = true;
  options.telemetry_interval_micros = 1000;
  auto report = RunSessionWorkload(&f.db, f.table, options);
  ASSERT_TRUE(report.ok()) << report.status();
  for (const auto& s : report->sessions) EXPECT_TRUE(s.error.empty());

  ASSERT_FALSE(report->telemetry.empty());
  const auto& series = report->telemetry;
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].t_seconds, series[i - 1].t_seconds);
    EXPECT_GE(series[i].queries_total, series[i - 1].queries_total);
    EXPECT_GE(series[i].rows_total, series[i - 1].rows_total);
  }
  // The final capture (after sessions join) covers the whole run.
  EXPECT_EQ(series.back().queries_total, report->total_queries);
  EXPECT_EQ(series.back().rows_total, report->total_rows);
  EXPECT_EQ(series.back().active_sessions, 0u);
  for (const auto& snap : series) {
    EXPECT_GE(snap.pool_hit_rate, 0.0);
    EXPECT_LE(snap.pool_hit_rate, 1.0);
    EXPECT_GE(snap.p99_micros, snap.p50_micros);
  }

  std::string json = TelemetryToJson(series);
  EXPECT_NE(json.find("\"interval_qps\""), std::string::npos);
  std::string top = RenderWorkloadTop(series);
  EXPECT_NE(top.find("qps"), std::string::npos);
}

TEST(TelemetryTest, TelemetryOffLeavesSeriesEmpty) {
  Families f(1000);
  SessionWorkloadOptions options;
  options.sessions = 2;
  options.queries_per_session = 5;
  auto report = RunSessionWorkload(&f.db, f.table, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->telemetry.empty());
}

// The TSan target: concurrent sessions profiling into one shared
// ProfileStore while the telemetry ticker samples shared counters and a
// governed workload trips budgets. Assertions are deliberately light — the
// point is the interleaving under the race detector.
TEST(TelemetryTest, ConcurrentProfilingAndTelemetryUnderLoad) {
  Families f(4000, /*pool_pages=*/256);
  f.Index("by_id", {"id"});
  f.Index("by_age", {"age"});
  SessionWorkloadOptions options;
  options.sessions = 4;
  options.queries_per_session = 40;
  options.concurrent = true;
  options.governed = true;
  options.telemetry = true;
  options.telemetry_interval_micros = 1000;
  auto report = RunSessionWorkload(&f.db, f.table, options);
  ASSERT_TRUE(report.ok()) << report.status();
  for (const auto& s : report->sessions) EXPECT_TRUE(s.error.empty());
  // Successful + tripped + I/O-failed accounts for every issued query.
  EXPECT_EQ(report->total_queries + report->governance_trips +
                report->io_failures,
            160u);
  EXPECT_FALSE(report->telemetry.empty());
  EXPECT_GT(f.db.profiles()->size(), 0u);

  // The same streams replayed serially agree on result hashes: profiling
  // and telemetry never change what queries return.
  Families g(4000, /*pool_pages=*/256);
  g.Index("by_id", {"id"});
  g.Index("by_age", {"age"});
  SessionWorkloadOptions serial = options;
  serial.concurrent = false;
  serial.telemetry = false;
  auto replay = RunSessionWorkload(&g.db, g.table, serial);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->sessions.size(), report->sessions.size());
  for (size_t i = 0; i < report->sessions.size(); ++i) {
    if (report->sessions[i].failed_queries == 0 &&
        replay->sessions[i].failed_queries == 0) {
      EXPECT_EQ(report->sessions[i].result_hash,
                replay->sessions[i].result_hash);
    }
  }
}

}  // namespace
}  // namespace dynopt
