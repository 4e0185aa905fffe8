// Learned-selectivity subsystem tests: the model's kNN/EWMA mechanics and
// mode gates, the engine read/write paths (estimate correction, competition
// narrowing, feedback harvest), catalog persistence, and the parametric
// workload loop. Every suite name contains "Learning" so the TSan/CI
// filters pick the whole file up.

#include <unistd.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "exec/query_class.h"
#include "families.h"
#include "learning/selectivity_model.h"
#include "obs/metrics.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

uint64_t CorrectionEvents(const DynamicRetrieval& e) {
  return e.events().EmittedCount(TraceEventKind::kLearnedCorrectionApplied);
}

PredicateRef IncomeLt(int64_t cap) {
  return Predicate::Compare(2, CompareOp::kLt,
                            Operand::Literal(Value(cap)));
}

// ------------------------------------------------------------- model unit

TEST(LearningModelTest, ModesGateReadsAndWrites) {
  SelectivityModel m;
  EXPECT_EQ(m.mode(), LearningMode::kControlled);
  EXPECT_FALSE(m.reads_enabled());
  EXPECT_FALSE(m.writes_enabled());

  std::vector<double> f{3.0};
  // Controlled: neither reads nor writes.
  m.Observe("c", f, 1000, 10, 500, 50);
  EXPECT_EQ(m.observations(), 0u);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.Lookup("c", f).has_value());

  m.set_mode(LearningMode::kLearn);
  EXPECT_TRUE(m.reads_enabled());
  EXPECT_TRUE(m.writes_enabled());
  m.Observe("c", f, 1000, 10, 500, 50);
  // One sample is below the min_samples floor: no correction yet.
  EXPECT_FALSE(m.Lookup("c", f).has_value());
  m.Observe("c", f, 1000, 10, 500, 50);
  EXPECT_EQ(m.observations(), 2u);
  auto corr = m.Lookup("c", f);
  ASSERT_TRUE(corr.has_value());
  // Identical repeated observations pin the EWMA at the true correction:
  // rows 10/1000 = 0.01, cost 50/500 = 0.1.
  EXPECT_NEAR(corr->rows_factor, 0.01, 0.002);
  EXPECT_NEAR(corr->cost_factor, 0.1, 0.02);
  EXPECT_EQ(corr->samples, 2u);
  EXPECT_GT(corr->confidence, 0.0);
  EXPECT_LE(corr->confidence, 1.0);

  // Frozen: reads keep working, writes are dropped.
  m.set_mode(LearningMode::kFrozen);
  EXPECT_TRUE(m.reads_enabled());
  EXPECT_FALSE(m.writes_enabled());
  m.Observe("c", f, 1000, 10, 500, 50);
  EXPECT_EQ(m.observations(), 2u);
  EXPECT_TRUE(m.Lookup("c", f).has_value());

  // Back to controlled: the learned state stays but is unreachable.
  m.set_mode(LearningMode::kControlled);
  EXPECT_FALSE(m.Lookup("c", f).has_value());
  EXPECT_EQ(m.size(), 1u);
}

TEST(LearningModelTest, StrategyCostsFollowTheSameModeGates) {
  SelectivityModel m;
  m.ObserveStrategyCost("k", "Sscan(by_age)", 5000);  // controlled: dropped
  m.set_mode(LearningMode::kFrozen);
  EXPECT_FALSE(m.LookupStrategyCost("k", "Sscan(by_age)").has_value());

  m.set_mode(LearningMode::kLearn);
  m.ObserveStrategyCost("k", "Sscan(by_age)", 5000);
  auto sc = m.LookupStrategyCost("k", "Sscan(by_age)");
  ASSERT_TRUE(sc.has_value());
  EXPECT_DOUBLE_EQ(sc->mean_cost, 5000.0);
  EXPECT_EQ(sc->samples, 1u);
  // EWMA pulls toward later completions.
  m.ObserveStrategyCost("k", "Sscan(by_age)", 6000);
  sc = m.LookupStrategyCost("k", "Sscan(by_age)");
  ASSERT_TRUE(sc.has_value());
  EXPECT_GT(sc->mean_cost, 5000.0);
  EXPECT_LT(sc->mean_cost, 6000.0);
  EXPECT_EQ(sc->samples, 2u);
  // Unknown strategy / class: nothing.
  EXPECT_FALSE(m.LookupStrategyCost("k", "Tscan").has_value());
  EXPECT_FALSE(m.LookupStrategyCost("other", "Sscan(by_age)").has_value());

  m.set_mode(LearningMode::kControlled);
  EXPECT_FALSE(m.LookupStrategyCost("k", "Sscan(by_age)").has_value());
}

TEST(LearningModelTest, KnnDiscriminatesByFeatureDistance) {
  SelectivityModel m;
  m.set_mode(LearningMode::kLearn);
  // Narrow ranges (feature ~2) are badly overestimated; wide ranges
  // (feature ~10) are accurate. The two points are 8 apart in log2 space —
  // far past the 2.0 lookup radius, so neither bleeds into the other.
  for (int i = 0; i < 3; ++i) {
    m.Observe("c", {2.0}, 1000, 10, 1000, 1000);
    m.Observe("c", {10.0}, 1000, 1000, 1000, 1000);
  }
  auto narrow = m.Lookup("c", {2.0});
  auto wide = m.Lookup("c", {10.0});
  ASSERT_TRUE(narrow.has_value());
  ASSERT_TRUE(wide.has_value());
  EXPECT_NEAR(narrow->rows_factor, 0.01, 0.002);
  EXPECT_NEAR(wide->rows_factor, 1.0, 0.05);
  // A point far from every neighbor finds nothing.
  EXPECT_FALSE(m.Lookup("c", {30.0}).has_value());
  // A point between them but within radius of one side leans that way.
  auto near_narrow = m.Lookup("c", {2.5});
  ASSERT_TRUE(near_narrow.has_value());
  EXPECT_LT(near_narrow->rows_factor, 0.5);
}

TEST(LearningModelTest, NeighborEvictionKeepsClassesBounded) {
  SelectivityModel::Options o;
  o.max_neighbors = 4;
  SelectivityModel m(o);
  MetricsRegistry reg;
  m.AttachMetrics(&reg);
  m.set_mode(LearningMode::kLearn);
  // Ten feature points 3 apart: each is outside the 0.5 merge radius of
  // every other, so each observation inserts — and past 4 evicts.
  for (int i = 0; i < 10; ++i) {
    m.Observe("c", {3.0 * i}, 100, 10, 100, 100);
  }
  EXPECT_EQ(m.observations(), 10u);
  EXPECT_EQ(reg.Value("learning.neighbors_evicted"), 6u);
  EXPECT_NE(m.ToJson().find("\"neighbors\":4"), std::string::npos)
      << m.ToJson();
}

TEST(LearningModelTest, SerializeLoadRoundTripIsByteIdentical) {
  SelectivityModel m;
  m.set_mode(LearningMode::kLearn);
  m.Observe("classA", {2.0, 3.0}, 1000, 10, 800, 400);
  m.Observe("classA", {2.0, 3.0}, 900, 12, 700, 420);
  m.Observe("classA", {9.0, 1.0}, 50, 500, 100, 900);
  m.Observe("classB", {}, 10, 10, 10, 10);
  m.ObserveStrategyCost("classA;args=lo:2", "Sscan(by_age)", 41000);
  m.ObserveStrategyCost("classA;args=lo:2", "Fscan(by_age)", 9000);
  std::string blob = m.Serialize();

  SelectivityModel reloaded;
  ASSERT_TRUE(reloaded.Load(blob).ok());
  EXPECT_EQ(reloaded.Serialize(), blob);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.observations(), 4u);
  // The reloaded state answers lookups once reads are enabled.
  reloaded.set_mode(LearningMode::kFrozen);
  auto corr = reloaded.Lookup("classA", {2.0, 3.0});
  ASSERT_TRUE(corr.has_value());
  EXPECT_LT(corr->rows_factor, 0.1);
  auto sc = reloaded.LookupStrategyCost("classA;args=lo:2", "Sscan(by_age)");
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->samples, 1u);

  // Truncated, oversized, and wrong-version blobs are rejected whole; the
  // previous contents stay intact.
  EXPECT_FALSE(reloaded.Load(blob.substr(0, blob.size() / 2)).ok());
  EXPECT_EQ(reloaded.Serialize(), blob);
  EXPECT_FALSE(reloaded.Load(blob + "x").ok());
  EXPECT_EQ(reloaded.Serialize(), blob);
  std::string wrong_version = blob;
  wrong_version[0] = 9;
  EXPECT_FALSE(reloaded.Load(wrong_version).ok());
  EXPECT_EQ(reloaded.Serialize(), blob);
  // A neighbor's feature count is bounded by the bytes present, not
  // allocated up front: version 1, one class, an empty key, three zero
  // fields, one neighbor, then dim = 0xFFFFFFFF in 44 bytes.
  std::string huge_dim("\x01\0\0\0\x01\0\0\0\0\0\0\0", 12);
  huge_dim.append(24, '\0');
  huge_dim.append("\x01\0\0\0", 4);
  huge_dim.append(4, '\xff');
  ASSERT_EQ(huge_dim.size(), 44u);
  EXPECT_TRUE(reloaded.Load(huge_dim).IsCorruption());
  EXPECT_EQ(reloaded.Serialize(), blob);

  // An empty model round-trips too.
  SelectivityModel empty;
  std::string empty_blob = empty.Serialize();
  SelectivityModel empty2;
  ASSERT_TRUE(empty2.Load(empty_blob).ok());
  EXPECT_EQ(empty2.Serialize(), empty_blob);
}

TEST(LearningModelTest, DashboardRowsReportPerClassState) {
  SelectivityModel m;
  m.set_mode(LearningMode::kLearn);
  m.Observe("classA", {2.0}, 1000, 10, 1000, 100);
  m.Observe("classA", {2.0}, 1000, 10, 1000, 100);
  m.NoteApplied("classA");
  auto rows = m.DashboardRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].class_key, "classA");
  EXPECT_EQ(rows[0].samples, 2u);
  EXPECT_EQ(rows[0].corrections_applied, 1u);
  EXPECT_LT(rows[0].rows_factor, 0.1);
  EXPECT_GT(rows[0].rows_q_error, 1.0);
}

// ----------------------------------------------------------- engine loop

TEST(LearningEngineTest, LearnedCorrectionReshapesEstimates) {
  Families f(4000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec =
      f.Spec(Predicate::And({AgeBetween(10, 40), IncomeLt(3000)}), {0, 1, 2});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;

  // Controlled baseline: corrected == raw, no events.
  ASSERT_TRUE(engine.Open(params).ok());
  auto baseline = DrainRids(&engine);
  EXPECT_EQ(engine.predicted_rows(), engine.raw_predicted_rows());
  EXPECT_EQ(engine.predicted_cost(), engine.raw_predicted_cost());
  EXPECT_EQ(CorrectionEvents(engine), 0u);
  const std::string cls = engine.query_class();  // no host vars: == prefix
  const double raw = engine.raw_predicted_rows();

  // Teach the model that this class's estimates run 8x hot.
  SelectivityModel* m = f.db.learning();
  m->set_mode(LearningMode::kLearn);
  m->Observe(cls, QueryClassFeatures(params), raw, raw / 8, 100, 100);
  m->Observe(cls, QueryClassFeatures(params), raw, raw / 8, 100, 100);

  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_GT(CorrectionEvents(engine), 0u);
  EXPECT_TRUE(engine.events().Contains(
      TraceEventKind::kLearnedCorrectionApplied, "estimate"));
  EXPECT_LT(engine.predicted_rows(), engine.raw_predicted_rows() * 0.5);
  EXPECT_NEAR(engine.predicted_rows(), engine.raw_predicted_rows() / 8,
              engine.raw_predicted_rows() * 0.1);
  // The correction changes estimates, never results.
  EXPECT_EQ(DrainRids(&engine), baseline);
  ASSERT_NE(f.db.metrics(), nullptr);
  EXPECT_GE(f.db.metrics()->Value("learning.corrections_applied"), 1u);
  EXPECT_GE(f.db.metrics()->Value("learning.lookups"), 1u);
}

TEST(LearningEngineTest, ExecutionsFeedTheModelEndToEnd) {
  Families f(4000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec =
      f.Spec(Predicate::And({AgeBetween(10, 60), IncomeLt(5000)}), {0, 1, 2});
  DynamicRetrieval engine(&f.db, spec);
  f.db.learning()->set_mode(LearningMode::kLearn);
  ParamMap params;

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Open(params).ok());
    DrainRids(&engine);
  }
  // Three executions harvested; one class (literal-only predicate).
  EXPECT_GE(f.db.learning()->observations(), 3u);
  EXPECT_EQ(f.db.learning()->size(), 1u);
  auto corr =
      f.db.learning()->Lookup(engine.query_class(), QueryClassFeatures(params));
  ASSERT_TRUE(corr.has_value());
  EXPECT_GE(corr->samples, 2u);
  // By the third run the first two observations satisfy the sample floor,
  // so the read path fired.
  EXPECT_GT(CorrectionEvents(engine), 0u);
  ASSERT_NE(f.db.metrics(), nullptr);
  EXPECT_GE(f.db.metrics()->Value("learning.observations"), 3u);
}

TEST(LearningEngineTest, ControlledModeIsBitForBitInert) {
  Families f(2000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec = f.Spec(AgeBetween(10, 30), {0, 1});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Open(params).ok());
    DrainRids(&engine);
    EXPECT_EQ(engine.predicted_rows(), engine.raw_predicted_rows());
    EXPECT_EQ(engine.predicted_cost(), engine.raw_predicted_cost());
    EXPECT_EQ(CorrectionEvents(engine), 0u);
  }
  EXPECT_EQ(f.db.learning()->observations(), 0u);
  EXPECT_EQ(f.db.learning()->size(), 0u);
  ASSERT_NE(f.db.metrics(), nullptr);
  EXPECT_EQ(f.db.metrics()->Value("learning.observations"), 0u);
  EXPECT_EQ(f.db.metrics()->Value("learning.lookups"), 0u);
  EXPECT_EQ(f.db.metrics()->Value("learning.corrections_applied"), 0u);
  EXPECT_EQ(f.db.metrics()->Value("learning.competition_overrides"), 0u);
}

// ------------------------------------------------------- competition flip

TEST(LearningFlipTest, WarmedStrategyCostFlipsCompetitionVerdict) {
  // CPU-heavy residual evaluation: the analytic index-scan estimate prices
  // entries at key-compare cost only, so a predicate whose per-entry
  // evaluation is expensive makes the Sscan look far cheaper than it runs.
  // Cold, the §7 settle keeps the Sscan ("list too costly"); once the model
  // has seen the Sscan run to completion, the learned mean narrows the
  // L-shaped remaining-cost prior upward and the Jscan's final list wins.
  DatabaseOptions dbo;
  dbo.pool_pages = 4096;
  dbo.cost_weights.record_eval = 5.0;
  Families f(8000, dbo);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And({AgeBetween(2, 97), IncomeLt(3000)});
  RetrievalOptions opt;
  // Roomy foreground buffer: the race must reach the §7 settle decision
  // (a 16-slot buffer overflows inside the first quantum and kills the
  // Jscan before it can recommend anything).
  opt.fgr_buffer_capacity = 256;
  RetrievalSpec spec = f.Spec(pred, {1, 2});
  DynamicRetrieval engine(&f.db, spec, opt);
  f.db.learning()->set_mode(LearningMode::kLearn);
  ParamMap params;

  // Cold: analytic decision retains the Sscan, which runs to completion —
  // exactly the full-run cost the model harvests.
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  auto cold = DrainRids(&engine);
  EXPECT_TRUE(SawVerdict(engine, Verdict::kSscanRetained)) << "cold verdict";
  EXPECT_FALSE(engine.events().Contains(
      TraceEventKind::kLearnedCorrectionApplied, "competition"));
  EXPECT_EQ(cold, NaiveRids(spec, params));

  // Warm: the learned full-run cost flips the settle to the Jscan list.
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  auto warm = DrainRids(&engine);
  EXPECT_TRUE(SawVerdict(engine, Verdict::kJscanWon)) << "warm verdict";
  EXPECT_TRUE(engine.events().Contains(
      TraceEventKind::kLearnedCorrectionApplied, "competition"));
  ASSERT_NE(f.db.metrics(), nullptr);
  EXPECT_GE(f.db.metrics()->Value("learning.competition_overrides"), 1u);
  // Who wins changes; what comes back must not.
  EXPECT_EQ(warm, cold);

  // Controlled: back to the analytic decision, bit for bit.
  f.db.learning()->set_mode(LearningMode::kControlled);
  ASSERT_TRUE(engine.Open(params).ok());
  auto controlled = DrainRids(&engine);
  EXPECT_TRUE(SawVerdict(engine, Verdict::kSscanRetained))
      << "controlled verdict";
  EXPECT_EQ(CorrectionEvents(engine), 0u);
  EXPECT_EQ(controlled, cold);
}

// ------------------------------------------------------------ persistence

TEST(LearningPersistenceTest, ModelSurvivesDatabaseCloseOpen) {
  const std::string path = ::testing::TempDir() + "dynopt_learning.db";
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 512;

  std::string blob_before;
  {
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = BuildFamilies(db->get(), 800, /*seed=*/42);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());
    (*db)->learning()->set_mode(LearningMode::kLearn);

    RetrievalSpec spec;
    spec.table = *table;
    spec.restriction = Predicate::Between(1, Operand::HostVar("lo"),
                                          Operand::HostVar("hi"));
    spec.projection = {0, 1};
    DynamicRetrieval engine(db->get(), spec);
    for (int round = 0; round < 2; ++round) {
      for (int64_t lo : {10, 30, 50}) {
        ParamMap p{{"lo", Value(lo)}, {"hi", Value(lo + 10)}};
        ASSERT_TRUE(engine.Open(p).ok());
        DrainRids(&engine);
      }
    }
    EXPECT_GE((*db)->learning()->observations(), 6u);
    blob_before = (*db)->learning()->Serialize();
    EXPECT_FALSE(blob_before.empty());
    ASSERT_TRUE((*db)->Close().ok());
  }

  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  // Byte-identical round trip through the catalog...
  EXPECT_EQ((*db)->learning()->Serialize(), blob_before);
  // ...but the mode is an operator decision, not data: reopen is controlled.
  EXPECT_EQ((*db)->learning()->mode(), LearningMode::kControlled);

  // The reloaded corrections drive the read path once reads are enabled.
  (*db)->learning()->set_mode(LearningMode::kFrozen);
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
  EXPECT_GT(CorrectionEvents(engine), 0u);
  // Frozen mode wrote nothing back: the blob is unchanged.
  EXPECT_EQ((*db)->learning()->Serialize(), blob_before);
  ASSERT_TRUE((*db)->Close().ok());
}

// ------------------------------------------------------ workload streams

TEST(LearningWorkloadTest, ParametricStreamLearnsWithoutChangingResults) {
  SessionWorkloadOptions opts;
  opts.sessions = 2;
  opts.queries_per_session = 30;
  opts.seed = 99;
  opts.parametric = true;
  opts.concurrent = false;

  // Two identically-built databases: one controlled, one learning. The
  // streams are pure functions of (seed, session), so per-session result
  // hashes must match query for query — corrections may change plans,
  // never answers.
  Database controlled_db{DatabaseOptions{.pool_pages = 1024}};
  auto t1 = BuildFamilies(&controlled_db, 3000, 42);
  ASSERT_TRUE(t1.ok()) << t1.status();
  ASSERT_TRUE((*t1)->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE((*t1)->CreateIndex("by_age", {"age"}).ok());
  auto controlled = RunSessionWorkload(&controlled_db, *t1, opts);
  ASSERT_TRUE(controlled.ok()) << controlled.status();

  Database learn_db{DatabaseOptions{.pool_pages = 1024}};
  auto t2 = BuildFamilies(&learn_db, 3000, 42);
  ASSERT_TRUE(t2.ok()) << t2.status();
  ASSERT_TRUE((*t2)->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE((*t2)->CreateIndex("by_age", {"age"}).ok());
  learn_db.learning()->set_mode(LearningMode::kLearn);
  auto learned = RunSessionWorkload(&learn_db, *t2, opts);
  ASSERT_TRUE(learned.ok()) << learned.status();

  ASSERT_EQ(controlled->sessions.size(), learned->sessions.size());
  for (size_t i = 0; i < controlled->sessions.size(); ++i) {
    EXPECT_TRUE(controlled->sessions[i].error.empty())
        << controlled->sessions[i].error;
    EXPECT_TRUE(learned->sessions[i].error.empty())
        << learned->sessions[i].error;
    EXPECT_EQ(controlled->sessions[i].result_hash,
              learned->sessions[i].result_hash)
        << "session " << i;
    EXPECT_EQ(controlled->sessions[i].rows, learned->sessions[i].rows);
  }
  // The parametric stream is one query class; the learning run absorbed it,
  // the controlled run stayed empty.
  EXPECT_EQ(learn_db.learning()->size(), 1u);
  EXPECT_GT(learn_db.learning()->observations(), 0u);
  EXPECT_EQ(controlled_db.learning()->observations(), 0u);
  ASSERT_NE(controlled_db.metrics(), nullptr);
  EXPECT_EQ(controlled_db.metrics()->Value("learning.corrections_applied"),
            0u);
}

// ------------------------------------------------------------ concurrency

TEST(LearningConcurrencyTest, ConcurrentSessionsLearnWhileQuerying) {
  // Four threads deposit observations and read corrections through one
  // shared model in learn mode — the TSan configuration runs this suite to
  // certify the locking.
  Database db{DatabaseOptions{.pool_pages = 2048}};
  auto table = BuildFamilies(&db, 3000, 42);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*table)->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());
  db.learning()->set_mode(LearningMode::kLearn);

  SessionWorkloadOptions opts;
  opts.sessions = 4;
  opts.queries_per_session = 25;
  opts.seed = 7;
  opts.parametric = true;
  opts.concurrent = true;
  auto report = RunSessionWorkload(&db, *table, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  for (const auto& s : report->sessions) {
    EXPECT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.queries, opts.queries_per_session);
  }
  EXPECT_GT(db.learning()->observations(), 0u);

  // Serial replay on a fresh identical database matches every hash.
  Database serial_db{DatabaseOptions{.pool_pages = 2048}};
  auto serial_table = BuildFamilies(&serial_db, 3000, 42);
  ASSERT_TRUE(serial_table.ok());
  ASSERT_TRUE((*serial_table)->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE((*serial_table)->CreateIndex("by_age", {"age"}).ok());
  serial_db.learning()->set_mode(LearningMode::kLearn);
  SessionWorkloadOptions serial_opts = opts;
  serial_opts.concurrent = false;
  auto serial = RunSessionWorkload(&serial_db, *serial_table, serial_opts);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t i = 0; i < report->sessions.size(); ++i) {
    EXPECT_EQ(report->sessions[i].result_hash,
              serial->sessions[i].result_hash)
        << "session " << i;
  }
}

}  // namespace
}  // namespace dynopt
