// Observability-layer tests: typed trace vs Fig 4, registry counters wired
// through the engine, q-errors, the rendered decision trace, and the JSON
// exporters (validated by a minimal recursive-descent checker — no JSON
// library).

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/explain.h"
#include "core/retrieval.h"
#include "families.h"
#include "obs/dashboard.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace dynopt {
namespace {

// ----------------------------------------------------- minimal JSON checker
//
// Accepts exactly RFC 8259 value grammar (objects, arrays, strings with
// escapes, numbers, true/false/null). Used to prove the hand-rolled
// exporters emit parseable documents.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    pos_ = 0;
    bool ok = Value();
    Ws();
    return ok && pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      pos_++;
    }
  }
  bool Eat(char c) {
    Ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool Lit(const char* word) {
    size_t n = std::string_view(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        pos_++;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            pos_++;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;
      }
      pos_++;
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') pos_++;
    while (pos_ < s_.size() && std::isdigit(s_[pos_])) pos_++;
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) return false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      pos_++;
      if (pos_ >= s_.size() || !std::isdigit(s_[pos_])) return false;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) pos_++;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      pos_++;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) pos_++;
      if (pos_ >= s_.size() || !std::isdigit(s_[pos_])) return false;
      while (pos_ < s_.size() && std::isdigit(s_[pos_])) pos_++;
    }
    return true;
  }
  bool Value() {
    Ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Lit("true");
    if (c == 'f') return Lit("false");
    if (c == 'n') return Lit("null");
    return Number();
  }
  bool Object() {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    for (;;) {
      Ws();
      if (!String()) return false;
      if (!Eat(':')) return false;
      if (!Value()) return false;
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }
  bool Array() {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    for (;;) {
      if (!Value()) return false;
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------------- fixture

// ------------------------------------------------------------- typed trace

TEST(TypedTraceTest, TscanFollowsFig4Transitions) {
  Families f(1000);
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 20), {0, 1}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kStaticTscan);  // no indexes at all
  DrainRids(&engine);

  const auto& ev = engine.events().events();
  ASSERT_GE(ev.size(), 4u);
  // Fig 4: initial stage -> tactic decision -> execution stages.
  EXPECT_EQ(ev[0].kind, TraceEventKind::kAnalysis);
  EXPECT_EQ(ev[1].kind, TraceEventKind::kTacticChosen);
  EXPECT_EQ(ev[1].subject, "static-tscan");
  EXPECT_EQ(engine.events().Subjects(TraceEventKind::kStageTransition),
            (std::vector<std::string>{"single", "done"}));
  // Sequence numbers are dense and monotonic (deterministic, no clock).
  for (size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(ev[i].seq, i);
}

TEST(TypedTraceTest, EmptyRangeShortcutEmitsShortcutEvent) {
  Families f(1000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(200, 300), {0}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kShortcutEmpty);
  EXPECT_EQ(DrainRids(&engine).size(), 0u);

  EXPECT_TRUE(engine.events().Contains(TraceEventKind::kShortcut,
                                       "empty-range"));
  EXPECT_EQ(engine.events().Subjects(TraceEventKind::kStageTransition),
            (std::vector<std::string>{"done"}));
  const TraceEvent* chosen =
      engine.events().Find(TraceEventKind::kTacticChosen, "shortcut-empty");
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->a, 0);  // predicted rows
}

TEST(TypedTraceTest, BackgroundOnlyEmitsJscanOutcomesAndStages) {
  Families f(5000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
  DrainRids(&engine);

  auto stages = engine.events().Subjects(TraceEventKind::kStageTransition);
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.front(), "background");
  EXPECT_EQ(stages.back(), "done");

  // Each per-index Jscan verdict shows up as one typed outcome event.
  ExpectJscanEventsMatchCounters(engine, &f.db);
}

TEST(TypedTraceTest, RaceEmitsCompetitionVerdict) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_age_income", {"age", "income"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 40), {1, 2}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  DrainRids(&engine);

  static const std::set<std::string_view> kIndexOnlyVerdicts = {
      VerdictName(Verdict::kForegroundFinished),
      VerdictName(Verdict::kFgrBufferOverflow),
      VerdictName(Verdict::kJscanWon), VerdictName(Verdict::kSscanRetained),
      VerdictName(Verdict::kJscanRecommendsTscan)};
  auto verdicts =
      engine.events().Subjects(TraceEventKind::kCompetitionVerdict);
  ASSERT_FALSE(verdicts.empty()) << "a race must settle with a verdict";
  for (const auto& v : verdicts) {
    EXPECT_TRUE(kIndexOnlyVerdicts.count(v) > 0) << "unexpected verdict " << v;
  }
}

// ------------------------------------------------------------------ metrics

TEST(MetricsTest, BufferPoolAndBTreeCountersAreWired) {
  // A pool far smaller than the data so Pin() actually faults and evicts.
  Families f(5000, /*pool_pages=*/64);
  f.Index("by_age", {"age"});
  f.Index("by_city", {"city"});
  MetricsRegistry* m = f.db.metrics();
  ASSERT_NE(m, nullptr);

  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);

  EXPECT_GT(m->Value("buffer_pool.hits"), 0u);
  EXPECT_GT(m->Value("buffer_pool.misses"), 0u);
  EXPECT_GT(m->Value("buffer_pool.evictions"), 0u);
  EXPECT_GT(m->Value("btree.descents"), 0u);
  EXPECT_GT(m->Value("btree.node_reads"), 0u);
  EXPECT_GT(m->Value("btree.estimates"), 0u);
  EXPECT_GT(m->Value("jscan.entries_scanned"), 0u);
}

TEST(MetricsTest, StepperCountersTrackScreenedAndDelivered) {
  Families f(3000);
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 20), {0, 1}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  size_t rows = DrainRids(&engine).size();
  ASSERT_GT(rows, 0u);

  MetricsRegistry* m = f.db.metrics();
  EXPECT_EQ(m->Value("exec.rows_screened"), 3000u);  // Tscan evals all
  EXPECT_EQ(m->Value("exec.rows_delivered"), rows);
}

TEST(MetricsTest, HistogramBucketsValuesInclusively) {
  MetricsRegistry r;
  Histogram* h = r.histogram("h", {1, 10, 100});
  h->Observe(0);    // <= 1
  h->Observe(1);    // <= 1 (inclusive upper bound)
  h->Observe(5);    // <= 10
  h->Observe(100);  // <= 100
  h->Observe(101);  // overflow
  std::vector<uint64_t> buckets(h->buckets().begin(), h->buckets().end());
  EXPECT_EQ(buckets, (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 207.0);
}

TEST(MetricsTest, DisabledObservabilityKeepsEngineWorking) {
  Families on(2000);
  Families off(2000, DatabaseOptions{.pool_pages = 4096,
                                     .observability = false});
  on.Index("by_age", {"age"});
  off.Index("by_age", {"age"});
  EXPECT_EQ(off.db.metrics(), nullptr);
  EXPECT_EQ(off.db.profiles(), nullptr);

  DynamicRetrieval e_on(&on.db, on.Spec(AgeBetween(10, 15), {0, 3}));
  DynamicRetrieval e_off(&off.db, off.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(e_on.Open(params).ok());
  ASSERT_TRUE(e_off.Open(params).ok());
  // Instrumentation must not change behaviour: same tactic, same rows.
  EXPECT_EQ(e_on.tactic(), e_off.tactic());
  EXPECT_EQ(DrainRids(&e_on).size(), DrainRids(&e_off).size());
  // The typed trace still works detached — it lives on the engine.
  EXPECT_FALSE(e_off.events().events().empty());
}

TEST(MetricsTest, PercentileFromBucketsInterpolatesWithinBuckets) {
  std::vector<double> bounds = {10, 20, 40};
  // 10 samples in (10,20], none elsewhere: quantiles interpolate linearly
  // across the owning bucket.
  std::vector<uint64_t> counts = {0, 10, 0, 0};
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(bounds, counts, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(bounds, counts, 1.0), 20.0);
  // No samples at all: 0, not NaN.
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  // A quantile landing in the overflow bucket floors at the last bound.
  EXPECT_DOUBLE_EQ(PercentileFromBuckets(bounds, {0, 0, 0, 5}, 0.99), 40.0);
  // Monotone in q.
  std::vector<uint64_t> mixed = {3, 4, 2, 1};
  EXPECT_LE(PercentileFromBuckets(bounds, mixed, 0.5),
            PercentileFromBuckets(bounds, mixed, 0.99));
}

TEST(MetricsTest, CostMeterSnapshotLandsInRegistry) {
  Families f(1000);
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(0, 99), {0}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);
  std::string json = f.db.ExportMetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("cost.logical_reads"), std::string::npos);
  EXPECT_GT(f.db.metrics()->Value("cost.logical_reads"), 0u);
}

// ----------------------------------------------------------------- feedback

TEST(FeedbackTest, QErrorIsSymmetricAndFloored) {
  EXPECT_DOUBLE_EQ(QError(10, 1000), 100.0);
  EXPECT_DOUBLE_EQ(QError(1000, 10), 100.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 5), 5.0);
  EXPECT_DOUBLE_EQ(QError(7, 7), 1.0);
}

// --------------------------------------------------------------- trace ring

TEST(TraceRingTest, EvictsOldestCountsDropsAndKeepsLifetimeTallies) {
  TraceLog log;
  log.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    log.Emit(TraceEventKind::kStageTransition, "s" + std::to_string(i));
  }
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  // Oldest went first; sequence numbers keep their original values.
  EXPECT_EQ(log.events().front().subject, "s2");
  EXPECT_EQ(log.events().front().seq, 2u);
  EXPECT_EQ(log.events().back().subject, "s4");
  // Retained count differs from the eviction-proof lifetime tally.
  EXPECT_EQ(log.CountKind(TraceEventKind::kStageTransition), 3u);
  EXPECT_EQ(log.EmittedCount(TraceEventKind::kStageTransition), 5u);
  // Shrinking the capacity evicts (and counts) immediately.
  log.set_capacity(1);
  EXPECT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.dropped(), 4u);
  // Clear resets drops; capacity 0 disables the ring.
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
  log.set_capacity(0);
  for (int i = 0; i < 100; ++i) {
    log.Emit(TraceEventKind::kAnalysis, "a");
  }
  EXPECT_EQ(log.events().size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
}

// ------------------------------------------------------------ JSON exports

TEST(JsonExportTest, TraceMetricsExplainAndFeedbackAllParse) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_city", {"city"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);

  std::string trace_json = engine.events().ToJson();
  EXPECT_TRUE(JsonChecker(trace_json).Valid()) << trace_json;
  EXPECT_NE(trace_json.find("\"tactic-chosen\""), std::string::npos);

  std::string metrics_json = f.db.ExportMetricsJson();
  EXPECT_TRUE(JsonChecker(metrics_json).Valid()) << metrics_json;
  EXPECT_NE(metrics_json.find("\"buffer_pool.hits\""), std::string::npos);

  std::string explain_json = ExplainExecutionJson(engine);
  EXPECT_TRUE(JsonChecker(explain_json).Valid()) << explain_json;
  EXPECT_NE(explain_json.find("\"tactic\""), std::string::npos);
  EXPECT_NE(explain_json.find("\"access_paths\""), std::string::npos);
  EXPECT_NE(explain_json.find("\"events\""), std::string::npos);
  EXPECT_NE(explain_json.find("\"cost\""), std::string::npos);

  std::string feedback_json = f.db.profiles()->ToJson();
  EXPECT_TRUE(JsonChecker(feedback_json).Valid()) << feedback_json;
}

TEST(JsonExportTest, EscapesControlAndQuoteCharacters) {
  JsonWriter w;
  w.BeginObject();
  w.KV("k\"ey", std::string_view("va\\l\nue\x01"));
  w.EndObject();
  EXPECT_TRUE(JsonChecker(w.str()).Valid()) << w.str();
}

// ------------------------------------------------------------------ explain

TEST(ExplainTest, TscanReportNamesTacticAndCost) {
  Families f(1000);
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 20), {0, 1}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);
  std::string report = ExplainExecution(engine, f.db.cost_weights());
  EXPECT_NE(report.find("tactic: static-tscan"), std::string::npos);
  EXPECT_NE(report.find("decision trace:"), std::string::npos);
  EXPECT_NE(report.find("\n  tactic-chosen static-tscan"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\n  stage-transition done\n"), std::string::npos)
      << report;
  EXPECT_NE(report.find("cost: "), std::string::npos);
  EXPECT_NE(report.find("pr="), std::string::npos);  // meter breakdown
}

TEST(ExplainTest, ShortcutReportShowsShortcutLine) {
  Families f(1000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(200, 300), {0}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);
  std::string report = ExplainExecution(engine, f.db.cost_weights());
  EXPECT_NE(report.find("tactic: shortcut-empty"), std::string::npos);
  EXPECT_NE(report.find("empty-range shortcut"), std::string::npos);
}

TEST(ExplainTest, CompetitionReportShowsJscanOutcomes) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_city", {"city"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);
  std::string report = ExplainExecution(engine, f.db.cost_weights());
  EXPECT_NE(report.find("joint scan:"), std::string::npos);
  EXPECT_NE(report.find("guaranteed best cost:"), std::string::npos);
  EXPECT_NE(report.find("by_age:"), std::string::npos);
  bool verdict = report.find("completed") != std::string::npos ||
                 report.find("discarded") != std::string::npos ||
                 report.find("skipped") != std::string::npos;
  EXPECT_TRUE(verdict) << report;
  // The decision trace is one rendered line per retained typed event, in
  // emission order, and nothing else.
  std::string trace_section = "decision trace:\n";
  for (const TraceEvent& e : engine.events().events()) {
    trace_section += "  " + FormatTraceEvent(e) + "\n";
  }
  EXPECT_NE(report.find(trace_section + "cost: "), std::string::npos)
      << report;
}

// ---------------------------------------------------------------- dashboard

TEST(DashboardTest, RendersCountersHistogramsAndFeedback) {
  Families f(5000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);

  DashboardOptions opts;
  opts.title = "workload";
  CostMeter meter = f.db.meter();
  opts.meter = &meter;
  opts.profiles = f.db.profiles();
  std::string board = RenderDashboard(*f.db.metrics(), opts);
  EXPECT_NE(board.find("workload"), std::string::npos);
  EXPECT_NE(board.find("buffer_pool.hits"), std::string::npos);
  EXPECT_NE(board.find("rows-qerr"), std::string::npos);
}

TEST(DashboardTest, GroupsMetricFamiliesIntoSections) {
  MetricsRegistry r;
  r.counter("governance.strategy_fallbacks")->value += 3;
  r.counter("governance.deadline_hits")->value += 1;
  r.counter("integrity.repairs")->value += 2;
  r.counter("durability.commits")->value += 4;
  r.counter("wal.appends")->value += 9;
  r.counter("obs.trace_dropped")->value += 7;
  DashboardOptions opts;
  opts.title = "families";
  std::string board = RenderDashboard(r, opts);
  // Each dotted prefix renders as its own "-- family --" section, and the
  // section precedes its counters.
  for (const char* family :
       {"-- governance --", "-- integrity --", "-- durability --",
        "-- wal --", "-- obs --"}) {
    EXPECT_NE(board.find(family), std::string::npos) << board;
  }
  EXPECT_LT(board.find("-- governance --"),
            board.find("governance.strategy_fallbacks"));
  EXPECT_LT(board.find("-- integrity --"), board.find("integrity.repairs"));
}

TEST(DashboardTest, ProfileStoreSectionListsQueryClasses) {
  MetricsRegistry r;
  ProfileStore store;
  store.Record("families|age BETWEEN ? AND ?",
               {150.0, 10, 12, 5, 6, "background-only"});
  DashboardOptions opts;
  opts.title = "profiles";
  opts.profiles = &store;
  std::string board = RenderDashboard(r, opts);
  EXPECT_NE(board.find("query classes (1)"), std::string::npos);
  EXPECT_NE(board.find("families|age BETWEEN ? AND ?"), std::string::npos);
  EXPECT_NE(board.find("background-only:1"), std::string::npos);
}

// ---------------------------------------------------------------- telemetry

TEST(TelemetryExportTest, SeriesRendersAsJsonAndTop) {
  std::vector<TelemetrySnapshot> series(2);
  series[0].t_seconds = 0.05;
  series[0].queries_total = 10;
  series[0].interval_qps = 200;
  series[0].p50_micros = 120;
  series[0].p99_micros = 900;
  series[0].pool_hit_rate = 0.75;
  series[1].t_seconds = 0.10;
  series[1].queries_total = 25;
  series[1].interval_qps = 300;
  series[1].fallbacks = 1;
  series[1].pages_repaired = 2;

  std::string json = TelemetryToJson(series);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"t_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_hit_rate\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(TelemetryToJson({})).Valid());

  std::string top = RenderWorkloadTop(series, "test workload");
  EXPECT_NE(top.find("test workload"), std::string::npos);
  EXPECT_NE(top.find("qps"), std::string::npos);
}

// ----------------------------------------------------------- explain analyze

TEST(JsonExportTest, ExplainAnalyzeJsonParses) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_age_income", {"age", "income"});
  DynamicRetrieval engine(
      &f.db, f.Spec(Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                       Operand::Literal(Value(int64_t{40}))),
                    {1, 2}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  DrainRids(&engine);

  std::string json = ExplainAnalyzeJson(engine, f.db.cost_weights());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"competition\""), std::string::npos);
  EXPECT_NE(json.find("\"query_class\""), std::string::npos);
  // The profile's own exporters parse too.
  EXPECT_TRUE(JsonChecker(engine.profile().ToJson()).Valid());
  ProfileStore* store = f.db.profiles();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(JsonChecker(store->ToJson()).Valid()) << store->ToJson();
}

}  // namespace
}  // namespace dynopt
