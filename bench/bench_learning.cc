// Learned selectivity: convergence, competition flips, persistence, safety.
//
// Part 1 — convergence gate. A correlated FAMILIES variant (income derived
// from age) breaks the estimator's independence assumption, so a repeated
// parametric query class (age BETWEEN :lo AND :hi, income < :cap) carries a
// persistent cardinality miss. The class is swept cold (frozen, empty
// model), then learned over several epochs, then swept warm (frozen again,
// reads only). The issue gates warm median q-error <= 0.5x cold — the
// feedback loop must at least halve the class's estimation error.
//
// Part 2 — competition flip. The LearningFlipTest scenario at bench scale:
// a CPU-heavy residual makes the analytic Sscan estimate optimistic; cold
// the §7 settle retains the Sscan, warm the learned full-run cost flips the
// verdict to the Jscan list. Gate: >= 1 flip, identical result sets.
//
// Part 3 — persistence gate. The learned model must round-trip the catalog
// byte-identically across Database::Close/Open.
//
// Part 4 — safety gate. Controlled mode must not diverge from a learning
// run in results: identical parametric streams over identical data, equal
// per-session result hashes, zero learning.* activity on the controlled DB.
//
// Reported to BENCH_learning.json:
//   convergence.cold_median_qerr / warm_median_qerr / ratio   (gate <= 0.5)
//   flip.flips                                                (gate >= 1)
//   persist.byte_identical                                    (gate == 1)
//   safety.hashes_equal                                       (gate == 1)
//   learning.classes / observations / overrides

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "harness.h"
#include "learning/selectivity_model.h"
#include "obs/dashboard.h"
#include "obs/metrics.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 20000;

// One sweep of the parametric class; returns per-query rows q-errors
// (corrected prediction vs delivered rows).
Status Sweep(Database* db, DynamicRetrieval* engine,
             std::vector<double>* q_errors) {
  for (int64_t lo : {10, 25, 40, 55, 70}) {
    for (int64_t width : {10, 20, 30}) {
      ParamMap p{{"lo", Value(lo)},
                 {"hi", Value(lo + width)},
                 {"cap", Value(lo + 20)}};
      DYNOPT_ASSIGN_OR_RETURN(Drained d, Drain(db, engine, p));
      if (q_errors != nullptr) {
        q_errors->push_back(
            QError(engine->predicted_rows(), static_cast<double>(d.rows)));
      }
    }
  }
  return Status::OK();
}

Status Run(Report* report) {
  std::printf("=== learned selectivity: convergence, flips, persistence ===\n\n");

  // ---- Part 1: convergence on a correlated class.
  // income = age + noise(0..40): the independence assumption misprices
  // And(age range, income cap) by the correlation factor.
  TableSpec ts;
  ts.name = "families";
  ts.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"age", ValueType::kInt64}, UniformInt(0, 99)},
      {{"income", ValueType::kInt64}, DerivedInt(1, 40)},
      {{"city", ValueType::kString}, CategoricalString("city", 50)},
  };
  Database db(DatabaseOptions{.pool_pages = 4096});
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildTable(&db, ts, kRows, 42));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  std::printf("database: %lld rows, income derived from age (correlated)\n\n",
              static_cast<long long>(kRows));

  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
       Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
  spec.projection = {0, 1, 2};
  DynamicRetrieval engine(&db, spec);
  SelectivityModel* model = db.learning();

  // Cold: reads enabled but the model is empty — pure analytic estimates.
  model->set_mode(LearningMode::kFrozen);
  std::vector<double> cold;
  DYNOPT_RETURN_IF_ERROR(Sweep(&db, &engine, &cold));
  // Learn: several epochs of the same parametric stream.
  model->set_mode(LearningMode::kLearn);
  for (int epoch = 0; epoch < 4; ++epoch) {
    DYNOPT_RETURN_IF_ERROR(Sweep(&db, &engine, nullptr));
  }
  // Warm: frozen again — corrections applied, nothing absorbed.
  model->set_mode(LearningMode::kFrozen);
  std::vector<double> warm;
  DYNOPT_RETURN_IF_ERROR(Sweep(&db, &engine, &warm));
  double cold_median = Quantile(cold, 0.5);
  double warm_median = Quantile(warm, 0.5);
  double ratio = cold_median > 0 ? warm_median / cold_median : 1.0;
  std::printf("%14s %18s\n", "sweep", "median rows q-err");
  std::printf("%14s %18.2f\n", "cold", cold_median);
  std::printf("%14s %18.2f\n", "warm", warm_median);
  report->Add("convergence.cold_median_qerr", cold_median);
  report->Add("convergence.warm_median_qerr", warm_median);
  report->Print("convergence.ratio", ratio,
                "\nconvergence ratio: %.2f (gate <= 0.5)\n");
  report->Gate(ratio <= 0.5, "convergence ratio %.2f > 0.5", ratio);
  report->Add("learning.classes", static_cast<double>(model->size()));
  report->Add("learning.observations",
              static_cast<double>(model->observations()));

  // ---- Part 2: learned strategy cost flips the §7 settle.
  DatabaseOptions flip_dbo;
  flip_dbo.pool_pages = 4096;
  flip_dbo.cost_weights.record_eval = 5.0;  // CPU-heavy residual
  Database flip_db(flip_dbo);
  DYNOPT_ASSIGN_OR_RETURN(Table * flip_table,
                          BuildFamilies(&flip_db, 8000, 42));
  DYNOPT_RETURN_IF_ERROR(
      flip_table->CreateIndex("by_age_income", {"age", "income"}).status());
  DYNOPT_RETURN_IF_ERROR(
      flip_table->CreateIndex("by_income", {"income"}).status());
  RetrievalSpec flip_spec;
  flip_spec.table = flip_table;
  flip_spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{2})),
                          Operand::Literal(Value(int64_t{97}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{3000})))});
  flip_spec.projection = {1, 2};
  RetrievalOptions flip_opt;
  flip_opt.fgr_buffer_capacity = 256;  // let the race reach the settle
  DynamicRetrieval flip_engine(&flip_db, flip_spec, flip_opt);
  flip_db.learning()->set_mode(LearningMode::kLearn);

  auto verdict_of = [](const DynamicRetrieval& e) -> std::optional<Verdict> {
    for (Verdict v : {Verdict::kJscanWon, Verdict::kSscanRetained,
                      Verdict::kJscanRecommendsTscan}) {
      if (e.events().Contains(TraceEventKind::kCompetitionVerdict,
                              VerdictName(v))) {
        return v;
      }
    }
    return std::nullopt;
  };
  auto name_of = [](std::optional<Verdict> v) {
    return std::string(v.has_value() ? VerdictName(*v) : "none");
  };

  DYNOPT_ASSIGN_OR_RETURN(Drained flip_cold,
                          Drain(&flip_db, &flip_engine, {}));
  std::optional<Verdict> cold_verdict = verdict_of(flip_engine);
  DYNOPT_ASSIGN_OR_RETURN(Drained flip_warm,
                          Drain(&flip_db, &flip_engine, {}));
  std::optional<Verdict> warm_verdict = verdict_of(flip_engine);
  bool same_results = flip_cold.rows == flip_warm.rows &&
                      flip_cold.rid_hash == flip_warm.rid_hash;
  int flips = (cold_verdict == Verdict::kSscanRetained &&
               warm_verdict == Verdict::kJscanWon && same_results)
                  ? 1
                  : 0;
  std::printf("flip: cold verdict %-16s warm verdict %-16s rows %llu\n",
              name_of(cold_verdict).c_str(), name_of(warm_verdict).c_str(),
              static_cast<unsigned long long>(flip_warm.rows));
  uint64_t overrides =
      flip_db.metrics() != nullptr
          ? flip_db.metrics()->Value("learning.competition_overrides")
          : 0;
  std::printf("plan-choice flips: %d (issue gates >= 1), overrides: %llu\n\n",
              flips, static_cast<unsigned long long>(overrides));
  report->Add("flip.flips", flips);
  report->Add("flip.result_rows", static_cast<double>(flip_warm.rows));
  report->Add("learning.overrides", static_cast<double>(overrides));
  report->Gate(flips >= 1, "no plan flip: cold=%s warm=%s equal_results=%d",
               name_of(cold_verdict).c_str(), name_of(warm_verdict).c_str(),
               same_results ? 1 : 0);

  // ---- Part 3: byte-identical persistence through the catalog.
  const std::string path = "BENCH_learning_scratch.db";
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  DatabaseOptions popts;
  popts.path = path;
  popts.pool_pages = 512;
  std::string blob_before;
  {
    DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Database> pdb,
                            Database::Create(popts));
    DYNOPT_ASSIGN_OR_RETURN(Table * ptable, BuildFamilies(pdb.get(), 800, 42));
    DYNOPT_RETURN_IF_ERROR(ptable->CreateIndex("by_age", {"age"}).status());
    pdb->learning()->set_mode(LearningMode::kLearn);
    RetrievalSpec pspec;
    pspec.table = ptable;
    pspec.restriction = Predicate::Between(1, Operand::HostVar("lo"),
                                           Operand::HostVar("hi"));
    pspec.projection = {0, 1};
    DynamicRetrieval pengine(pdb.get(), pspec);
    for (int round = 0; round < 2; ++round) {
      for (int64_t lo : {10, 30, 50}) {
        ParamMap p{{"lo", Value(lo)}, {"hi", Value(lo + 10)}};
        DYNOPT_RETURN_IF_ERROR(Drain(pdb.get(), &pengine, p).status());
      }
    }
    blob_before = pdb->learning()->Serialize();
    DYNOPT_RETURN_IF_ERROR(pdb->Close());
  }
  int byte_identical = 0;
  {
    DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Database> pdb,
                            Database::Open(popts));
    byte_identical = pdb->learning()->Serialize() == blob_before ? 1 : 0;
    DYNOPT_RETURN_IF_ERROR(pdb->Close());
  }
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  std::printf("persistence: model blob %s across Close/Open (%zu bytes)\n\n",
              byte_identical ? "byte-identical" : "DIVERGED",
              blob_before.size());
  report->Add("persist.byte_identical", byte_identical);
  report->Add("persist.blob_bytes", static_cast<double>(blob_before.size()));
  report->Gate(byte_identical == 1,
               "the model blob diverged across Close/Open");

  // ---- Part 4: controlled vs learn — identical results, inert counters.
  SessionWorkloadOptions wopts;
  wopts.sessions = 2;
  wopts.queries_per_session = 60;
  wopts.seed = 99;
  wopts.parametric = true;
  wopts.concurrent = false;
  Database cdb(DatabaseOptions{.pool_pages = 1024});
  Database ldb(DatabaseOptions{.pool_pages = 1024});
  Table* tables[2] = {nullptr, nullptr};
  Database* dbs[2] = {&cdb, &ldb};
  for (int i = 0; i < 2; ++i) {
    DYNOPT_ASSIGN_OR_RETURN(tables[i], BuildFamilies(dbs[i], 4000, 42));
    DYNOPT_RETURN_IF_ERROR(tables[i]->CreateIndex("by_id", {"id"}).status());
    DYNOPT_RETURN_IF_ERROR(tables[i]->CreateIndex("by_age", {"age"}).status());
  }
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport creport,
                          RunSessionWorkload(&cdb, tables[0], wopts));
  ldb.learning()->set_mode(LearningMode::kLearn);
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport lreport,
                          RunSessionWorkload(&ldb, tables[1], wopts));
  int hashes_equal = 1;
  for (size_t i = 0; i < creport.sessions.size(); ++i) {
    if (creport.sessions[i].result_hash != lreport.sessions[i].result_hash ||
        !creport.sessions[i].error.empty() ||
        !lreport.sessions[i].error.empty()) {
      hashes_equal = 0;
    }
  }
  uint64_t controlled_activity =
      cdb.metrics() != nullptr
          ? cdb.metrics()->Value("learning.observations") +
                cdb.metrics()->Value("learning.lookups") +
                cdb.metrics()->Value("learning.corrections_applied")
          : 0;
  std::printf("safety: controlled/learn result hashes %s, controlled "
              "learning activity: %llu\n\n",
              hashes_equal ? "equal" : "DIVERGED",
              static_cast<unsigned long long>(controlled_activity));
  report->Add("safety.hashes_equal", hashes_equal);
  report->Add("safety.controlled_activity",
              static_cast<double>(controlled_activity));
  report->Gate(hashes_equal == 1 && controlled_activity == 0,
               "controlled mode diverged from learn mode or was not inert");

  // ---- Dashboard: the learning section over the convergence DB.
  DashboardOptions dopts;
  dopts.title = "learned selectivity";
  dopts.learning_mode = std::string(LearningModeName(model->mode()));
  dopts.learning = model->DashboardRows();
  if (db.metrics() != nullptr) {
    std::printf("%s\n", RenderDashboard(*db.metrics(), dopts).c_str());
  }

  std::printf(
      "\nThe estimation-feedback loop is closed: executions deposit what\n"
      "really happened, later executions of the class spend it — tighter\n"
      "estimates, and when the evidence is strong enough, a different\n"
      "winner in the §7 competition.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("learning");
  return report.Finish(dynopt::Run(&report));
}
