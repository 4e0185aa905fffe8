// §6 experiment: dynamically-controlled Jscan vs the statically-
// thresholded joint scan of Mohan et al. [MoHa90].
//
// The static variant decides from initial estimates only and never aborts
// a scan it started; the dynamic variant re-projects the final retrieval
// cost from the live keep rate and ratchets the guaranteed best down as
// lists complete. Two workloads separate them:
//
//   correlated   — two restrictions whose ranges look equally selective
//                  but select the *same* rows (b tracks a), so the second
//                  index scan shrinks nothing: the paper's "one
//                  ill-predicted alternative execution cost ... can put
//                  further execution off-balance";
//   independent  — a control where intersection genuinely pays and both
//                  variants should perform alike (dynamic overhead ~ 0).

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/database.h"
#include "core/access_path.h"
#include "core/jscan.h"
#include "harness.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 60000;

struct Outcome {
  double cost = 0;
  uint64_t final_rids = 0;
  int completed = 0, discarded = 0, skipped = 0;
};

Result<Outcome> RunJscan(Database* db, const RetrievalSpec& spec,
                         bool dynamic) {
  DYNOPT_RETURN_IF_ERROR(db->pool()->EvictAll());
  ParamMap params;
  DYNOPT_ASSIGN_OR_RETURN(AccessPathAnalysis analysis,
                          AnalyzeAccessPaths(spec, params));
  std::vector<const IndexClassification*> cands;
  for (size_t pos : analysis.jscan_order) {
    cands.push_back(&analysis.indexes[pos]);
  }
  Jscan::Options opt;
  opt.dynamic_thresholds = dynamic;
  CostMeter before = db->meter();
  Jscan jscan(db, spec, params, cands, opt);
  TraceLog log;
  jscan.set_trace(&log);
  DYNOPT_RETURN_IF_ERROR(jscan.RunToCompletion());
  // Charge the full retrieval either way: drain the final RID list like
  // Fin would, or fall back to the recommended table scan.
  std::string bytes;
  if (jscan.phase() == Jscan::Phase::kComplete) {
    for (const Rid& r : jscan.final_list()->ToSortedVector()) {
      DYNOPT_RETURN_IF_ERROR(spec.table->heap()->Fetch(r, &bytes));
    }
  } else {
    auto cursor = spec.table->heap()->NewCursor();
    Rid rid;
    for (;;) {
      DYNOPT_ASSIGN_OR_RETURN(bool more, cursor.Next(&bytes, &rid));
      if (!more) break;
    }
  }
  Outcome out;
  out.cost = (db->meter() - before).Cost(db->cost_weights());
  if (jscan.final_list() != nullptr) out.final_rids = jscan.final_list()->size();
  for (const TraceEvent& e : log.events()) {
    if (e.kind != TraceEventKind::kJscanIndexOutcome) continue;
    if (e.detail == "completed") out.completed++;
    if (e.detail == "discarded") out.discarded++;
    if (e.detail == "skipped") out.skipped++;
  }
  return out;
}

Status RunScenario(const char* name, const char* key, Table* table,
                   Database* db, PredicateRef pred, Report* report) {
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = std::move(pred);
  spec.projection = {0};

  DYNOPT_ASSIGN_OR_RETURN(Outcome dyn, RunJscan(db, spec, /*dynamic=*/true));
  DYNOPT_ASSIGN_OR_RETURN(Outcome sta, RunJscan(db, spec, /*dynamic=*/false));
  std::printf("%-34s | %9.0f %9.0f | %6.2fx | dyn(c/d/s)=%d/%d/%d "
              "sta=%d/%d/%d | rids dyn=%llu sta=%llu\n",
              name, dyn.cost, sta.cost, sta.cost / std::max(dyn.cost, 1.0),
              dyn.completed, dyn.discarded, dyn.skipped, sta.completed,
              sta.discarded, sta.skipped,
              static_cast<unsigned long long>(dyn.final_rids),
              static_cast<unsigned long long>(sta.final_rids));
  std::string k(key);
  report->Add(k + ".dyn_cost", dyn.cost);
  report->Add(k + ".static_cost", sta.cost);
  report->Add(k + ".speedup", sta.cost / std::max(dyn.cost, 1.0));
  report->Add(k + ".dyn_final_rids", static_cast<double>(dyn.final_rids));
  report->Add(k + ".dyn_discarded", dyn.discarded);
  report->Add(k + ".static_discarded", sta.discarded);
  return Status::OK();
}

/// Builds `spec` with indexes <prefix>_a, <prefix>_b and <prefix>_c.
Result<Table*> BuildIndexed(Database* db, const TableSpec& spec,
                            uint64_t seed, const std::string& prefix) {
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildTable(db, spec, kRows, seed));
  for (const char* col : {"a", "b", "c"}) {
    DYNOPT_RETURN_IF_ERROR(
        table->CreateIndex(prefix + "_" + col, {col}).status());
  }
  return table;
}

Status Run(Report* report) {
  std::printf("=== §6: dynamic two-stage Jscan vs static-threshold "
              "[MoHa90] ===\n\n");
  Database db(DatabaseOptions{.pool_pages = 1024});

  // Value-correlated, physically scattered: b and c track a (+ noise), so
  // any range on b or c that contains the matching rows shrinks nothing —
  // but their estimates look reasonable to a static optimizer.
  TableSpec ct;
  ct.name = "corr";
  ct.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"a", ValueType::kInt64}, UniformInt(0, 99999)},
      {{"b", ValueType::kInt64}, DerivedInt(1, 500)},
      {{"c", ValueType::kInt64}, DerivedInt(1, 500)},
  };
  DYNOPT_ASSIGN_OR_RETURN(Table * corr, BuildIndexed(&db, ct, 7, "corr"));

  // Independent control: same shapes, no correlation.
  TableSpec it;
  it.name = "indep";
  it.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"a", ValueType::kInt64}, UniformInt(0, 99999)},
      {{"b", ValueType::kInt64}, UniformInt(0, 99999)},
      {{"c", ValueType::kInt64}, UniformInt(0, 99999)},
  };
  DYNOPT_ASSIGN_OR_RETURN(Table * indep, BuildIndexed(&db, it, 8, "ind"));

  // a narrowly restricted; b and c with wide ranges that contain all the
  // a-matches (guaranteed on the correlated table by the +noise bound).
  auto pred = [](int64_t x, int64_t narrow, int64_t wide) {
    return Predicate::And(
        {Predicate::Between(1, Operand::Literal(Value(x)),
                            Operand::Literal(Value(x + narrow))),
         Predicate::Between(2, Operand::Literal(Value(x - 1000)),
                            Operand::Literal(Value(x + wide))),
         Predicate::Between(3, Operand::Literal(Value(x - 1000)),
                            Operand::Literal(Value(x + wide)))});
  };

  std::printf("%-34s | %9s %9s | %7s | per-index outcomes | final lists\n",
              "scenario", "dyn cost", "static", "speedup");
  for (auto [wide, label, key] :
       std::vector<std::tuple<int64_t, const char*, const char*>>{
           {10000, "correlated, wide ranges 10%", "corr10"},
           {20000, "correlated, wide ranges 20%", "corr20"},
           {30000, "correlated, wide ranges 30%", "corr30"}}) {
    DYNOPT_RETURN_IF_ERROR(
        RunScenario(label, key, corr, &db, pred(40000, 300, wide), report));
  }
  for (auto [wide, label, key] :
       std::vector<std::tuple<int64_t, const char*, const char*>>{
           {10000, "independent, wide ranges 10%", "indep10"},
           {30000, "independent, wide ranges 30%", "indep30"}}) {
    DYNOPT_RETURN_IF_ERROR(
        RunScenario(label, key, indep, &db, pred(40000, 300, wide), report));
  }
  report->AddMeter("meter", db.meter());
  std::printf(
      "\nExpected shape: on correlated data the dynamic variant aborts the\n"
      "non-shrinking wide scans within a few dozen entries while [MoHa90]\n"
      "runs them to completion; on independent data the wide scans do\n"
      "shrink the list, and the two variants behave alike.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("jscan");
  return report.Finish(dynopt::Run(&report));
}
