// Quickstart: create a database, load a table, build indexes, and run the
// same parametric query twice — watching the dynamic optimizer pick a
// different strategy per execution (the paper's §4 example).
//
//   build/examples/quickstart

#include <cstdio>

#include "catalog/database.h"
#include "core/explain.h"
#include "core/retrieval.h"
#include "workload/workload.h"

using namespace dynopt;

int main() {
  // A database is a buffer pool + cost meter + catalog. 512 pages = 4 MiB.
  Database db(DatabaseOptions{.pool_pages = 512});

  // FAMILIES(id, age, income, city) with 20k synthetic rows.
  auto table_or = BuildFamilies(&db, 20000, 42, /*payload_bytes=*/300);
  if (!table_or.ok()) {
    std::printf("setup failed: %s\n", table_or.status().ToString().c_str());
    return 1;
  }
  Table* families = *table_or;
  families->CreateIndex("by_age", {"age"}).ok();

  // select id, age, income from FAMILIES where AGE >= :A1
  RetrievalSpec spec;
  spec.table = families;
  spec.restriction =
      Predicate::Compare(1, CompareOp::kGe, Operand::HostVar("A1"));
  spec.projection = {0, 1, 2};

  DynamicRetrieval engine(&db, spec);

  for (int64_t a1 : {97, 0, 200}) {
    ParamMap params{{"A1", Value(a1)}};
    CostMeter before = db.meter();
    if (Status st = engine.Open(params); !st.ok()) {
      std::printf("open failed: %s\n", st.ToString().c_str());
      return 1;
    }
    // Rows arrive as column batches: column j is projection column j.
    RowBatch batch;
    uint64_t rows = 0;
    for (;;) {
      auto more = engine.NextBatch(&batch);
      if (!more.ok()) {
        std::printf("error: %s\n", more.status().ToString().c_str());
        return 1;
      }
      if (!*more) break;
      for (uint32_t r = 0; r < batch.num_rows(); ++r) {
        if (++rows <= 3) {
          std::printf("    id=%lld age=%lld income=%lld\n",
                      static_cast<long long>(batch.col(0).ValueAt(r).AsInt64()),
                      static_cast<long long>(batch.col(1).ValueAt(r).AsInt64()),
                      static_cast<long long>(batch.col(2).ValueAt(r).AsInt64()));
        }
      }
    }
    double cost = (db.meter() - before).Cost(db.cost_weights());
    std::printf("  :A1 = %lld -> %llu rows, cost %.0f units\n",
                static_cast<long long>(a1),
                static_cast<unsigned long long>(rows), cost);
    std::printf("  engine decisions:\n");
    for (const TraceEvent& e : engine.events().events()) {
      std::printf("    %s\n", FormatTraceEvent(e).c_str());
    }
    std::printf("\n");
  }
  // The full dynamic-execution report (the paper's user-visible metrics).
  {
    ParamMap params{{"A1", Value(int64_t{42})}};
    engine.Open(params).ok();
    RowBatch batch;
    for (;;) {
      auto more = engine.NextBatch(&batch);
      if (!more.ok() || !*more) break;
    }
    std::printf("%s\n", ExplainExecution(engine).c_str());
  }
  std::printf("Same query, three executions, three different strategies —\n"
              "that is dynamic query optimization.\n");
  return 0;
}
