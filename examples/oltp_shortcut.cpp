// OLTP shortcuts (§5): short transactions against an ORDERS table.
//
// Point lookups and tiny ranges dominate OLTP. The initial stage's
// estimation order, short-range shortcut and empty-range shortcut mean a
// typical transaction touches a handful of index pages and nothing else —
// "instrumental in achieving high performance of short OLTP transactions".
//
//   build/examples/oltp_shortcut

#include <cstdio>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "workload/workload.h"

using namespace dynopt;

int main() {
  Database db(DatabaseOptions{.pool_pages = 2048});
  auto orders_or = BuildOrders(&db, 100000, /*zipf_theta=*/1.0);
  if (!orders_or.ok()) {
    std::printf("setup failed: %s\n", orders_or.status().ToString().c_str());
    return 1;
  }
  Table* orders = *orders_or;
  orders->CreateIndex("by_order_id", {"order_id"}).ok();
  orders->CreateIndex("by_customer", {"customer"}).ok();

  // Transaction 1: point lookup by primary key.
  // select * from ORDERS where order_id = :id
  RetrievalSpec point;
  point.table = orders;
  point.restriction =
      Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id"));
  point.projection = {0, 1, 2, 3, 4};
  DynamicRetrieval point_engine(&db, point);
  RowBatch batch;  // each pull's rows, column j = projection column j

  Rng rng(1);
  CostMeter before = db.meter();
  uint64_t found = 0;
  const int kTxns = 1000;
  for (int t = 0; t < kTxns; ++t) {
    ParamMap params{{"id", Value(rng.NextInt(0, 99999))}};
    point_engine.Open(params).ok();
    for (;;) {
      auto more = point_engine.NextBatch(&batch);
      if (!more.ok() || !*more) break;
      found += batch.num_rows();
    }
  }
  CostMeter delta = db.meter() - before;
  std::printf("point lookups: %d txns, %llu rows, %.1f logical reads/txn "
              "(tactic: %s)\n",
              kTxns, static_cast<unsigned long long>(found),
              static_cast<double>(delta.logical_reads) / kTxns,
              std::string(TacticName(point_engine.tactic())).c_str());

  // Transaction 2: lookups of non-existent orders — the empty-range
  // shortcut "cancels all retrieval stages and delivers end-of-data".
  before = db.meter();
  for (int t = 0; t < kTxns; ++t) {
    ParamMap params{{"id", Value(int64_t{1000000 + t})}};
    point_engine.Open(params).ok();
    auto more = point_engine.NextBatch(&batch);
    if (more.ok() && *more) std::printf("unexpected row!\n");
  }
  delta = db.meter() - before;
  std::printf("missing-key lookups: %.1f logical reads/txn (tactic: %s)\n",
              static_cast<double>(delta.logical_reads) / kTxns,
              std::string(TacticName(point_engine.tactic())).c_str());

  // Transaction 3: a customer's recent orders (tiny range on a skewed
  // column) — cold customers shortcut, hot customers go through Jscan.
  RetrievalSpec cust;
  cust.table = orders;
  cust.restriction =
      Predicate::Compare(1, CompareOp::kEq, Operand::HostVar("c"));
  cust.projection = {0, 1, 2};
  DynamicRetrieval cust_engine(&db, cust);
  for (int64_t customer : {9000LL, 42LL, 0LL}) {  // cold, warm, hottest
    before = db.meter();
    ParamMap params{{"c", Value(customer)}};
    cust_engine.Open(params).ok();
    uint64_t rows = 0;
    for (;;) {
      auto more = cust_engine.NextBatch(&batch);
      if (!more.ok() || !*more) break;
      rows += batch.num_rows();
    }
    delta = db.meter() - before;
    std::printf("customer %lld: %llu orders, cost %.0f (tactic: %s)\n",
                static_cast<long long>(customer),
                static_cast<unsigned long long>(rows),
                delta.Cost(db.cost_weights()),
                std::string(TacticName(cust_engine.tactic())).c_str());
  }
  return 0;
}
