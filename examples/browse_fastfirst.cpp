// Browsing with fast-first delivery and goal inference (§4, §7).
//
// A UI shows the first page of matching orders sorted by day. The plan is
// LIMIT 20 over ORDER BY day over a restriction — goal inference marks the
// retrieval fast-first (LIMIT controls it), the engine picks the Sorted
// tactic (order-needed Fscan racing a Jscan filter builder), and the user
// "closing the cursor" after one page is exactly the early termination
// fast-first optimizes for.
//
// Also demonstrates the paper's §4 goal-inference example plan shapes.
//
//   build/examples/browse_fastfirst

#include <cstdio>

#include "catalog/database.h"
#include "core/plan.h"
#include "workload/workload.h"

using namespace dynopt;

int main() {
  Database db(DatabaseOptions{.pool_pages = 1024});
  auto orders_or = BuildOrders(&db, 120000, /*zipf_theta=*/0.8);
  if (!orders_or.ok()) {
    std::printf("setup failed: %s\n", orders_or.status().ToString().c_str());
    return 1;
  }
  Table* orders = *orders_or;
  orders->CreateIndex("by_day", {"day"}).ok();
  orders->CreateIndex("by_amount", {"amount"}).ok();

  // select order_id, day, amount from ORDERS
  //  where amount >= :min_amount order by day limit 20
  RetrievalSpec spec;
  spec.table = orders;
  spec.restriction =
      Predicate::Compare(2, CompareOp::kGe, Operand::HostVar("min_amount"));
  spec.projection = {0, 4, 2};
  spec.order_by_column = 4;  // day

  auto plan = PlanNode::Limit(PlanNode::Retrieve(spec), 20);
  InferGoals(plan.get(), OptimizationGoal::kTotalTime);
  std::printf("goal inferred for the retrieval under LIMIT: %s\n\n",
              std::string(GoalName(plan->child->spec.goal)).c_str());

  ParamMap params{{"min_amount", Value(int64_t{99000})}};  // rare amounts
  auto op_or = CompilePlan(&db, *plan, &params);
  if (!op_or.ok()) {
    std::printf("compile failed: %s\n", op_or.status().ToString().c_str());
    return 1;
  }
  RowOperatorPtr op = std::move(*op_or);

  CostMeter before = db.meter();
  if (Status st = op->Open(); !st.ok()) {
    std::printf("open failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The row adapter, one row per pull: LIMIT stops the retrieval as soon
  // as the page is full.
  std::vector<std::vector<Value>> rows;
  int shown = 0;
  int64_t last_day = -1;
  for (;;) {
    rows.clear();
    auto more = op->NextBatch(&rows, 1);
    if (!more.ok() || !*more) break;
    if (rows.empty()) continue;
    const std::vector<Value>& row = rows[0];
    shown++;
    int64_t day = row[1].AsInt64();
    if (day < last_day) std::printf("ORDER VIOLATION\n");
    last_day = day;
    if (shown <= 5) {
      std::printf("  order %-7lld day %-4lld amount %lld\n",
                  static_cast<long long>(row[0].AsInt64()),
                  static_cast<long long>(day),
                  static_cast<long long>(row[2].AsInt64()));
    }
  }
  double cost = (db.meter() - before).Cost(db.cost_weights());
  std::printf("  ... first page: %d rows in day order, cost %.0f units\n\n",
              shown, cost);

  // The paper's §4 nested example, as plan shapes:
  //   select * from A where A.X in (
  //     select distinct Y from B where B.Y in (
  //       select Z from C limit to 2 rows))
  //   optimize for total time;
  RetrievalSpec a = spec, b = spec, c = spec;  // same table, shape demo only
  a.goal = OptimizationGoal::kTotalTime;
  a.goal_is_explicit = true;  // explicit cursor request
  auto plan_c = PlanNode::Limit(PlanNode::Retrieve(c), 2);
  auto plan_b = PlanNode::Distinct(PlanNode::Retrieve(b));
  auto plan_a = PlanNode::Retrieve(a);
  InferGoals(plan_c.get(), OptimizationGoal::kTotalTime);
  InferGoals(plan_b.get(), OptimizationGoal::kTotalTime);
  InferGoals(plan_a.get(), OptimizationGoal::kTotalTime);
  std::printf("the paper's example resolves to:\n");
  std::printf("  table C (under LIMIT TO 2 ROWS): %s\n",
              std::string(GoalName(plan_c->child->spec.goal)).c_str());
  std::printf("  table B (under DISTINCT):        %s\n",
              std::string(GoalName(plan_b->child->spec.goal)).c_str());
  std::printf("  table A (explicit request):      %s\n",
              std::string(GoalName(plan_a->spec.goal)).c_str());
  return 0;
}
