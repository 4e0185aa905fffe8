// Query plans and goal inference (§4).
//
// A PlanNode tree is the lightweight description of a query: retrieval
// leaves under chains of SORT / DISTINCT / LIMIT / EXISTS / aggregate
// nodes. Before execution, InferGoals() walks the tree and sets each
// retrieval's optimization goal from the node that immediately controls
// it, exactly as §4 prescribes:
//
//   EXISTS or LIMIT controls the retrieval  → fast-first
//   SORT / DISTINCT / aggregate controls it → total-time
//   no controlling node                     → explicit user request
//                                             (OPTIMIZE FOR ...) or default
//
// CompilePlan() then lowers the tree to volcano operators with
// DynamicRetrieval engines at the leaves. A retrieval asked for an order
// it cannot deliver from an index is wrapped in a sort transparently.

#ifndef DYNOPT_CORE_PLAN_H_
#define DYNOPT_CORE_PLAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "exec/operators.h"
#include "exec/retrieval_spec.h"

namespace dynopt {

struct PlanNode {
  enum class Kind : uint8_t {
    kRetrieve,
    kSort,
    kDistinct,
    kLimit,
    kExists,
    kAggregate,
  };

  Kind kind = Kind::kRetrieve;
  std::unique_ptr<PlanNode> child;  // null for kRetrieve

  // kRetrieve payload:
  RetrievalSpec spec;
  RetrievalOptions retrieval_options;

  // other payloads (positions are into the child's output row):
  size_t column = 0;       // kSort / kAggregate
  uint64_t limit = 0;      // kLimit
  AggregateKind agg = AggregateKind::kCount;

  static std::unique_ptr<PlanNode> Retrieve(RetrievalSpec spec);
  static std::unique_ptr<PlanNode> Sort(std::unique_ptr<PlanNode> child,
                                        size_t column);
  static std::unique_ptr<PlanNode> Distinct(std::unique_ptr<PlanNode> child);
  static std::unique_ptr<PlanNode> Limit(std::unique_ptr<PlanNode> child,
                                         uint64_t n);
  static std::unique_ptr<PlanNode> Exists(std::unique_ptr<PlanNode> child);
  static std::unique_ptr<PlanNode> Aggregate(std::unique_ptr<PlanNode> child,
                                             AggregateKind kind,
                                             size_t column = 0);
};

/// §4 goal inference over the whole plan.
void InferGoals(PlanNode* root, OptimizationGoal default_goal);

/// Volcano leaf wrapping a DynamicRetrieval engine: its batches are the
/// engine's own. Re-optimizes on every Open() with the current contents of
/// `*params`. If the spec requests an order the engine cannot deliver, the
/// operator sorts transparently. The attached governance context
/// (set_context) is handed to the engine at each Open, so cancellation/
/// deadline/budget and degraded fallback apply to the whole execution.
/// When a degraded fallback disqualifies the ordered strategy mid-flight,
/// the operator notices delivers_order() flipping and sorts the remaining
/// rows before handing them out (rows already emitted are a sorted prefix:
/// the ordered scan delivered them in key order and the fallback
/// deduplicates them). Both sorts are SORT's own (RowBuffer).
class DynamicRetrievalOperator final : public RowOperator {
 public:
  DynamicRetrievalOperator(Database* db, RetrievalSpec spec,
                           RetrievalOptions options, const ParamMap* params);

  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

  DynamicRetrieval* engine() { return &engine_; }

 private:
  /// Drains the engine into sorted_ after `first` (rows already pulled;
  /// null at Open) and sorts it on the order column; later pulls serve it.
  Status ResortRemainder(const RowBatch* first);

  RetrievalSpec spec_;
  const ParamMap* params_;
  DynamicRetrieval engine_;
  bool sort_fallback_ = false;
  std::optional<size_t> order_pos_;  // order column's projected position
  RowBuffer sorted_;
  RowBatch drain_;  // ResortRemainder's pull
};

/// Lowers the plan to an operator tree. `params` must outlive the
/// operators (host variables are read at each Open()). `ctx` (optional,
/// must outlive the operators) governs every operator and retrieval
/// engine in the tree.
Result<RowOperatorPtr> CompilePlan(Database* db, const PlanNode& plan,
                                   const ParamMap* params,
                                   QueryContext* ctx = nullptr);

}  // namespace dynopt

#endif  // DYNOPT_CORE_PLAN_H_
