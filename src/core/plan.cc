#include "core/plan.h"

#include <algorithm>

namespace dynopt {

std::unique_ptr<PlanNode> PlanNode::Retrieve(RetrievalSpec spec) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kRetrieve;
  node->spec = std::move(spec);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Sort(std::unique_ptr<PlanNode> child,
                                         size_t column) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kSort;
  node->child = std::move(child);
  node->column = column;
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Distinct(std::unique_ptr<PlanNode> child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kDistinct;
  node->child = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Limit(std::unique_ptr<PlanNode> child,
                                          uint64_t n) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kLimit;
  node->child = std::move(child);
  node->limit = n;
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Exists(std::unique_ptr<PlanNode> child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kExists;
  node->child = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Aggregate(std::unique_ptr<PlanNode> child,
                                              AggregateKind kind,
                                              size_t column) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kAggregate;
  node->child = std::move(child);
  node->agg = kind;
  node->column = column;
  return node;
}

namespace {

enum class Controller : uint8_t { kNone, kFastFirst, kTotalTime };

void InferInto(PlanNode* node, Controller controller,
               OptimizationGoal default_goal) {
  switch (node->kind) {
    case PlanNode::Kind::kRetrieve:
      if (!node->spec.goal_is_explicit) {
        switch (controller) {
          case Controller::kFastFirst:
            node->spec.goal = OptimizationGoal::kFastFirst;
            break;
          case Controller::kTotalTime:
            node->spec.goal = OptimizationGoal::kTotalTime;
            break;
          case Controller::kNone:
            node->spec.goal = default_goal;
            break;
        }
      }
      return;
    case PlanNode::Kind::kLimit:
    case PlanNode::Kind::kExists:
      controller = Controller::kFastFirst;
      break;
    case PlanNode::Kind::kSort:
    case PlanNode::Kind::kDistinct:
    case PlanNode::Kind::kAggregate:
      controller = Controller::kTotalTime;
      break;
  }
  if (node->child != nullptr) {
    InferInto(node->child.get(), controller, default_goal);
  }
}

}  // namespace

void InferGoals(PlanNode* root, OptimizationGoal default_goal) {
  InferInto(root, Controller::kNone, default_goal);
}

DynamicRetrievalOperator::DynamicRetrievalOperator(Database* db,
                                                   RetrievalSpec spec,
                                                   RetrievalOptions options,
                                                   const ParamMap* params)
    : spec_(spec),
      params_(params),
      engine_(db, std::move(spec), std::move(options)) {}

Status DynamicRetrievalOperator::Open() {
  sorted_.Clear();
  sort_fallback_ = false;
  order_pos_.reset();
  DYNOPT_RETURN_IF_ERROR(engine_.Open(*params_, ctx_));
  if (spec_.order_by_column.has_value()) {
    auto it = std::find(spec_.projection.begin(), spec_.projection.end(),
                        *spec_.order_by_column);
    if (it != spec_.projection.end()) {
      order_pos_ = static_cast<size_t>(it - spec_.projection.begin());
    }
  }
  if (spec_.order_by_column.has_value() && !engine_.delivers_order()) {
    // No order-needed index: materialize and sort on the projected
    // position of the order column.
    if (!order_pos_.has_value()) {
      return Status::InvalidArgument(
          "ORDER BY column must be projected for sort fallback");
    }
    return ResortRemainder(nullptr);
  }
  return Status::OK();
}

Status DynamicRetrievalOperator::ResortRemainder(const RowBatch* first) {
  if (!order_pos_.has_value()) {
    // The engine degraded mid-flight and the order column is not
    // projected: there is nothing to sort on, and streaming misordered
    // rows would be silently wrong.
    return Status::NotSupported(
        "ordered retrieval degraded mid-flight but the ORDER BY column is "
        "not projected: cannot restore order");
  }
  sorted_.Clear();
  if (first != nullptr) sorted_.Append(*first);
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, engine_.NextBatch(&drain_));
    if (!more) break;
    sorted_.Append(drain_);
  }
  sorted_.SortBy(*order_pos_);
  sort_fallback_ = true;
  return Status::OK();
}

Result<bool> DynamicRetrievalOperator::NextBatch(RowBatch* out,
                                                 size_t max_rows) {
  if (sort_fallback_) return sorted_.Serve(out, max_rows);
  DYNOPT_ASSIGN_OR_RETURN(bool more, engine_.NextBatch(out, max_rows));
  if (spec_.order_by_column.has_value() && !engine_.delivers_order()) {
    // The engine lost its ordered strategy to an I/O fault during this
    // pull (degraded fallback flips delivers_order). Rows already emitted
    // form a sorted prefix — the ordered scan delivered them in key order
    // and the fallback deduplicates them — so sorting the remainder (this
    // pull's rows, all produced after the flip, plus everything still in
    // the engine) continues the sequence.
    DYNOPT_RETURN_IF_ERROR(ResortRemainder(out));
    return sorted_.Serve(out, max_rows);
  }
  return more;
}

namespace {

/// Lowers one node; `profile` carries the retrieval leaf's QueryProfile up
/// the recursion so operators above it can register their spans. Only one
/// leaf exists per plan (single-table retrieval), so the last leaf wins.
Result<RowOperatorPtr> CompileNode(Database* db, const PlanNode& plan,
                                   const ParamMap* params, QueryContext* ctx,
                                   QueryProfile** profile) {
  if (plan.kind == PlanNode::Kind::kRetrieve) {
    auto leaf = std::make_unique<DynamicRetrievalOperator>(
        db, plan.spec, plan.retrieval_options, params);
    if (plan.retrieval_options.profile) {
      *profile = leaf->engine()->profile_handle();
    }
    // The leaf itself is never wrapped: its engine owns the profile root
    // and times itself, and callers downcast the plan root when the plan
    // is a bare retrieval.
    leaf->set_context(ctx);
    return RowOperatorPtr(std::move(leaf));
  }
  DYNOPT_ASSIGN_OR_RETURN(RowOperatorPtr child,
                          CompileNode(db, *plan.child, params, ctx, profile));
  RowOperatorPtr op;
  std::string_view name;
  switch (plan.kind) {
    case PlanNode::Kind::kSort:
      op = std::make_unique<SortOperator>(std::move(child), plan.column);
      name = "sort";
      break;
    case PlanNode::Kind::kDistinct:
      op = std::make_unique<DistinctOperator>(std::move(child));
      name = "distinct";
      break;
    case PlanNode::Kind::kLimit:
      op = std::make_unique<LimitOperator>(std::move(child), plan.limit);
      name = "limit";
      break;
    case PlanNode::Kind::kExists:
      op = std::make_unique<ExistsOperator>(std::move(child));
      name = "exists";
      break;
    case PlanNode::Kind::kAggregate:
      op = std::make_unique<AggregateOperator>(std::move(child), plan.agg,
                                               plan.column);
      name = "aggregate";
      break;
    case PlanNode::Kind::kRetrieve:
      break;
  }
  if (op == nullptr) return Status::Internal("unknown plan node kind");
  op->set_context(ctx);
  if (*profile != nullptr) {
    op = std::make_unique<ProfilingOperator>(std::move(op), std::string(name),
                                             *profile);
  }
  return op;
}

}  // namespace

Result<RowOperatorPtr> CompilePlan(Database* db, const PlanNode& plan,
                                   const ParamMap* params, QueryContext* ctx) {
  QueryProfile* profile = nullptr;
  return CompileNode(db, plan, params, ctx, &profile);
}

}  // namespace dynopt
