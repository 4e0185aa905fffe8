#include "plans.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using dynopt::CompareOp;
using dynopt::Operand;
using dynopt::PlanNode;
using dynopt::Predicate;
using dynopt::PredicateRef;
using dynopt::RowOperatorPtr;
using dynopt::Value;

namespace {

PredicateRef MakeRestriction(Restriction r) {
  auto var = [](const char* name) { return Operand::HostVar(name); };
  auto age = [&] { return Predicate::Between(kAge, var("alo"), var("ahi")); };
  auto income = [&] {
    return Predicate::Between(kIncome, var("ilo"), var("ihi"));
  };
  switch (r) {
    case Restriction::kId:
      return Predicate::Compare(kId, CompareOp::kEq, var("id"));
    case Restriction::kConj:
      return Predicate::And(
          {age(), income(), Predicate::Compare(kCity, CompareOp::kEq, var("city"))});
    case Restriction::kAgeIncome:
      return Predicate::And({age(), income()});
    case Restriction::kAnalytic:
      return Predicate::And(
          {age(), Predicate::Compare(kIncome, CompareOp::kLe, var("imax"))});
    case Restriction::kIncome:
      return income();
    case Restriction::kAll:
      break;
  }
  return Predicate::True();
}

int64_t AsInt(const Value& v) {
  return v.is_double() ? std::llround(v.AsDouble()) : v.AsInt64();
}

void Digest(const QueryShape& shape, const std::vector<std::vector<Value>>& rows,
            Outcome* out) {
  out->rows = rows.size();
  if (shape.top == Top::kCount || shape.top == Top::kSum ||
      shape.top == Top::kExists) {
    if (!rows.empty() && !rows[0].empty()) out->value = AsInt(rows[0][0]);
    return;
  }
  std::optional<size_t> order_pos;
  if (shape.top == Top::kSort) order_pos = shape.column;
  if (shape.order_by.has_value()) {
    auto it = std::find(shape.projection.begin(), shape.projection.end(),
                        *shape.order_by);
    order_pos = static_cast<size_t>(it - shape.projection.begin());
  }
  size_t id_pos = static_cast<size_t>(
      std::find(shape.projection.begin(), shape.projection.end(), kId) -
      shape.projection.begin());
  for (size_t i = 0; i < rows.size(); ++i) {
    uint64_t h = HashValues(rows[i]);
    if (shape.top == Top::kLimit) {
      int64_t id = id_pos < rows[i].size() ? AsInt(rows[i][id_pos]) : -1;
      out->kept.emplace_back(id, h);
    } else {
      out->set_hash += h;
    }
    if (order_pos.has_value() && i > 0 &&
        AsInt(rows[i][*order_pos]) < AsInt(rows[i - 1][*order_pos])) {
      out->ordered = false;
    }
  }
}

void AddSpans(const dynopt::ProfileSpan* span, ProfileSummary* out) {
  if (span->kind == dynopt::SpanKind::kCompetition) {
    out->raced = true;
    out->race_us += span->elapsed_micros;
  } else if (span->kind == dynopt::SpanKind::kStrategy) {
    const std::string& n = span->name;
    Strategy s = n == "tscan"         ? kTscan
                 : n == "sscan"       ? kSscan
                 : n == "fscan"       ? kFscan
                 : n == "jscan"       ? kJscan
                 : n == "final-fetch" ? kFinal
                                      : kFfFetch;
    out->strategy_us[s] += span->elapsed_micros;
    return;  // per-index children of a jscan span are inside its time
  }
  for (const dynopt::ProfileSpan* child : span->children) AddSpans(child, out);
}

}  // namespace

void BindParams(Restriction r, const Params& p, dynopt::ParamMap* out) {
  out->clear();
  switch (r) {
    case Restriction::kId:
      (*out)["id"] = Value(p.id);
      break;
    case Restriction::kConj:
      (*out)["city"] = Value(CityName(p.city));
      [[fallthrough]];
    case Restriction::kAgeIncome:
      (*out)["ilo"] = Value(p.ilo);
      (*out)["ihi"] = Value(p.ihi);
      [[fallthrough]];
    case Restriction::kAnalytic:
      (*out)["alo"] = Value(p.alo);
      (*out)["ahi"] = Value(p.ahi);
      if (r == Restriction::kAnalytic) (*out)["imax"] = Value(p.imax);
      break;
    case Restriction::kIncome:
      (*out)["ilo"] = Value(p.ilo);
      (*out)["ihi"] = Value(p.ihi);
      break;
    case Restriction::kAll:
      break;
  }
}

dynopt::Result<CompiledPlan> CompileShape(dynopt::Database* db,
                                          dynopt::Table* table,
                                          const QueryShape& shape,
                                          const dynopt::ParamMap* params,
                                          dynopt::QueryContext* ctx) {
  dynopt::RetrievalSpec spec;
  spec.table = table;
  spec.restriction = MakeRestriction(shape.restriction);
  spec.projection = shape.projection;
  spec.order_by_column = shape.order_by;
  std::unique_ptr<PlanNode> root = PlanNode::Retrieve(std::move(spec));
  switch (shape.top) {
    case Top::kNone:
      break;
    case Top::kLimit:
      root = PlanNode::Limit(std::move(root), shape.limit);
      break;
    case Top::kExists:
      root = PlanNode::Exists(std::move(root));
      break;
    case Top::kCount:
      root = PlanNode::Aggregate(std::move(root), dynopt::AggregateKind::kCount);
      break;
    case Top::kSum:
      root = PlanNode::Aggregate(std::move(root), dynopt::AggregateKind::kSum,
                                 shape.column);
      break;
    case Top::kSort:
      root = PlanNode::Sort(std::move(root), shape.column);
      break;
    case Top::kDistinct:
      root = PlanNode::Distinct(std::move(root));
      break;
  }
  dynopt::InferGoals(root.get(), dynopt::OptimizationGoal::kTotalTime);
  const PlanNode* leaf_node = root.get();
  while (leaf_node->child != nullptr) leaf_node = leaf_node->child.get();

  DYNOPT_ASSIGN_OR_RETURN(RowOperatorPtr op,
                          dynopt::CompilePlan(db, *leaf_node, params, ctx));
  CompiledPlan plan;
  plan.leaf = static_cast<dynopt::DynamicRetrievalOperator*>(op.get());
  if (shape.top != Top::kNone) {
    const char* name = "aggregate";
    switch (shape.top) {
      case Top::kLimit:
        op = std::make_unique<dynopt::LimitOperator>(std::move(op), shape.limit);
        name = "limit";
        break;
      case Top::kExists:
        op = std::make_unique<dynopt::ExistsOperator>(std::move(op));
        name = "exists";
        break;
      case Top::kCount:
        op = std::make_unique<dynopt::AggregateOperator>(
            std::move(op), dynopt::AggregateKind::kCount);
        break;
      case Top::kSum:
        op = std::make_unique<dynopt::AggregateOperator>(
            std::move(op), dynopt::AggregateKind::kSum, shape.column);
        break;
      case Top::kSort:
        op = std::make_unique<dynopt::SortOperator>(std::move(op), shape.column);
        name = "sort";
        break;
      case Top::kDistinct:
        op = std::make_unique<dynopt::DistinctOperator>(std::move(op));
        name = "distinct";
        break;
      case Top::kNone:
        break;
    }
    op->set_context(ctx);
    op = std::make_unique<dynopt::ProfilingOperator>(
        std::move(op), name, plan.leaf->engine()->profile_handle());
  }
  plan.root = std::move(op);
  return dynopt::Result<CompiledPlan>(std::move(plan));
}

Outcome Execute(const QueryShape& shape, CompiledPlan& plan, Timing* t) {
  // Rows accumulate here for the whole execution and are hashed only after
  // the last one arrives, so the timing holds no client-side work beyond
  // appending. Static so its capacity survives across queries.
  static std::vector<std::vector<Value>> rows;
  rows.clear();
  Outcome out;
  t->start = Clock::now();
  dynopt::Status st = plan.root->Open();
  t->opened = Clock::now();
  bool more = st.ok();
  while (more && rows.empty()) {
    auto r = plan.root->NextBatch(&rows, 1);
    if (!r.ok()) {
      st = r.status();
      break;
    }
    more = *r;
  }
  t->first = Clock::now();
  while (more && st.ok()) {
    auto r = plan.root->NextBatch(&rows);
    if (!r.ok()) {
      st = r.status();
      break;
    }
    more = *r;
  }
  t->end = Clock::now();
  out.ok = st.ok();
  if (out.ok) Digest(shape, rows, &out);
  rows.clear();
  return out;
}

ProfileSummary SummarizeProfile(dynopt::DynamicRetrieval* engine) {
  ProfileSummary s;
  engine->FinalizeProfile();
  if (engine->profile().active()) AddSpans(engine->profile().root(), &s);
  return s;
}

}  // namespace perfbench
