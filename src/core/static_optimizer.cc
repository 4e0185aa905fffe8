#include "core/static_optimizer.h"

#include <algorithm>
#include <sstream>

#include "core/access_path.h"

namespace dynopt {

namespace {

constexpr double kMagicEqSelectivity = 0.1;     // System R: col = :x
constexpr double kMagicRangeSelectivity = 1.0 / 3.0;  // System R: col > :x

}  // namespace

std::string StaticPlanChoice::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kTscan:
      os << "Tscan";
      break;
    case Kind::kFscan:
      os << "Fscan(" << index->name() << ")";
      break;
    case Kind::kSscan:
      os << "Sscan(" << index->name() << ")";
      break;
  }
  os << " est_cost=" << estimated_cost << " est_rids=" << estimated_rids;
  if (used_magic_selectivity) os << " [magic-selectivity]";
  return os.str();
}

Result<StaticPlanChoice> ChooseStaticPlan(
    Database* db, const RetrievalSpec& spec,
    const ParamMap& compile_time_params) {
  const CostWeights& w = db->cost_weights();
  std::set<uint32_t> needed = spec.NeededColumns();
  double table_rows = static_cast<double>(spec.table->record_count());

  StaticPlanChoice best;
  best.kind = StaticPlanChoice::Kind::kTscan;
  best.estimated_cost = EstimateTscanCost(spec, w);
  best.estimated_rids = table_rows;
  bool any_magic = false;

  for (const auto& index : spec.table->indexes()) {
    uint32_t col = index->leading_column();
    bool covered = std::includes(index->covered_columns().begin(),
                                 index->covered_columns().end(),
                                 needed.begin(), needed.end());
    // Order requirement: a frozen plan must deliver the requested order
    // itself; only order-needed indexes qualify when order is requested.
    if (spec.order_by_column.has_value() && col != *spec.order_by_column) {
      continue;
    }

    double est_rids;
    bool magic = false;
    auto range = ExtractRange(spec.restriction, col, compile_time_params);
    if (range.ok() && !range->IsAll()) {
      // Literal bounds: real compile-time statistics.
      DYNOPT_ASSIGN_OR_RETURN(RangeEstimate est,
                              index->tree()->EstimateRange(*range));
      est_rids = est.estimated_rids;
    } else if (range.ok()) {
      est_rids = static_cast<double>(index->tree()->entry_count());
    } else {
      // Host variables: fall back to the magic numbers.
      SargSummary sargs = SummarizeSargs(spec.restriction, col);
      double sel = 1.0;
      for (int i = 0; i < sargs.eq_conjuncts; ++i) sel *= kMagicEqSelectivity;
      for (int i = 0; i < sargs.range_conjuncts; ++i) {
        sel *= kMagicRangeSelectivity;
      }
      est_rids = sel * table_rows;
      magic = true;
      any_magic = true;
    }

    double fanout = std::max(index->tree()->AvgFanout(), 1.0);
    double scan_cost = EstimateIndexScanCost(est_rids, fanout, w);
    if (covered) {
      if (scan_cost < best.estimated_cost) {
        best.kind = StaticPlanChoice::Kind::kSscan;
        best.index = index.get();
        best.estimated_cost = scan_cost;
        best.estimated_rids = est_rids;
        best.used_magic_selectivity = magic;
      }
    }
    // Fscan: classic per-tuple random fetch costing (no page-cap — the
    // mean-point model the paper criticizes doesn't know about sorted
    // fetch batching).
    double fetch_cost =
        est_rids * (w.physical_read + w.logical_read + w.record_eval);
    double fscan_cost = scan_cost + fetch_cost;
    if (fscan_cost < best.estimated_cost) {
      best.kind = StaticPlanChoice::Kind::kFscan;
      best.index = index.get();
      best.estimated_cost = fscan_cost;
      best.estimated_rids = est_rids;
      best.used_magic_selectivity = magic;
    }
  }
  // Surface that compile time had to guess at all — even a Tscan pick was
  // then made blind to the actual parameter values.
  if (any_magic) best.used_magic_selectivity = true;
  return best;
}

StaticRetrieval::StaticRetrieval(Database* db, const RetrievalSpec& spec,
                                 StaticPlanChoice choice)
    : db_(db), spec_(spec), choice_(std::move(choice)) {}

Status StaticRetrieval::Open(const ParamMap& params) {
  params_ = params;
  if (choice_.kind == StaticPlanChoice::Kind::kTscan) {
    stepper_ = std::make_unique<TscanStepper>(db_->pool(), spec_, params_);
    return Status::OK();
  }
  DYNOPT_ASSIGN_OR_RETURN(
      choice_.range,
      ExtractRange(spec_.restriction, choice_.index->leading_column(),
                   params_));
  if (choice_.kind == StaticPlanChoice::Kind::kFscan) {
    stepper_ = std::make_unique<FscanStepper>(db_->pool(), spec_, params_,
                                              choice_.index,
                                              RangeSet::Of(choice_.range));
  } else {
    stepper_ = std::make_unique<SscanStepper>(db_->pool(), spec_, params_,
                                              choice_.index,
                                              RangeSet::Of(choice_.range));
  }
  return Status::OK();
}

Result<bool> StaticRetrieval::NextBatch(RowBatch* out) {
  if (stepper_ == nullptr) {
    return Status::Internal("StaticRetrieval::NextBatch before Open");
  }
  out->Reset(spec_.projection.size());
  DYNOPT_ASSIGN_OR_RETURN(bool more, stepper_->Step());
  if (!more) return false;
  const RowBatch& step = stepper_->output();
  out->Append(step, step.sel().data(), step.sel().size(),
              spec_.projection.data());
  return true;
}

}  // namespace dynopt
