#include "core/access_path.h"

#include "stats/estimator.h"

#include <algorithm>
#include <cmath>

namespace dynopt {

namespace {

// Exactly-resolved ranges at or below this size trigger the short-range
// shortcut: estimation stops and the entries become the final list.
constexpr uint64_t kTinyRangeThreshold = 20;
constexpr uint64_t kSamplingSeed = 0x5eed;

}  // namespace

double EstimateTscanCost(const RetrievalSpec& spec, const CostWeights& w) {
  double pages = static_cast<double>(spec.table->heap()->pages().size());
  double records = static_cast<double>(spec.table->record_count());
  // Pessimistic cold-cache sequential read plus per-record evaluation.
  return pages * (w.physical_read + w.logical_read) + records * w.record_eval;
}

double EstimateFetchCost(double rids, const RetrievalSpec& spec,
                         const CostWeights& w) {
  // Distinct pages touched by `rids` random records over `pages` pages —
  // the Cardenas approximation P·(1−(1−1/P)^r). A sorted final RID list
  // reads each touched page exactly once, which is what makes shrinking
  // the list worthwhile even below one-RID-per-page density.
  double pages = static_cast<double>(spec.table->heap()->pages().size());
  double page_touches =
      pages > 0 ? pages * (1.0 - std::pow(1.0 - 1.0 / pages, rids)) : 0.0;
  return page_touches * w.physical_read +
         rids * (w.logical_read + w.record_eval);
}

double FetchCostFromPages(double pages, double rids, const CostWeights& w) {
  return pages * w.physical_read + rids * (w.logical_read + w.record_eval);
}

double EstimateIndexScanCost(double entries, double fanout,
                             const CostWeights& w) {
  double pages = entries / std::max(fanout, 1.0) + 1.0;
  return pages * (w.physical_read + w.logical_read) +
         entries * (w.key_compare + w.rid_op);
}

double EstimateIndexScanCost(const IndexClassification& c,
                             const CostWeights& w) {
  return EstimateIndexScanCost(c.ScanEntries(), c.index->tree()->AvgFanout(),
                               w);
}

Result<AccessPathAnalysis> AnalyzeAccessPaths(
    const RetrievalSpec& spec, const ParamMap& params,
    const InitialStageOptions& options,
    const std::vector<std::string>* previous_order) {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("retrieval spec has no table");
  }
  if (spec.restriction == nullptr) {
    return Status::InvalidArgument("retrieval spec has no restriction");
  }
  AccessPathAnalysis out;
  std::set<uint32_t> needed = spec.NeededColumns();

  for (const auto& index : spec.table->indexes()) {
    IndexClassification c;
    c.index = index.get();
    DYNOPT_ASSIGN_OR_RETURN(
        c.ranges, ExtractRangeSet(spec.restriction,
                                  index->leading_column(), params));
    c.has_restriction = !c.ranges.unrestricted();
    // Screening predicate: covered conjuncts beyond what the
    // leading-column ranges already enforce.
    c.covered_residual = ScreeningConjunction(
        spec.restriction, index->covered_columns(), index->leading_column());
    c.self_sufficient = std::includes(index->covered_columns().begin(),
                                      index->covered_columns().end(),
                                      needed.begin(), needed.end());
    c.order_needed = spec.order_by_column.has_value() &&
                     index->leading_column() == *spec.order_by_column;
    if (c.ranges.DefinitelyEmpty()) {
      out.empty_shortcut = true;
    }
    out.indexes.push_back(std::move(c));
  }
  if (out.empty_shortcut) return out;

  // Estimation order: restricted indexes, seeded with the previous
  // execution's (typically near-optimal) order so shortcuts fire early.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < out.indexes.size(); ++i) {
    if (out.indexes[i].has_restriction) candidates.push_back(i);
  }
  if (previous_order != nullptr && !previous_order->empty()) {
    auto rank = [&](size_t i) {
      const std::string& name = out.indexes[i].index->name();
      auto it =
          std::find(previous_order->begin(), previous_order->end(), name);
      return it == previous_order->end()
                 ? previous_order->size()
                 : static_cast<size_t>(it - previous_order->begin());
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](size_t a, size_t b) { return rank(a) < rank(b); });
  }

  // §5 estimation loop with empty/tiny shortcuts.
  for (size_t i : candidates) {
    IndexClassification& c = out.indexes[i];
    DYNOPT_ASSIGN_OR_RETURN(c.estimate,
                            c.index->tree()->EstimateRanges(c.ranges));
    c.estimated = true;
    out.estimation_pages += c.estimate.descent_pages;
    if (options.sampling_refinement && c.covered_residual != nullptr &&
        c.estimate.estimated_rids >
            static_cast<double>(kTinyRangeThreshold)) {
      Rng rng(kSamplingSeed);
      auto sampled =
          SampleEstimateRanges(c.index, c.ranges, c.covered_residual, params,
                               options.sampling_samples, rng);
      if (sampled.ok() && sampled->samples_taken > 0) {
        c.estimate.estimated_rids = sampled->estimated_rids;
        c.estimate.exact = false;
        c.refined_by_sampling = true;
      }
    }
    if (c.estimate.exact && c.estimate.k == 0) {
      out.empty_shortcut = true;
      return out;
    }
    if (c.estimate.exact && c.estimate.k <= kTinyRangeThreshold) {
      out.tiny_shortcut = true;
      out.tiny_index = i;
      break;
    }
  }

  // Jscan candidate order: ascending estimated RIDs among estimated ones.
  for (size_t i : candidates) {
    if (out.indexes[i].estimated) out.jscan_order.push_back(i);
  }
  std::stable_sort(out.jscan_order.begin(), out.jscan_order.end(),
                   [&](size_t a, size_t b) {
                     return out.indexes[a].estimate.estimated_rids <
                            out.indexes[b].estimate.estimated_rids;
                   });

  // The index with the fewest entries to scan among those `pick` accepts
  // (the first of equals), or -1.
  auto fewest_entries = [&](auto pick) {
    int best = -1;
    for (size_t i = 0; i < out.indexes.size(); ++i) {
      const IndexClassification& c = out.indexes[i];
      if (pick(c) && (best < 0 || c.ScanEntries() <
                                      out.indexes[best].ScanEntries())) {
        best = static_cast<int>(i);
      }
    }
    return best;
  };
  out.best_self_sufficient = fewest_entries(
      [](const IndexClassification& c) { return c.self_sufficient; });
  // Order-needed pick: restricted and cheap wins.
  out.order_needed = fewest_entries(
      [](const IndexClassification& c) { return c.order_needed; });
  return out;
}

}  // namespace dynopt
