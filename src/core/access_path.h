// Access-path analysis and the initial retrieval stage (§4, §5).
//
// For a bound retrieval, classifies every index of the table:
//   order-needed     — its leading column delivers the requested order;
//   self-sufficient  — its columns cover restriction + projection + order,
//                      so an index-only Sscan can answer alone;
//   fetch-needed     — anything else useful (its scan yields RIDs that
//                      need record fetches).
//
// The initial stage (§5) then estimates each restricted index's range via
// descent-to-split-node, orders the Jscan candidates by ascending estimate
// (seeded by the previous execution's order — the paper reuses "freshly
// reordered indexes ... for the next retrieval estimates"), and detects the
// OLTP shortcuts: a provably-empty range cancels retrieval outright, a
// tiny exactly-resolved range ends estimation immediately.

#ifndef DYNOPT_CORE_ACCESS_PATH_H_
#define DYNOPT_CORE_ACCESS_PATH_H_

#include <string>
#include <vector>

#include "catalog/database.h"
#include "exec/retrieval_spec.h"
#include "index/btree.h"
#include "stats/estimator.h"

namespace dynopt {

struct IndexClassification {
  SecondaryIndex* index = nullptr;
  /// Sargable range set on the leading column (multi-range for ORs — the
  /// §7 extension). Stable for the lifetime of the analysis; scans hold
  /// pointers into it.
  RangeSet ranges = RangeSet::All();
  /// Restriction conjuncts evaluable from the index's own columns beyond
  /// the leading-column ranges ("index screening"); null when none. Scans
  /// reject entries failing it before any record fetch.
  PredicateRef covered_residual;
  bool self_sufficient = false;
  bool order_needed = false;
  bool has_restriction = false;  // ranges tighter than the whole index
  bool estimated = false;
  bool refined_by_sampling = false;
  RangeEstimate estimate;        // valid iff `estimated`

  /// Entries a scan of the ranges visits: the estimate, or the whole index
  /// when the ranges were not estimated.
  double ScanEntries() const {
    return estimated ? estimate.estimated_rids
                     : static_cast<double>(index->tree()->entry_count());
  }
};

struct InitialStageOptions {
  /// §5 sampling: refine an index's estimate by ranked-sampling its range
  /// and evaluating the covered residual on each sample ("random sampling
  /// can estimate RIDs with any restrictions"). Pays a few descents per
  /// index; orders Jscan candidates by *effective* selectivity.
  bool sampling_refinement = false;
  uint64_t sampling_samples = 48;
};

struct AccessPathAnalysis {
  std::vector<IndexClassification> indexes;

  /// Jscan candidates ordered ascending by estimated RIDs (indices into
  /// `indexes`). Only restricted fetch-needed... and restricted
  /// self-sufficient indexes may also appear: a covering index can always
  /// serve as a RID source for the joint scan.
  std::vector<size_t> jscan_order;

  /// Best self-sufficient index (index into `indexes`) or -1.
  int best_self_sufficient = -1;
  /// Order-needed index with a restriction preferred; else any (-1 if none).
  int order_needed = -1;

  bool empty_shortcut = false;  // §5: some ANDed range is provably empty
  bool tiny_shortcut = false;   // §5: a tiny exact range ends estimation
  size_t tiny_index = 0;        // indexes[] position of the tiny range

  uint64_t estimation_pages = 0;  // descent I/O spent estimating
};

/// Classifies indexes and runs the §5 initial stage. `previous_order`
/// (optional, index names) seeds the estimation order with the last
/// execution's result. Restriction/params must bind cleanly.
Result<AccessPathAnalysis> AnalyzeAccessPaths(
    const RetrievalSpec& spec, const ParamMap& params,
    const InitialStageOptions& options = InitialStageOptions(),
    const std::vector<std::string>* previous_order = nullptr);

/// Rough a-priori cost of a full table scan in cost units — the initial
/// "guaranteed best" before any RID list completes (§6).
double EstimateTscanCost(const RetrievalSpec& spec, const CostWeights& w);

/// Rough cost of fetching `rids` random records (the final-stage estimate
/// used in the two-stage competition). Assumes random placement
/// (Cardenas); use FetchCostFromPages when the page spread was measured.
double EstimateFetchCost(double rids, const RetrievalSpec& spec,
                         const CostWeights& w);

/// Fetch cost when the number of distinct pages is known/measured — how
/// Jscan prices clustered RID lists (§3b: clustering "may not be known or
/// may be hard to detect", so the engine measures it from the list built
/// so far instead of assuming randomness).
double FetchCostFromPages(double pages, double rids, const CostWeights& w);

/// Rough cost of scanning `entries` index entries in a tree of average
/// fanout `fanout`.
double EstimateIndexScanCost(double entries, double fanout,
                             const CostWeights& w);
/// The same for scanning `c`'s ranges (ScanEntries() in its tree).
double EstimateIndexScanCost(const IndexClassification& c,
                             const CostWeights& w);

}  // namespace dynopt

#endif  // DYNOPT_CORE_ACCESS_PATH_H_
