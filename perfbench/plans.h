// Compiling the benchmark's query shapes and running one execution of a
// compiled plan against the engine's public API.

#ifndef DYNOPT_PERFBENCH_PLANS_H_
#define DYNOPT_PERFBENCH_PLANS_H_

#include <array>
#include <string>

#include "core/plan.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

/// A shape compiled once per client and re-opened with new host variables
/// on every execution (the paper's per-execution re-optimization).
struct CompiledPlan {
  dynopt::RowOperatorPtr root;
  /// The retrieval leaf, kept so each execution's tactic and QueryProfile
  /// can be read after it ends.
  dynopt::DynamicRetrievalOperator* leaf = nullptr;
};

/// Lowers `shape` the way CompilePlan does — goal inference over the whole
/// plan, the leaf through CompilePlan, each operator above it governed by
/// `ctx` and wrapped in a ProfilingOperator — but keeps a handle on the
/// leaf, which CompilePlan hides once an operator sits above it. `params`
/// and `ctx` must outlive the plan.
dynopt::Result<CompiledPlan> CompileShape(dynopt::Database* db,
                                          dynopt::Table* table,
                                          const QueryShape& shape,
                                          const dynopt::ParamMap* params,
                                          dynopt::QueryContext* ctx);

/// Writes the host variables `r` reads into `*out` (and nothing else, so
/// the engine's query-class keys see only what the query binds).
void BindParams(Restriction r, const Params& p, dynopt::ParamMap* out);

/// The four instants of one execution: Open called, Open returned, first
/// row at the plan root (or end of stream), last row.
struct Timing {
  Clock::time_point start, opened, first, end;
};

/// Opens the plan, pulls one row, then drains the rest, folding every root
/// row into an order-insensitive digest.
Outcome Execute(const QueryShape& shape, CompiledPlan& plan, Timing* t);

/// Strategy spans of the engine's QueryProfile, summed by strategy.
enum Strategy : size_t { kTscan, kSscan, kFscan, kJscan, kFinal, kFfFetch, kStrategies };
inline constexpr std::array<const char*, kStrategies> kStrategyNames = {
    "tscan", "sscan", "fscan", "jscan", "final", "ff_fetch"};

struct ProfileSummary {
  std::array<double, kStrategies> strategy_us{};
  bool raced = false;
  double race_us = 0;
};

/// Finalizes the leaf's profile (executions a LIMIT or EXISTS abandoned are
/// not finalized by the engine) and sums its spans.
ProfileSummary SummarizeProfile(dynopt::DynamicRetrieval* engine);

}  // namespace perfbench

#endif  // DYNOPT_PERFBENCH_PLANS_H_
