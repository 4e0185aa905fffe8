// What a single-table retrieval is asked to do (§4).
//
// A RetrievalSpec is the compiled form of
//   SELECT <projection> FROM <table> WHERE <restriction>
//   [ORDER BY <column>] [OPTIMIZE FOR FAST FIRST | TOTAL TIME]
// with host variables bound at open time through the ParamMap.

#ifndef DYNOPT_EXEC_RETRIEVAL_SPEC_H_
#define DYNOPT_EXEC_RETRIEVAL_SPEC_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "expr/predicate.h"

namespace dynopt {

/// The two optimization goals of §4. Fast-first minimizes the time to the
/// first few records; total-time minimizes the complete retrieval.
enum class OptimizationGoal : uint8_t { kTotalTime, kFastFirst };

inline std::string_view GoalName(OptimizationGoal g) {
  return g == OptimizationGoal::kFastFirst ? "fast-first" : "total-time";
}

struct RetrievalSpec {
  Table* table = nullptr;
  PredicateRef restriction;              // defaults to TRUE if null
  std::vector<uint32_t> projection;      // schema column indexes to deliver
  /// Requested delivery order: a column that must ascend (only indexes
  /// whose leading column equals it are order-needed candidates).
  std::optional<uint32_t> order_by_column;
  OptimizationGoal goal = OptimizationGoal::kTotalTime;
  /// True when the user stated OPTIMIZE FOR ... explicitly; goal inference
  /// (§4) then leaves `goal` untouched.
  bool goal_is_explicit = false;

  /// Columns the retrieval needs overall (restriction + projection +
  /// order): the self-sufficiency test for indexes (§4).
  std::set<uint32_t> NeededColumns() const {
    std::set<uint32_t> cols(projection.begin(), projection.end());
    if (restriction != nullptr) restriction->CollectColumns(&cols);
    if (order_by_column.has_value()) cols.insert(*order_by_column);
    return cols;
  }
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_RETRIEVAL_SPEC_H_
