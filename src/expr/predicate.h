// Boolean restriction trees with host variables.
//
// A Predicate is an immutable expression over a table's columns:
// comparisons and BETWEENs against literals or host-language variables
// (the paper's `:A1`-style parameters), string CONTAINS and integer MOD
// predicates (restrictions a histogram cannot estimate — only sampling or
// an actual run can, §5), and AND/OR/NOT combinators.
//
// Host variables make queries *parametric*: the same compiled predicate
// yields wildly different selectivities per execution — the core motivation
// for dynamic (per-run) optimization. Binding happens at retrieval start
// via a ParamMap.
//
// The sargable-range extraction (ExtractRange) walks top-level conjuncts to
// derive the tightest encoded key range a given index column supports, the
// input to the §5 initial-stage estimation. Per the paper, disjunctions are
// not decomposed into index ranges (§7 names OR coverage as future work);
// they simply contribute no range and are evaluated as residuals.

#ifndef DYNOPT_EXPR_PREDICATE_H_
#define DYNOPT_EXPR_PREDICATE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "expr/value.h"
#include "index/encoded_range.h"
#include "util/status.h"

namespace dynopt {

/// Host-variable bindings supplied at retrieval-open time.
using ParamMap = std::map<std::string, Value>;

/// A comparison operand: a literal or a host-variable reference.
class Operand {
 public:
  static Operand Literal(Value v) {
    Operand o;
    o.literal_ = std::move(v);
    return o;
  }
  static Operand HostVar(std::string name) {
    Operand o;
    o.var_name_ = std::move(name);
    return o;
  }

  bool is_host_var() const { return !var_name_.empty(); }
  const std::string& var_name() const { return var_name_; }

  /// Resolves to a concrete value under `params`.
  Result<Value> Bind(const ParamMap& params) const;

  /// The operand with literal constants stripped to "?": host vars keep
  /// their names (part of the query's identity), constants do not — the
  /// operand's contribution to a query-class key.
  std::string ShapeString() const;

 private:
  Value literal_;
  std::string var_name_;
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpName(CompareOp op);

/// Row access abstraction: a full record or a sparse (index-only) row.
class RowView {
 public:
  /// Full record in schema order.
  explicit RowView(const Record* full) : full_(full) {}
  /// Sparse row: only some columns present (Sscan evaluating from a
  /// self-sufficient index).
  explicit RowView(const std::vector<std::optional<Value>>* sparse)
      : sparse_(sparse) {}

  /// The value of column `col`; Internal error if absent from a sparse row
  /// (the planner must only route predicates to rows that can answer them).
  Result<const Value*> Get(uint32_t col) const;

 private:
  const Record* full_ = nullptr;
  const std::vector<std::optional<Value>>* sparse_ = nullptr;
};

/// Column-major view of a row batch for vectorized evaluation: `cols[c]`
/// is the flat vector holding column `c`, or null when the batch does not
/// materialize that column (index-only batches, skipped projections).
/// Mirrors RowView's sparse semantics — touching an absent column is an
/// Internal error, never a silent miss.
class BatchView {
 public:
  BatchView(const ColumnVector* const* cols, size_t num_cols)
      : cols_(cols), num_cols_(num_cols) {}

  /// The vector for column `col`; Internal error when absent.
  Result<const ColumnVector*> Get(uint32_t col) const {
    if (col >= num_cols_ || cols_[col] == nullptr) {
      return Status::Internal(
          "predicate evaluated on batch lacking column " +
          std::to_string(col));
    }
    return cols_[col];
  }

 private:
  const ColumnVector* const* cols_;
  size_t num_cols_;
};

class Predicate;
using PredicateRef = std::shared_ptr<const Predicate>;

class Predicate {
 public:
  enum class Kind : uint8_t {
    kTrue,
    kCompare,
    kBetween,
    kContains,
    kMod,
    kAnd,
    kOr,
    kNot,
  };

  virtual ~Predicate() = default;

  Kind kind() const { return kind_; }

  /// Evaluates under `row` with host variables bound from `params`.
  virtual Result<bool> Eval(const RowView& row,
                            const ParamMap& params) const = 0;

  /// Vectorized twin of Eval: for each i in [0, n) sets `mask[i]` to the
  /// truth value on row `sel[i]` of `view`. Host variables bind once per
  /// batch (not once per row) and leaf comparisons run as tight typed
  /// loops; AND/OR children progressively narrow the rows they evaluate,
  /// preserving row-path short-circuit semantics (a later child is never
  /// evaluated on a row an earlier child already decided).
  virtual Status EvalBatch(const BatchView& view, const ParamMap& params,
                           const uint32_t* sel, size_t n,
                           uint8_t* mask) const = 0;

  /// Adds every column the predicate reads to `*cols`.
  virtual void CollectColumns(std::set<uint32_t>* cols) const = 0;

  /// The predicate's *shape*: same structure and host-variable names, but
  /// literal constants stripped to "?". Two queries with the same shape are
  /// the same query class (obs/profile_store.h) regardless of the concrete
  /// constants compiled in.
  virtual std::string ShapeString() const = 0;

  // ---- constructors ------------------------------------------------------

  static PredicateRef True();
  static PredicateRef Compare(uint32_t col, CompareOp op, Operand operand);
  /// col BETWEEN lo AND hi (inclusive both ends).
  static PredicateRef Between(uint32_t col, Operand lo, Operand hi);
  /// String column contains `needle` (the non-sargable "pattern match").
  static PredicateRef Contains(uint32_t col, std::string needle);
  /// (int column mod `modulus`) == `residue` (non-sargable arithmetic).
  static PredicateRef Mod(uint32_t col, int64_t modulus, int64_t residue);
  static PredicateRef And(std::vector<PredicateRef> children);
  static PredicateRef Or(std::vector<PredicateRef> children);
  static PredicateRef Not(PredicateRef child);

 protected:
  explicit Predicate(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// Reusable buffers for FilterSelection (one per stepper, cleared per
/// batch) so steady-state batch evaluation performs no allocations.
struct BatchEvalScratch {
  std::vector<uint8_t> mask;
};

/// Filters `*sel` in place: evaluates `pred` over the selected rows of
/// `view` and keeps only the passing indexes. A top-level AND is evaluated
/// conjunct by conjunct with the selection compacted between conjuncts, so
/// later (more expensive) conjuncts only see survivors.
Status FilterSelection(const Predicate& pred, const BatchView& view,
                       const ParamMap& params, BatchEvalScratch* scratch,
                       std::vector<uint32_t>* sel);

/// Derives the tightest [lo, hi) encoded range that `pred` implies for
/// `col`, under the given bindings (the hull of ExtractRangeSet). Returns
/// the unrestricted range when nothing sargable mentions `col`. A
/// DefinitelyEmpty() result proves the predicate unsatisfiable on the
/// column (the §5 empty-range shortcut).
Result<EncodedRange> ExtractRange(const PredicateRef& pred, uint32_t col,
                                  const ParamMap& params);

/// Full disjunctive range derivation for `col` — the §7 "covering ORs"
/// extension. ANDs intersect, ORs union, NOT complements (where sound),
/// and `<>` splits into two ranges, so IN-list-style disjunctions compile
/// to multi-range index scans instead of falling back to no range. The
/// result is always a superset of the satisfying col values (sound to scan
/// + re-evaluate); it is empty only when the predicate is provably
/// unsatisfiable on this column.
Result<RangeSet> ExtractRangeSet(const PredicateRef& pred, uint32_t col,
                                 const ParamMap& params);

/// True when every column `pred` reads is in `available`.
bool PredicateCoveredBy(const PredicateRef& pred,
                        const std::set<uint32_t>& available);

/// What the top-level conjuncts say about `col` — the input to a static
/// optimizer's System-R-style magic selectivity guess when host variables
/// make real estimation impossible at compile time.
struct SargSummary {
  int eq_conjuncts = 0;     // col = x  (x literal or host var)
  int range_conjuncts = 0;  // <, <=, >, >= or BETWEEN bounds
  bool any_host_var = false;
};
SargSummary SummarizeSargs(const PredicateRef& pred, uint32_t col);

/// The conjunction of `pred`'s top-level conjuncts whose columns all fall
/// within `available` — the part of a restriction an index scan can
/// evaluate from its own keys ("index screening"). Returns null when no
/// conjunct qualifies. A non-AND root is returned whole iff covered.
/// Sound for filtering: a row failing the covered part fails `pred`.
PredicateRef CoveredConjunction(const PredicateRef& pred,
                                const std::set<uint32_t>& available);

/// Like CoveredConjunction, but omits plain sargable comparisons/BETWEENs
/// on `sarg_col` — those are already enforced by the extracted range set,
/// so re-evaluating them per entry would be pure overhead. What remains is
/// the useful screening predicate (non-sargable leading-column conjuncts
/// like MOD/CONTAINS, and anything on the index's other columns).
PredicateRef ScreeningConjunction(const PredicateRef& pred,
                                  const std::set<uint32_t>& available,
                                  uint32_t sarg_col);

}  // namespace dynopt

#endif  // DYNOPT_EXPR_PREDICATE_H_
