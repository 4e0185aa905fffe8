// Static mean-point optimizer — the [SACL79] baseline (§1, §8).
//
// Chooses exactly one of Tscan / Fscan / Sscan at "compile time" and runs
// it to completion, with the two classic blindspots the paper attacks:
//
//  * host variables — their values are unknown when the plan is chosen, so
//    ranges involving them fall back to the System-R magic selectivities
//    (1/10 for equality, 1/3 per range bound);
//  * mean-point estimates — a single number per plan, no notion of the
//    cost distribution, no mid-run reconsideration.
//
// Literal-only ranges are estimated with the same descent-to-split-node
// statistics the dynamic engine uses, so comparisons isolate the *dynamic*
// part of the contribution rather than starving the baseline of stats.

#ifndef DYNOPT_CORE_STATIC_OPTIMIZER_H_
#define DYNOPT_CORE_STATIC_OPTIMIZER_H_

#include <memory>
#include <string>

#include "catalog/database.h"
#include "exec/retrieval_spec.h"
#include "exec/steppers.h"

namespace dynopt {

struct StaticPlanChoice {
  enum class Kind : uint8_t { kTscan, kFscan, kSscan };
  Kind kind = Kind::kTscan;
  SecondaryIndex* index = nullptr;  // for kFscan/kSscan
  EncodedRange range;               // bound at execution time
  double estimated_cost = 0;
  double estimated_rids = 0;
  // Host variables forced magic-number guessing somewhere during planning
  // (the winning plan was then chosen blind to the actual values).
  bool used_magic_selectivity = false;

  std::string ToString() const;
};

/// Picks the single cheapest plan under compile-time knowledge.
/// `compile_time_params` holds only the host variables known at compile
/// time — normally empty; ranges needing unknown variables get magic
/// selectivity guesses instead of real estimates.
Result<StaticPlanChoice> ChooseStaticPlan(Database* db,
                                          const RetrievalSpec& spec,
                                          const ParamMap& compile_time_params);

/// Executes a static choice: binds `params`, builds the one chosen scan,
/// and pulls rows from it. The plan never changes mid-run ("plan freeze").
class StaticRetrieval {
 public:
  StaticRetrieval(Database* db, const RetrievalSpec& spec,
                  StaticPlanChoice choice);

  /// Binds run-time parameters (recomputing the index range from them —
  /// the plan *shape* stays frozen, only bounds rebind).
  Status Open(const ParamMap& params);

  /// Replaces `*out` with the rows of the chosen scan's next step (column j
  /// holds projection column j; a step may yield none). Returns false once
  /// the scan is exhausted, with `*out` empty.
  Result<bool> NextBatch(RowBatch* out);

  const StaticPlanChoice& choice() const { return choice_; }

 private:
  Database* db_;
  RetrievalSpec spec_;
  StaticPlanChoice choice_;
  ParamMap params_;
  std::unique_ptr<ScanStepper> stepper_;
};

}  // namespace dynopt

#endif  // DYNOPT_CORE_STATIC_OPTIMIZER_H_
