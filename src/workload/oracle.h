// The naive oracle: the rows a retrieval must return.
//
// DESIGN §5's contract is that the dynamic engine returns exactly what a
// naive Tscan plus filter returns. NaiveRetrieve is that scan on the
// row-at-a-time path the library keeps as the batch path's reference:
// HeapFile::Cursor, DeserializeRecord and Predicate::Eval over a RowView.
// It shares no code with the steppers or EvalBatch, so a fault in the
// vectorized Tscan cannot hide by checking itself.

#ifndef DYNOPT_WORKLOAD_ORACLE_H_
#define DYNOPT_WORKLOAD_ORACLE_H_

#include <vector>

#include "exec/retrieval_spec.h"
#include "util/status.h"

namespace dynopt {

/// A retrieved row: its address and its projected values.
struct ResultRow {
  Rid rid;
  std::vector<Value> values;  // spec.projection's columns, in order
};

/// Every live row of `spec.table` that satisfies `spec.restriction` (TRUE
/// when null) under `params`, in heap order.
Result<std::vector<ResultRow>> NaiveRetrieve(const RetrievalSpec& spec,
                                             const ParamMap& params);

}  // namespace dynopt

#endif  // DYNOPT_WORKLOAD_ORACLE_H_
