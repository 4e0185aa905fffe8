// Deterministic cost accounting.
//
// The paper's competition tactics switch strategies by comparing *observed*
// and *projected* execution costs. In Rdb/VMS those were I/O and CPU
// measurements; here every storage/executor component charges a CostMeter so
// that costs are exact, deterministic, and reproducible. A weighted scalar
// cost (the "dynamic execution metric") drives all competition decisions.

#ifndef DYNOPT_UTIL_COST_METER_H_
#define DYNOPT_UTIL_COST_METER_H_

#include <cstdint>
#include <string>

#include "util/atomic_counter.h"

namespace dynopt {

/// Relative weights of the primitive operations, in abstract cost units.
/// Defaults reflect the classical disk-era ratios the paper assumes: a
/// physical I/O dominates everything else by orders of magnitude.
struct CostWeights {
  double physical_read = 100.0;
  double physical_write = 100.0;
  double logical_read = 1.0;     // buffer-pool hit
  double key_compare = 0.01;
  double record_eval = 0.05;     // evaluating a restriction on a record
  double rid_op = 0.002;         // RID list append/filter probe
};

/// Monotonic counters of primitive operations plus their weighted total.
///
/// A charge lands in the meter installed on the charging thread
/// (ScopedCostMeter): the running query's own, or that of the strategy it
/// is stepping, so no session counts another's work. Work outside any query
/// charges the buffer pool's shared meter, which each query's totals fold
/// into. Charges are relaxed atomic RMWs: a snapshot of the shared meter is
/// exact per field but not a consistent cut across fields.
struct CostMeter {
  RelaxedCounter physical_reads = 0;
  RelaxedCounter physical_writes = 0;
  RelaxedCounter logical_reads = 0;
  RelaxedCounter key_compares = 0;
  RelaxedCounter record_evals = 0;
  RelaxedCounter rid_ops = 0;

  /// Weighted scalar cost under `w`.
  double Cost(const CostWeights& w = CostWeights()) const {
    return static_cast<double>(physical_reads) * w.physical_read +
           static_cast<double>(physical_writes) * w.physical_write +
           static_cast<double>(logical_reads) * w.logical_read +
           static_cast<double>(key_compares) * w.key_compare +
           static_cast<double>(record_evals) * w.record_eval +
           static_cast<double>(rid_ops) * w.rid_op;
  }

  CostMeter operator-(const CostMeter& o) const {
    CostMeter d;
    d.physical_reads = physical_reads - o.physical_reads;
    d.physical_writes = physical_writes - o.physical_writes;
    d.logical_reads = logical_reads - o.logical_reads;
    d.key_compares = key_compares - o.key_compares;
    d.record_evals = record_evals - o.record_evals;
    d.rid_ops = rid_ops - o.rid_ops;
    return d;
  }

  CostMeter& operator+=(const CostMeter& o) {
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    logical_reads += o.logical_reads;
    key_compares += o.key_compares;
    record_evals += o.record_evals;
    rid_ops += o.rid_ops;
    return *this;
  }

  std::string ToString() const;
};

/// The meter installed on this thread, or `otherwise` when none is.
CostMeter* CurrentCostMeter(CostMeter* otherwise);

/// Installs `meter` on this thread for the scope's lifetime, the way
/// ScopedQueryContext installs a QueryContext. On exit, what `meter` gained
/// in the scope is added to the meter it displaced or, when it was the
/// outermost one, to `shared`.
class ScopedCostMeter {
 public:
  ScopedCostMeter(CostMeter* meter, CostMeter* shared);
  ~ScopedCostMeter();
  ScopedCostMeter(const ScopedCostMeter&) = delete;
  ScopedCostMeter& operator=(const ScopedCostMeter&) = delete;
  /// What `meter` has gained since the scope began.
  CostMeter gained() const { return *meter_ - at_entry_; }

 private:
  CostMeter* meter_;
  CostMeter* prev_;
  CostMeter* shared_;
  CostMeter at_entry_;
};

}  // namespace dynopt

#endif  // DYNOPT_UTIL_COST_METER_H_
