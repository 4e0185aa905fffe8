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
/// Charges are relaxed atomic RMWs, so one meter may be shared by many
/// concurrent sessions (the shared buffer pool charges it from every
/// worker). Snapshots copy field-by-field: each counter is exact, but a
/// concurrent snapshot is not a consistent cut across fields. A delta taken
/// while other sessions run also counts their work, so a strategy's or a
/// query's measured cost grows with the number of concurrent sessions.
/// That is not the paper's §3(c) cache interference, which a per-query
/// meter would still see as extra physical reads of its own; ROADMAP item 2
/// gives each query its own meter.
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

}  // namespace dynopt

#endif  // DYNOPT_UTIL_COST_METER_H_
