// The bench harness every bench binary reports, drains, times and gates
// through.
//
// A bench prints a human report to stdout and records its key figures in a
// Report, which writes BENCH_<name>.json into the working directory:
// {"bench": name, "figures": {key: number...}, "series": {key: json...}}.
// Cost-unit figures come from Drain, the one metered pull of a retrieval;
// wall-clock figures come from a Stopwatch, and a wall-clock gate reads a
// median over RunInterleaved's A/B pairs, never a single run or a best-of.
//
// Failure paths: a bench's body returns a Status, and main() returns
// report.Finish(status), which is non-zero when the body failed or any
// Gate did not hold.

#ifndef DYNOPT_BENCH_HARNESS_H_
#define DYNOPT_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "util/cost_meter.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynopt {

class Report {
 public:
  /// `name` without the "bench_" prefix, e.g. "jscan".
  explicit Report(std::string name);

  void Add(std::string_view key, double value);
  /// Prints `format` (one printf conversion, for `value`) on a line of its
  /// own and records `value` under `key`.
  void Print(std::string_view key, double value, const char* format);
  /// Records the median of `values` under `key` and its quartiles under
  /// "<key>_q1" and "<key>_q3", prints `format` (three printf conversions:
  /// median, first and third quartile) on a line of its own, and returns
  /// the median.
  double PrintMedian(std::string_view key, const std::vector<double>& values,
                     const char* format);
  /// Adds the meter's counters as "<prefix>.physical_reads" etc.
  void AddMeter(std::string_view prefix, const CostMeter& meter);
  /// Attaches a rendered JSON document under "series.<key>".
  void AddJson(std::string_view key, std::string json);

  /// When `ok` is false, prints "GATE FAILED: " and the printf-formatted
  /// condition, and fails the run. Returns `ok`.
  bool Gate(bool ok, const char* format, ...)
      __attribute__((format(printf, 3, 4)));

  /// The exit code main() returns: 2 when `run` failed (printed), else
  /// 1 when a gate failed, else 0. Writes BENCH_<name>.json unless `run`
  /// failed.
  int Finish(const Status& run = Status::OK());

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> figures_;
  std::vector<std::pair<std::string, std::string>> series_;
  int failed_gates_ = 0;
};

/// One metered pull of a retrieval.
struct Drained {
  uint64_t rows = 0;
  /// The database meter's delta from just before Open to the last pull.
  CostMeter meter;
  /// Order-independent hash of the delivered RIDs (a multiset hash).
  uint64_t rid_hash = 0;
};

/// Opens `exec` (a DynamicRetrieval or a StaticRetrieval) under `params`
/// and pulls rows until `k` arrived, or to the end of the stream when `k`
/// is 0. A DynamicRetrieval is asked for at most the rows still wanted; a
/// StaticRetrieval pulls whole batches. The cache stays as the caller left
/// it. Returns the first error.
template <typename Exec>
Result<Drained> Drain(Database* db, Exec* exec, const ParamMap& params,
                      uint64_t k = 0) {
  CostMeter before = db->meter();
  DYNOPT_RETURN_IF_ERROR(exec->Open(params));
  Drained out;
  RowBatch batch;
  while (k == 0 || out.rows < k) {
    Result<bool> more = false;
    if constexpr (std::is_same_v<Exec, DynamicRetrieval>) {
      more = exec->NextBatch(&batch, k == 0 ? kDefaultBatchRows : k - out.rows);
    } else {
      more = exec->NextBatch(&batch);
    }
    if (!more.ok()) return more.status();
    if (!*more) break;
    out.rows += batch.num_rows();
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      out.rid_hash += Mix64(batch.rid(r).ToU64());
    }
  }
  out.meter = db->meter() - before;
  return out;
}

/// Gates every count in `rows` against the row count of the naive oracle
/// (NaiveRetrieve, workload/oracle.h) for `spec` under `params`. The oracle
/// scans the table through the pool, so it charges the database meter.
Status CheckRowCounts(Report* report, const RetrievalSpec& spec,
                      const ParamMap& params, std::string_view label,
                      const std::vector<uint64_t>& rows);

/// Wall-clock time since construction.
class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// The q-quantile (q in [0, 1]) of `values`: the element at index
/// floor(q * n) of the sorted values, clamped to the last. 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Both sides' values of interleaved A/B pairs: pair i is (a[i], b[i]).
struct Interleaved {
  std::vector<double> a, b;
};

/// Runs `pairs` A/B pairs, alternating which side runs first (`a` first
/// in even pairs), or returns the first error.
Result<Interleaved> RunInterleaved(int pairs,
                                   const std::function<Result<double>()>& a,
                                   const std::function<Result<double>()>& b);

}  // namespace dynopt

#endif  // DYNOPT_BENCH_HARNESS_H_
