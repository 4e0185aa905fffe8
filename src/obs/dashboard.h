// Workload-level ASCII dashboard.
//
// One call renders the registry's counters (grouped into sections by
// metric family — governance.*, integrity.*, wal.*, ...), its histograms
// (sparklines plus shared-grid percentiles), the cost meter, and the
// per-query-class profile aggregates (latency percentiles, rows q-error,
// plan counts) as a terminal-friendly report — the human companion to the
// JSON exports, built on util/ascii_chart.

#ifndef DYNOPT_OBS_DASHBOARD_H_
#define DYNOPT_OBS_DASHBOARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/cost_meter.h"

namespace dynopt {

class ProfileStore;

/// One query class's learned-correction state, as rendered in the
/// dashboard's learned-selectivity table. Defined here (not in
/// src/learning/) so the obs layer stays a leaf: SelectivityModel, which
/// links obs, produces these rows via DashboardRows().
struct LearningClassRow {
  std::string class_key;
  uint64_t samples = 0;
  double rows_q_error = 1.0;    // EWMA of the class's rows q-error
  double rows_factor = 1.0;     // representative learned correction
  double cost_factor = 1.0;
  uint64_t corrections_applied = 0;
};

struct DashboardOptions {
  std::string title = "observability dashboard";
  const CostMeter* meter = nullptr;        // optional cost snapshot
  const ProfileStore* profiles = nullptr;  // optional query-class section
  // Optional learned-selectivity section (SelectivityModel::DashboardRows
  // + LearningModeName of the current mode).
  std::string learning_mode;
  std::vector<LearningClassRow> learning;
};

std::string RenderDashboard(const MetricsRegistry& metrics,
                            const DashboardOptions& options = {});

}  // namespace dynopt

#endif  // DYNOPT_OBS_DASHBOARD_H_
