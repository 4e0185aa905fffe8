#include "obs/dashboard.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "obs/profile_store.h"
#include "util/ascii_chart.h"

namespace dynopt {

namespace {

std::string Fmt(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

// Metric family = the dotted prefix ("governance", "integrity", ...), so
// the PR-4/PR-5 families render as their own sections instead of one flat
// alphabetical table.
std::string FamilyOf(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? std::string("misc") : name.substr(0, dot);
}

}  // namespace

std::string RenderDashboard(const MetricsRegistry& metrics,
                            const DashboardOptions& options) {
  std::ostringstream os;
  os << "== " << options.title << " ==\n";

  // Counters grouped by family; map keeps section order deterministic.
  std::map<std::string, std::vector<const Counter*>> families;
  for (const Counter* c : metrics.counters()) {
    families[FamilyOf(c->name)].push_back(c);
  }
  for (const auto& [family, counters] : families) {
    std::vector<std::vector<std::string>> rows;
    for (const Counter* c : counters) {
      rows.push_back({c->name, std::to_string(c->value.load())});
    }
    os << "-- " << family << " --\n" << FormatTable({"counter", "value"}, rows);
  }

  auto histograms = metrics.histograms();
  if (!histograms.empty()) {
    os << "-- distributions --\n";
    for (const Histogram* h : histograms) {
      std::vector<double> heights;
      for (const RelaxedCounter& n : h->buckets()) {
        heights.push_back(static_cast<double>(n.load()));
      }
      os << h->name() << " (n=" << h->count() << ", sum=" << Fmt(h->sum())
         << ", p50=" << Fmt(h->Percentile(0.50))
         << ", p95=" << Fmt(h->Percentile(0.95))
         << ", p99=" << Fmt(h->Percentile(0.99))
         << "): " << Sparkline(heights) << "\n";
    }
  }

  if (options.meter != nullptr) {
    os << "cost meter: " << options.meter->ToString() << "\n";
  }

  if (!options.learning.empty()) {
    os << "-- learned selectivity (" << options.learning.size()
       << " classes, mode=" << options.learning_mode << ") --\n";
    std::vector<std::vector<std::string>> rows;
    for (const LearningClassRow& r : options.learning) {
      rows.push_back({r.class_key, std::to_string(r.samples),
                      Fmt(r.rows_q_error), Fmt(r.rows_factor),
                      Fmt(r.cost_factor),
                      std::to_string(r.corrections_applied)});
    }
    os << FormatTable({"class", "samples", "rows-qerr", "rows-factor",
                       "cost-factor", "applied"},
                      rows);
  }

  if (options.profiles != nullptr && options.profiles->size() > 0) {
    os << "-- query classes (" << options.profiles->size() << ") --\n";
    std::vector<std::vector<std::string>> rows;
    for (const std::string& cls : options.profiles->Classes()) {
      auto agg = options.profiles->Find(cls);
      if (!agg.has_value()) continue;
      std::string plans;
      for (const auto& [plan, count] : agg->plan_counts) {
        if (!plans.empty()) plans += " ";
        plans += plan + ":" + std::to_string(count);
      }
      rows.push_back({cls, std::to_string(agg->executions),
                      Fmt(agg->LatencyPercentile(0.50)),
                      Fmt(agg->LatencyPercentile(0.99)),
                      Fmt(agg->executions > 0
                              ? agg->rows_q_error_sum /
                                    static_cast<double>(agg->executions)
                              : 0),
                      plans});
    }
    os << FormatTable(
        {"class", "execs", "p50us", "p99us", "rows-qerr", "plans"}, rows);
  }
  return os.str();
}

}  // namespace dynopt
