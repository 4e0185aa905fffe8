#include "harness.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "obs/json.h"
#include "workload/oracle.h"

namespace dynopt {

Report::Report(std::string name) : name_(std::move(name)) {}

void Report::Add(std::string_view key, double value) {
  figures_.emplace_back(std::string(key), value);
}

void Report::Print(std::string_view key, double value, const char* format) {
  std::printf(format, value);
  std::printf("\n");
  Add(key, value);
}

double Report::PrintMedian(std::string_view key,
                           const std::vector<double>& values,
                           const char* format) {
  double median = Quantile(values, 0.5);
  double q1 = Quantile(values, 0.25), q3 = Quantile(values, 0.75);
  std::printf(format, median, q1, q3);
  std::printf("\n");
  std::string k(key);
  Add(k, median);
  Add(k + "_q1", q1);
  Add(k + "_q3", q3);
  return median;
}

void Report::AddMeter(std::string_view prefix, const CostMeter& meter) {
  std::string p(prefix);
  Add(p + ".physical_reads", static_cast<double>(meter.physical_reads));
  Add(p + ".physical_writes", static_cast<double>(meter.physical_writes));
  Add(p + ".logical_reads", static_cast<double>(meter.logical_reads));
  Add(p + ".key_compares", static_cast<double>(meter.key_compares));
  Add(p + ".record_evals", static_cast<double>(meter.record_evals));
  Add(p + ".rid_ops", static_cast<double>(meter.rid_ops));
}

void Report::AddJson(std::string_view key, std::string json) {
  series_.emplace_back(std::string(key), std::move(json));
}

bool Report::Gate(bool ok, const char* format, ...) {
  if (ok) return true;
  failed_gates_++;
  std::printf("GATE FAILED: ");
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  return false;
}

int Report::Finish(const Status& run) {
  if (!run.ok()) {
    std::printf("bench_%s failed: %s\n", name_.c_str(),
                run.ToString().c_str());
    return 2;
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("bench", name_);
  w.Key("figures").BeginObject();
  for (const auto& [key, value] : figures_) w.KV(key, value);
  w.EndObject();
  if (!series_.empty()) {
    w.Key("series").BeginObject();
    for (const auto& [key, json] : series_) w.Key(key).Raw(json);
    w.EndObject();
  }
  w.EndObject();
  std::string path = "./BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << "\n";
  if (!out.good()) {
    std::printf("bench_%s failed: cannot write %s\n", name_.c_str(),
                path.c_str());
    return 2;
  }
  std::printf("[bench-report] wrote %s\n", path.c_str());
  return failed_gates_ > 0 ? 1 : 0;
}

Status CheckRowCounts(Report* report, const RetrievalSpec& spec,
                      const ParamMap& params, std::string_view label,
                      const std::vector<uint64_t>& rows) {
  DYNOPT_ASSIGN_OR_RETURN(std::vector<ResultRow> naive,
                          NaiveRetrieve(spec, params));
  for (uint64_t n : rows) {
    report->Gate(n == naive.size(),
                 "%.*s drained %llu rows, naive Tscan + filter %zu",
                 static_cast<int>(label.size()), label.data(),
                 static_cast<unsigned long long>(n), naive.size());
  }
  return Status::OK();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t i = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(i, values.size() - 1)];
}

Result<Interleaved> RunInterleaved(int pairs,
                                   const std::function<Result<double>()>& a,
                                   const std::function<Result<double>()>& b) {
  Interleaved out;
  for (int i = 0; i < pairs; ++i) {
    double va = 0, vb = 0;
    if (i % 2 == 0) {
      DYNOPT_ASSIGN_OR_RETURN(va, a());
      DYNOPT_ASSIGN_OR_RETURN(vb, b());
    } else {
      DYNOPT_ASSIGN_OR_RETURN(vb, b());
      DYNOPT_ASSIGN_OR_RETURN(va, a());
    }
    out.a.push_back(va);
    out.b.push_back(vb);
  }
  return out;
}

}  // namespace dynopt
