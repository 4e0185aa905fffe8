// §6 hybrid RID-list ablation, in cost units.
//
// "Engineering around the L-shape": because list sizes are L-distributed,
// most lists are tiny, so the zero-cost inline region and the
// allocation-free shortcut matter. Compares the hybrid arrangement with
// two degenerate configurations (always-heap, always-spill) across list
// sizes. Each cell reports the list's metered spill I/O (physical writes,
// physical reads and logical reads) and its cost: once per build-and-probe,
// once per sorted drain (build in descending order, read back sorted).

#include <cstdio>
#include <string>

#include "exec/rid_set.h"
#include "harness.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace dynopt {
namespace {

enum Config : int { kHybrid = 0, kAlwaysHeap = 1, kAlwaysSpill = 2 };
constexpr const char* kConfigNames[] = {"hybrid", "always-heap",
                                        "always-spill"};

HybridRidList::Options MakeOptions(Config config, int64_t size) {
  HybridRidList::Options opt;  // defaults: 20 inline, 4096 heap, spill beyond
  if (config != kHybrid) opt.inline_capacity = 0;
  if (config == kAlwaysHeap) opt.memory_capacity = size + 1;
  if (config == kAlwaysSpill) opt.memory_capacity = 1;
  return opt;
}

/// Builds a list of `size` RIDs and returns what it charged: built in
/// ascending order and probed back ("build_probe"), or built in descending
/// order and read back sorted ("sorted_drain").
Result<CostMeter> Measure(const std::string& run, int64_t size,
                          Config config) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 256, &meter);
  HybridRidList list(&pool, MakeOptions(config, size));
  if (run == "sorted_drain") {
    for (int64_t i = size; i > 0; --i) {
      DYNOPT_RETURN_IF_ERROR(list.Append(Rid{static_cast<PageId>(i), 0}));
    }
    if (list.ToSortedVector().size() != static_cast<size_t>(size)) {
      return Status::Internal("the sorted drain lost RIDs");
    }
    return meter;
  }
  for (int64_t i = 0; i < size; ++i) {
    DYNOPT_RETURN_IF_ERROR(
        list.Append(Rid{static_cast<PageId>(i * 7 + 1), 0}));
  }
  DYNOPT_RETURN_IF_ERROR(list.Seal());
  for (int64_t i = 0; i < size; ++i) {
    if (!list.MightContain(Rid{static_cast<PageId>(i * 7 + 1), 0})) {
      return Status::Internal("a probe missed an appended RID");
    }
  }
  return meter;
}

/// Measures, prints and records one cell: spill I/O operations and cost.
Status Record(Report* report, const std::string& run, int64_t size,
              Config config) {
  DYNOPT_ASSIGN_OR_RETURN(CostMeter meter, Measure(run, size, config));
  uint64_t spill_io =
      meter.physical_writes + meter.physical_reads + meter.logical_reads;
  double cost = meter.Cost(CostWeights());
  std::printf("%-14s %8lld  %-13s %10llu %12.1f\n", run.c_str(),
              static_cast<long long>(size), kConfigNames[config],
              static_cast<unsigned long long>(spill_io), cost);
  std::string key =
      run + "." + kConfigNames[config] + ".rids_" + std::to_string(size);
  report->Add(key + ".spill_io", static_cast<double>(spill_io));
  report->Add(key + ".cost", cost);
  return Status::OK();
}

Status Run(Report* report) {
  std::printf("=== §6 hybrid RID-list ablation: spill I/O in cost units "
              "===\n\n");
  std::printf("%-14s %8s  %-13s %10s %12s\n", "run", "rids", "config",
              "spill_io", "cost");
  for (int64_t size : {0, 5, 20, 200, 5000, 50000}) {
    for (Config config : {kHybrid, kAlwaysHeap, kAlwaysSpill}) {
      DYNOPT_RETURN_IF_ERROR(Record(report, "build_probe", size, config));
    }
  }
  for (int64_t size : {20, 5000, 50000}) {
    for (Config config : {kHybrid, kAlwaysSpill}) {
      DYNOPT_RETURN_IF_ERROR(Record(report, "sorted_drain", size, config));
    }
  }
  std::printf(
      "\nOnly lists past the memory region pay spill I/O; forcing\n"
      "always-spill pays it even for a 5-RID list.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("hybrid_ridlist");
  return report.Finish(dynopt::Run(&report));
}
