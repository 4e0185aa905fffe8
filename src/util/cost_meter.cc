#include "util/cost_meter.h"

#include <sstream>

namespace dynopt {

std::string CostMeter::ToString() const {
  std::ostringstream os;
  os << "{pr=" << physical_reads << " pw=" << physical_writes
     << " lr=" << logical_reads << " cmp=" << key_compares
     << " eval=" << record_evals << " rid=" << rid_ops
     << " cost=" << Cost() << "}";
  return os.str();
}

namespace {
thread_local CostMeter* g_installed = nullptr;  // see CurrentCostMeter()
}  // namespace

CostMeter* CurrentCostMeter(CostMeter* otherwise) {
  return g_installed != nullptr ? g_installed : otherwise;
}

ScopedCostMeter::ScopedCostMeter(CostMeter* meter, CostMeter* shared)
    : meter_(meter), prev_(g_installed), shared_(shared), at_entry_(*meter) {
  g_installed = meter;
}

ScopedCostMeter::~ScopedCostMeter() {
  g_installed = prev_;
  *CurrentCostMeter(shared_) += gained();
}

}  // namespace dynopt
