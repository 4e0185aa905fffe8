#include "integrity/repair.h"

#include <string>

namespace dynopt {

WalPageRepairer::WalPageRepairer(PageStore* store, Wal* wal,
                                 MetricsRegistry* registry)
    : store_(store), wal_(wal) {
  if (registry != nullptr) {
    m_repairs_ = registry->counter("integrity.repairs");
    m_quarantined_ = registry->counter("integrity.quarantined");
    m_heal_failures_ = registry->counter("integrity.heal_failures");
  }
}

Status WalPageRepairer::Repair(PageId id, const Status& cause,
                               PageData* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (quarantined_.count(id) > 0) {
      // Already known unrepairable; do not rescan the log per pin.
      return Status::Corruption("page " + std::to_string(id) +
                                " is quarantined (previously unrepairable)");
    }
  }
  Result<bool> found = wal_->LatestCommittedImage(id, out);
  if (!found.ok()) {
    return Quarantine(id, WithContext("wal scan failed during repair of page " +
                                          std::to_string(id),
                                      found.status()));
  }
  if (!found.value()) {
    return Quarantine(id, cause);
  }
  // Heal the store in place so the next cold read succeeds outright. A
  // failed heal is not fatal — the rebuilt image in *out* is good and the
  // pin proceeds; the next cold miss simply repairs again.
  Status healed = store_->Write(id, *out);
  if (!healed.ok()) Bump(m_heal_failures_);
  repairs_.fetch_add(1, std::memory_order_relaxed);
  Bump(m_repairs_);
  return Status::OK();
}

Status WalPageRepairer::Quarantine(PageId id, const Status& cause) {
  bool fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh = quarantined_.insert(id).second;
  }
  if (fresh) Bump(m_quarantined_);
  return WithContext("page " + std::to_string(id) +
                         " quarantined: no committed WAL image to rebuild from",
                     cause.IsCorruption()
                         ? cause
                         : Status::Corruption(cause.message()));
}

uint64_t WalPageRepairer::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.size();
}

bool WalPageRepairer::IsQuarantined(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.count(id) > 0;
}

}  // namespace dynopt
