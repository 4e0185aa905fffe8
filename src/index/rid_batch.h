// RidBatch: a leaf-copy batch of (encoded key, rid) index entries.
//
// The index-side unit of the batched executor: B+-tree cursors harvest a
// whole leaf's qualifying entries into a RidBatch under a single page pin,
// so the buffer pool is locked once per leaf rather than once per entry.
// Key strings are recycled across Clear() — steady-state scans perform no
// per-entry allocation. A caller that screens nothing by key turns key
// collection off, and the batch carries RIDs alone.

#ifndef DYNOPT_INDEX_RID_BATCH_H_
#define DYNOPT_INDEX_RID_BATCH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/page.h"

namespace dynopt {

class RidBatch {
 public:
  void Reserve(size_t n) {
    if (collect_keys_) keys_.reserve(n);
    rids_.reserve(n);
  }

  /// Empties the batch; `collect_keys` says whether the next harvest keeps
  /// key bytes (key(i) is valid only when it does).
  void Clear(bool collect_keys = true) {
    collect_keys_ = collect_keys;
    rids_.clear();
  }

  void Append(std::string_view key, const Rid& rid) {
    if (collect_keys_) {
      if (rids_.size() < keys_.size()) {
        keys_[rids_.size()].assign(key);  // recycle the slot's allocation
      } else {
        keys_.emplace_back(key);
      }
    }
    rids_.push_back(rid);
  }

  size_t size() const { return rids_.size(); }
  bool empty() const { return rids_.empty(); }
  const std::string& key(size_t i) const { return keys_[i]; }
  const Rid& rid(size_t i) const { return rids_[i]; }
  std::span<const Rid> rids() const { return rids_; }

 private:
  bool collect_keys_ = true;
  std::vector<std::string> keys_;  // size() may trail keys_.size()
  std::vector<Rid> rids_;
};

}  // namespace dynopt

#endif  // DYNOPT_INDEX_RID_BATCH_H_
