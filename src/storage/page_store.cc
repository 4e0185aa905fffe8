#include "storage/page_store.h"

#include <chrono>
#include <mutex>
#include <thread>

namespace dynopt {

namespace {

inline void SimulateLatency(uint32_t micros) {
  if (micros != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

}  // namespace

void PageStore::SimulateReadLatency() const {
  SimulateLatency(read_latency_micros_);
}

void PageStore::SimulateWriteLatency() const {
  SimulateLatency(write_latency_micros_);
}

PageId MemPageStore::Allocate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.push_back(std::make_unique<PageData>());
  pages_.back()->fill(0);
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemPageStore::Read(PageId id, PageData* dst) const {
  SimulateReadLatency();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::IOError("read of unallocated page " + std::to_string(id));
  }
  *dst = *pages_[id];
  return Status::OK();
}

Status MemPageStore::Write(PageId id, const PageData& src) {
  SimulateWriteLatency();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::IOError("write of unallocated page " + std::to_string(id));
  }
  *pages_[id] = src;
  return Status::OK();
}

size_t MemPageStore::page_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pages_.size();
}

}  // namespace dynopt
