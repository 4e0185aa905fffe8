// PageStore: the disk abstraction.
//
// All persistent structures live on 8 KiB pages addressed by PageId and
// moved between a PageStore and main memory (BufferPool). PageStore itself
// performs no cost accounting — the BufferPool charges physical I/O when it
// actually faults or flushes — so reads/writes here are exactly the
// "physical" operations of the cost model.
//
// Two implementations:
//  * MemPageStore (here) — the original volatile in-memory array standing
//    in for the paper's VMS disk volumes; the default for tests/benches.
//  * FilePageStore (src/durability/file_page_store.h) — a single database
//    file with per-page checksums, the durable backend under the WAL.
//
// Thread safety contract (all implementations): Allocate/Read/Write/
// page_count may be called from any thread; reads/writes of *distinct*
// pages proceed in parallel. Callers are responsible for not racing Read
// and Write on the *same* page — the BufferPool guarantees that by owning
// each PageId in exactly one shard.
//
// set_simulated_latency() makes each physical read/write block for a fixed
// device latency, turning the store into something sessions can genuinely
// overlap on: with it enabled, concurrent workloads reproduce the real
// phenomenon that total throughput is bounded by outstanding I/O, not by
// the sum of per-session costs. Off (the default) for deterministic
// single-threaded tests.

#ifndef DYNOPT_STORAGE_PAGE_STORE_H_
#define DYNOPT_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace dynopt {

class PageStore {
 public:
  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;
  virtual ~PageStore() = default;

  /// Allocates a zeroed page and returns its id.
  virtual PageId Allocate() = 0;

  /// Copies page `id` into `*dst`.
  virtual Status Read(PageId id, PageData* dst) const = 0;

  /// Copies `src` into page `id`.
  virtual Status Write(PageId id, const PageData& src) = 0;

  virtual size_t page_count() const = 0;

  /// Blocks each Read/Write for the given microseconds (0 = off). The
  /// sleep happens before any internal lock is taken, so sleeping I/Os
  /// from different sessions overlap like requests queued on a device.
  void set_simulated_latency(uint32_t read_micros, uint32_t write_micros) {
    read_latency_micros_ = read_micros;
    write_latency_micros_ = write_micros;
  }

 protected:
  /// Implementations call these at the top of Read/Write.
  void SimulateReadLatency() const;
  void SimulateWriteLatency() const;

 private:
  uint32_t read_latency_micros_ = 0;
  uint32_t write_latency_micros_ = 0;
};

/// The volatile in-memory store: pages live in one process-local array and
/// vanish with the process. The page directory is guarded by a shared mutex
/// (distinct-page reads/writes proceed in parallel; Allocate is exclusive).
class MemPageStore : public PageStore {
 public:
  MemPageStore() = default;

  PageId Allocate() override;
  Status Read(PageId id, PageData* dst) const override;
  Status Write(PageId id, const PageData& src) override;
  size_t page_count() const override;

 private:
  mutable std::shared_mutex mu_;  // guards the pages_ directory
  std::vector<std::unique_ptr<PageData>> pages_;
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_PAGE_STORE_H_
