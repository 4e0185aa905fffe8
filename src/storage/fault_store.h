// FaultInjectingPageStore: a PageStore decorator that injects read faults.
//
// The runtime sibling of the durability layer's CrashController: where
// crash points kill the process at write barriers, fault programs make the
// *read path* misbehave the way real devices do — transient EIO that a
// retry absorbs, permanent EIO, and checksum corruption. The decorator
// wraps any inner store (MemPageStore for the fault matrix, FilePageStore
// if a durable run wants faults too) and is driven by a seeded, per-page-
// class program so every failure is reproducible.
//
// Page classes let a program target the structurally interesting pages:
// faulting an *index* page exercises strategy disqualification (the
// competition falls back to Tscan), faulting a *heap* page exercises the
// typed-error path (there is no alternative way to fetch a record). The
// harness classifies pages after building the database: heap pages are
// named explicitly, everything else allocated before FreezeClassification()
// is index, and later allocations (growth after the build) are kOther.
//
// Transient faults are deterministic per page: each affected page fails
// `fail_reads` consecutive reads, then succeeds once, then the cycle
// restarts. A retry budget >= fail_reads therefore always recovers, and
// one below it reliably does not — the property the retry tests pin down.
//
// The write path mirrors the read path with its own program: transient
// write EIO (fails `fail_writes` consecutive writes per page, then lets
// one through), permanent write EIO, and *torn writes* — the write
// "succeeds" but only the first half of the image reaches the inner
// store; the decorator remembers the page and reports Corruption on every
// read of it until a later successful full write heals it, which is
// exactly how a checksumming store surfaces a torn frame. The store has
// no fsync operation of its own (FilePageStore::Sync and the WAL's fsync
// are driven directly); sync-barrier failures are injected with the
// durability layer's CrashController instead.

#ifndef DYNOPT_STORAGE_FAULT_STORE_H_
#define DYNOPT_STORAGE_FAULT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace dynopt {

enum class PageClass : uint8_t { kHeap, kIndex, kOther };

std::string_view PageClassName(PageClass c);

struct FaultProgram {
  enum class Kind : uint8_t {
    kNone = 0,
    kTransient,  ///< IOError for `fail_reads` consecutive reads, then ok
    kPermanent,  ///< IOError on every read, forever
    kCorrupt,    ///< Corruption on every read (not retryable)
    kSlowRead,   ///< latency spike of `slow_micros`, no error — a degraded
                 ///< device, the pressure source for overload tests
  };

  Kind kind = Kind::kNone;
  /// Class the program targets; kAnyClass (below) hits every class.
  PageClass target = PageClass::kIndex;
  bool any_class = false;
  /// Fraction of target-class pages affected, chosen by seeded hash of the
  /// page id — deterministic for a given (seed, rate).
  double rate = 1.0;
  uint64_t seed = 0xFA17;
  /// kTransient: consecutive failed reads per cycle.
  uint32_t fail_reads = 2;
  /// kSlowRead: added latency per affected read. The sleep happens with no
  /// decorator lock held, so slow pages stall only their own readers.
  uint32_t slow_micros = 200;
  /// The program arms only after this many total reads have passed through
  /// the decorator — lets a test build/scan cleanly and fault mid-flight.
  uint64_t activate_after_reads = 0;

  static FaultProgram Transient(PageClass target, double rate,
                                uint32_t fail_reads = 2) {
    FaultProgram p;
    p.kind = Kind::kTransient;
    p.target = target;
    p.rate = rate;
    p.fail_reads = fail_reads;
    return p;
  }
  static FaultProgram Permanent(PageClass target, double rate = 1.0) {
    FaultProgram p;
    p.kind = Kind::kPermanent;
    p.target = target;
    p.rate = rate;
    return p;
  }
  static FaultProgram Corrupt(PageClass target, double rate = 1.0) {
    FaultProgram p;
    p.kind = Kind::kCorrupt;
    p.target = target;
    p.rate = rate;
    return p;
  }
  static FaultProgram SlowRead(PageClass target, double rate,
                               uint32_t slow_micros) {
    FaultProgram p;
    p.kind = Kind::kSlowRead;
    p.target = target;
    p.rate = rate;
    p.slow_micros = slow_micros;
    return p;
  }
};

/// Write-side twin of FaultProgram (see the file comment for semantics).
struct WriteFaultProgram {
  enum class Kind : uint8_t {
    kNone = 0,
    kTransient,  ///< IOError for `fail_writes` consecutive writes, then ok
    kPermanent,  ///< IOError on every write, forever
    kTorn,       ///< write reports success but half the image is lost;
                 ///< reads then see Corruption until a full write heals it
  };

  Kind kind = Kind::kNone;
  PageClass target = PageClass::kIndex;
  bool any_class = false;
  double rate = 1.0;
  uint64_t seed = 0xFA17;
  /// kTransient: consecutive failed writes per cycle.
  uint32_t fail_writes = 2;
  /// Arms only after this many total writes have passed through.
  uint64_t activate_after_writes = 0;

  static WriteFaultProgram Transient(PageClass target, double rate,
                                     uint32_t fail_writes = 2) {
    WriteFaultProgram p;
    p.kind = Kind::kTransient;
    p.target = target;
    p.rate = rate;
    p.fail_writes = fail_writes;
    return p;
  }
  static WriteFaultProgram Permanent(PageClass target, double rate = 1.0) {
    WriteFaultProgram p;
    p.kind = Kind::kPermanent;
    p.target = target;
    p.rate = rate;
    return p;
  }
  static WriteFaultProgram Torn(PageClass target, double rate = 1.0) {
    WriteFaultProgram p;
    p.kind = Kind::kTorn;
    p.target = target;
    p.rate = rate;
    return p;
  }
};

class FaultInjectingPageStore : public PageStore {
 public:
  explicit FaultInjectingPageStore(std::unique_ptr<PageStore> inner);

  PageId Allocate() override;
  Status Read(PageId id, PageData* dst) const override;
  Status Write(PageId id, const PageData& src) override;
  size_t page_count() const override;

  /// Marks the given pages as heap pages (call once per table).
  void ClassifyHeapPages(const std::vector<PageId>& pages);
  /// Every page allocated so far and not marked heap becomes kIndex;
  /// pages allocated afterwards are kOther.
  void FreezeClassification();
  PageClass Classify(PageId id) const;

  /// Installs a program (resetting transient attempt counters) or clears
  /// it with a default-constructed (kNone) program.
  void SetProgram(const FaultProgram& program);
  void ClearProgram() { SetProgram(FaultProgram{}); }

  /// Installs the write-side program. Clearing it does not heal pages a
  /// torn write already mangled — only a successful full write does.
  void SetWriteProgram(const WriteFaultProgram& program);
  void ClearWriteProgram() { SetWriteProgram(WriteFaultProgram{}); }

  uint64_t injected_faults() const;
  uint64_t total_reads() const;
  /// Reads a kSlowRead program delayed (not counted as injected faults —
  /// nothing failed).
  uint64_t slow_reads() const;
  uint64_t injected_write_faults() const;
  /// True while page `id` carries a torn (half-written) image.
  bool IsTorn(PageId id) const;

 private:
  bool PageInProgram(PageClass target, bool any_class, double rate,
                     uint64_t seed, PageId id) const;
  PageClass ClassifyLocked(PageId id) const;
  std::string Describe(PageId id) const;

  std::unique_ptr<PageStore> inner_;

  mutable std::mutex mu_;
  FaultProgram program_;
  std::unordered_set<PageId> heap_pages_;
  PageId index_watermark_ = 0;  // pages below it (non-heap) are kIndex
  bool frozen_ = false;
  mutable std::unordered_map<PageId, uint32_t> transient_attempts_;
  mutable uint64_t reads_ = 0;
  mutable uint64_t injected_ = 0;
  mutable uint64_t slow_reads_ = 0;

  WriteFaultProgram write_program_;
  std::unordered_map<PageId, uint32_t> transient_write_attempts_;
  std::unordered_set<PageId> torn_pages_;
  uint64_t writes_ = 0;
  uint64_t injected_writes_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_FAULT_STORE_H_
