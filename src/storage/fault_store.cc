#include "storage/fault_store.h"

#include <chrono>
#include <string>
#include <thread>

#include "util/rng.h"

namespace dynopt {

std::string_view PageClassName(PageClass c) {
  switch (c) {
    case PageClass::kHeap:
      return "heap";
    case PageClass::kIndex:
      return "index";
    case PageClass::kOther:
      return "other";
  }
  return "unknown";
}

FaultInjectingPageStore::FaultInjectingPageStore(
    std::unique_ptr<PageStore> inner)
    : inner_(std::move(inner)) {}

PageId FaultInjectingPageStore::Allocate() { return inner_->Allocate(); }

Status FaultInjectingPageStore::Write(PageId id, const PageData& src) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++writes_;
    if (write_program_.kind != WriteFaultProgram::Kind::kNone &&
        writes_ > write_program_.activate_after_writes &&
        PageInProgram(write_program_.target, write_program_.any_class,
                      write_program_.rate, write_program_.seed, id)) {
      switch (write_program_.kind) {
        case WriteFaultProgram::Kind::kPermanent:
          ++injected_writes_;
          return Status::IOError("injected permanent write fault on " +
                                 Describe(id));
        case WriteFaultProgram::Kind::kTransient: {
          uint32_t& n = transient_write_attempts_[id];
          if (n < write_program_.fail_writes) {
            ++n;
            ++injected_writes_;
            return Status::IOError("injected transient write fault on " +
                                   Describe(id) + ", attempt " +
                                   std::to_string(n));
          }
          n = 0;  // this write succeeds; the cycle restarts
          break;
        }
        case WriteFaultProgram::Kind::kTorn: {
          // The caller sees success, but only the first half of the image
          // survives — the second half is deterministically garbled, the
          // way a power cut mid-sector-run tears a frame. Reads of this
          // page report Corruption until a later clean write replaces it.
          ++injected_writes_;
          torn_pages_.insert(id);
          PageData torn = src;
          for (size_t i = kPageSize / 2; i < kPageSize; ++i) {
            torn[i] ^= 0xA5;
          }
          return inner_->Write(id, torn);
        }
        case WriteFaultProgram::Kind::kNone:
          break;
      }
    }
    // A clean full write replaces whatever a torn write left behind.
    torn_pages_.erase(id);
  }
  return inner_->Write(id, src);
}

size_t FaultInjectingPageStore::page_count() const {
  return inner_->page_count();
}

void FaultInjectingPageStore::ClassifyHeapPages(
    const std::vector<PageId>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  heap_pages_.insert(pages.begin(), pages.end());
}

void FaultInjectingPageStore::FreezeClassification() {
  std::lock_guard<std::mutex> lock(mu_);
  index_watermark_ = static_cast<PageId>(inner_->page_count());
  frozen_ = true;
}

PageClass FaultInjectingPageStore::Classify(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (heap_pages_.count(id) > 0) return PageClass::kHeap;
  if (frozen_ && id < index_watermark_) return PageClass::kIndex;
  return PageClass::kOther;
}

void FaultInjectingPageStore::SetProgram(const FaultProgram& program) {
  std::lock_guard<std::mutex> lock(mu_);
  program_ = program;
  transient_attempts_.clear();
}

void FaultInjectingPageStore::SetWriteProgram(
    const WriteFaultProgram& program) {
  std::lock_guard<std::mutex> lock(mu_);
  write_program_ = program;
  transient_write_attempts_.clear();
}

uint64_t FaultInjectingPageStore::injected_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

uint64_t FaultInjectingPageStore::total_reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_;
}

uint64_t FaultInjectingPageStore::slow_reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_reads_;
}

uint64_t FaultInjectingPageStore::injected_write_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_writes_;
}

bool FaultInjectingPageStore::IsTorn(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_pages_.count(id) > 0;
}

PageClass FaultInjectingPageStore::ClassifyLocked(PageId id) const {
  // mu_ held by the caller.
  if (heap_pages_.count(id) > 0) return PageClass::kHeap;
  if (frozen_ && id < index_watermark_) return PageClass::kIndex;
  return PageClass::kOther;
}

std::string FaultInjectingPageStore::Describe(PageId id) const {
  // mu_ held by the caller.
  return "page " + std::to_string(id) + " (" +
         std::string(PageClassName(ClassifyLocked(id))) + ")";
}

bool FaultInjectingPageStore::PageInProgram(PageClass target, bool any_class,
                                            double rate, uint64_t seed,
                                            PageId id) const {
  // mu_ held by the caller.
  if (!any_class && ClassifyLocked(id) != target) return false;
  if (rate >= 1.0) return true;
  // Top 53 bits as a uniform [0,1) draw.
  double draw = static_cast<double>(Mix64(seed ^ id) >> 11) /
                static_cast<double>(1ULL << 53);
  return draw < rate;
}

Status FaultInjectingPageStore::Read(PageId id, PageData* dst) const {
  uint32_t slow_micros = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++reads_;
    // A torn frame reads as Corruption no matter what program is active:
    // the damage is in the (simulated) media, not in the program.
    if (torn_pages_.count(id) > 0) {
      return Status::Corruption("torn write detected on " + Describe(id));
    }
    if (program_.kind != FaultProgram::Kind::kNone &&
        reads_ > program_.activate_after_reads &&
        PageInProgram(program_.target, program_.any_class, program_.rate,
                      program_.seed, id)) {
      std::string where = Describe(id);
      switch (program_.kind) {
        case FaultProgram::Kind::kPermanent:
          ++injected_;
          return Status::IOError("injected permanent I/O fault on " + where);
        case FaultProgram::Kind::kCorrupt:
          ++injected_;
          return Status::Corruption("injected checksum mismatch on " + where);
        case FaultProgram::Kind::kTransient: {
          uint32_t& n = transient_attempts_[id];
          if (n < program_.fail_reads) {
            ++n;
            ++injected_;
            return Status::IOError("injected transient I/O fault on " +
                                   where + ", attempt " + std::to_string(n));
          }
          n = 0;  // this read succeeds; the cycle restarts
          break;
        }
        case FaultProgram::Kind::kSlowRead:
          // The spike is served after the lock drops: a slow device stalls
          // its own readers, not every reader of the store.
          ++slow_reads_;
          slow_micros = program_.slow_micros;
          break;
        case FaultProgram::Kind::kNone:
          break;
      }
    }
  }
  if (slow_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(slow_micros));
  }
  return inner_->Read(id, dst);
}

}  // namespace dynopt
