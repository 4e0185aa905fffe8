// Relaxed-ordering atomic counters for shared accounting state.
//
// The metrics registry and the buffer pool's shared cost meter are charged
// from every session's thread at once. These wrappers make each
// individual charge a relaxed atomic RMW — no locks, no allocation, no
// ordering beyond the count itself — while staying drop-in compatible
// with the single-threaded idioms the engine already uses everywhere
// (`meter->logical_reads++`, snapshot copies, deltas).
//
// Relaxed ordering is deliberate: counters are monotonic tallies, not
// synchronization. Cross-field snapshots of the shared meter are therefore
// not a consistent cut under concurrency — each field is exact, the tuple
// is approximate. A query's own meter is charged by its thread alone.

#ifndef DYNOPT_UTIL_ATOMIC_COUNTER_H_
#define DYNOPT_UTIL_ATOMIC_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace dynopt {

/// A uint64 tally with relaxed atomic increments. Copyable (relaxed
/// load/store) so snapshot-and-delta arithmetic keeps working.
class RelaxedCounter {
 public:
  constexpr RelaxedCounter(uint64_t v = 0) noexcept : v_(v) {}
  RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  uint64_t load() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const noexcept { return load(); }

  void Add(uint64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  RelaxedCounter& operator++() noexcept {
    Add(1);
    return *this;
  }
  uint64_t operator++(int) noexcept {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }
  RelaxedCounter& operator+=(uint64_t n) noexcept {
    Add(n);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_;
};

/// A double accumulator with relaxed CAS-loop adds (histogram sums).
class RelaxedDouble {
 public:
  constexpr RelaxedDouble(double v = 0) noexcept : v_(v) {}
  RelaxedDouble(const RelaxedDouble& o) noexcept : v_(o.load()) {}
  RelaxedDouble& operator=(const RelaxedDouble& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedDouble& operator=(double v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  double load() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator double() const noexcept { return load(); }

  void Add(double x) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
    }
  }
  RelaxedDouble& operator+=(double x) noexcept {
    Add(x);
    return *this;
  }

 private:
  std::atomic<double> v_;
};

}  // namespace dynopt

#endif  // DYNOPT_UTIL_ATOMIC_COUNTER_H_
