// Benchmark plumbing with no engine knowledge: seeded generators, timing,
// percentiles, row hashing, process memory, and the in-memory span recorder
// behind the traced run.
//
// The generators are the benchmark's own (not util/rng.h), so a change to
// the engine's utilities cannot move the inputs a seed produces.

#ifndef DYNOPT_PERFBENCH_HARNESS_H_
#define DYNOPT_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix64(seed ^ 0x5eed5eed5eed5eedULL)) {}
  uint64_t Next() { return Mix64(s_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }

 private:
  uint64_t s_;
};

/// Deals a fixed multiset of cards in a freshly shuffled order each round,
/// so every run sees the same mix of query kinds and width buckets and a
/// seed only reorders them and picks the values inside a bucket. This is
/// what keeps run-to-run spread across seeds small.
class Deck {
 public:
  Deck() = default;
  explicit Deck(std::vector<int> cards) : cards_(std::move(cards)) {}
  int Draw(Rng& rng) {
    if (pos_ == 0) {
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.Below(i)]);
      }
    }
    int card = cards_[pos_];
    pos_ = (pos_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<int> cards_;
  size_t pos_ = 0;
};

/// Nearest-rank percentile, q in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

inline uint64_t HashInt(uint64_t h, int64_t v) {
  return Mix64(h ^ static_cast<uint64_t>(v)) + 0x2545f4914f6cdd1dULL;
}

inline uint64_t HashString(uint64_t h, std::string_view s) {
  uint64_t f = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) f = (f ^ c) * 0x100000001b3ULL;
  return Mix64(h ^ f) + 0x9e3779b97f4a7c15ULL;
}

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
inline double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// A fixed piece of work that shares no code or data with the engine: sort
/// a small array, then filter a small set of rows and hash the payloads of
/// those that qualify, all within a core's L2. Timed between operations
/// through a run, its median says how fast the host ran that run; see
/// README.md, "Host-speed scaling".
class HostProbe {
 public:
  HostProbe() : keys_(kKeys) {
    for (size_t i = 0; i < kRows; ++i) {
      rows_.push_back(ProbeRow{Mix64(i) % 100, Mix64(i + kRows) % 200000,
                               std::string(100, static_cast<char>('a' + i % 26))});
    }
  }

  /// Runs the work twice, the first time to bring it into cache, and
  /// returns the wall time of the second run in microseconds.
  double Run() {
    Work();
    Clock::time_point start = Clock::now();
    Work();
    return MicrosBetween(start, Clock::now());
  }

 private:
  struct ProbeRow {
    uint64_t age, income;
    std::string payload;
  };
  static constexpr size_t kKeys = 4096;  // 32 KiB
  static constexpr size_t kRows = 4096;  // about 600 KiB

  void Work() {
    uint64_t h = sink_;
    for (size_t i = 0; i < kKeys; ++i) keys_[i] = Mix64(h + i);
    std::sort(keys_.begin(), keys_.end());
    uint64_t lo = keys_[kKeys / 2] % 50, cap = keys_[kKeys / 3] % 150000 + 40000;
    for (const ProbeRow& r : rows_) {
      if (r.age >= lo && r.age <= lo + 30 && r.income <= cap) {
        h = HashString(h, r.payload);
      }
    }
    sink_ = h;
  }

  std::vector<uint64_t> keys_;
  std::vector<ProbeRow> rows_;
  uint64_t sink_ = 0;
};

/// One complete span in Chrome trace-event form ("ph":"X").
struct SpanEvent {
  std::string name;
  double ts_us = 0;   // start, microseconds since the recorder's origin
  double dur_us = 0;
  std::string args;   // pre-rendered JSON object body, may be empty
};

/// Keeps spans in memory and writes them out once, at the end of the run.
class SpanRecorder {
 public:
  /// Spans past this many are counted but not kept, bounding memory.
  static constexpr size_t kMaxEvents = 400000;

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void Record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::string args = {}) {
    if (events_.size() >= kMaxEvents) {
      dropped_++;
      return;
    }
    events_.push_back(SpanEvent{std::string(name),
                                MicrosBetween(origin_, start),
                                MicrosBetween(start, end), std::move(args)});
  }

  size_t dropped() const { return dropped_; }

  /// Writes {"traceEvents":[...]} — loadable by chrome://tracing and
  /// Perfetto. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const SpanEvent& e = events_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f%s%s%s}%s\n",
                   e.name.c_str(), e.ts_us, e.dur_us,
                   e.args.empty() ? "" : ",\"args\":{",
                   e.args.c_str(), e.args.empty() ? "" : "}",
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<SpanEvent> events_;
  size_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // DYNOPT_PERFBENCH_HARNESS_H_
