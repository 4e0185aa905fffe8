// Governance tests: QueryContext units, fault-store determinism, buffer-
// pool retry, spill accounting on early unwind, and the engine-level
// cancellation/deadline/budget sweep plus degraded Tscan fallback.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "exec/rid_set.h"
#include "families.h"
#include "governance/query_context.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/fault_store.h"
#include "storage/page_store.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

// ---------------------------------------------------------------------------
// QueryContext units.

TEST(QueryContextTest, ChecksPassWithNoLimits) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_EQ(ctx.polls(), 2u);
}

TEST(QueryContextTest, CancelIsSticky) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  ctx.Cancel();
  Status st = ctx.Check();
  EXPECT_TRUE(st.IsCancelled()) << st;
  // Sticky: every later poll returns the same typed error.
  EXPECT_TRUE(ctx.Check().IsCancelled());
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

TEST(QueryContextTest, DeadlineInThePastTrips) {
  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  Status st = ctx.Check();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st;
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(QueryContextTest, DeadlineFromOptionsEventuallyTrips) {
  QueryGovernanceOptions o;
  o.deadline_micros = 1;  // expires essentially immediately
  QueryContext ctx(o);
  // Burn enough wall clock that 1us has certainly passed.
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(QueryContextTest, PagesReadBudgetTrips) {
  QueryGovernanceOptions o;
  o.budgets.max_pages_read = 10;
  QueryContext ctx(o);
  ctx.ChargePagesRead(10);
  EXPECT_TRUE(ctx.Check().ok());  // at the limit is still fine
  ctx.ChargePagesRead(1);
  Status st = ctx.Check();
  EXPECT_TRUE(st.IsBudgetExceeded()) << st;
  EXPECT_NE(st.message().find("pages"), std::string::npos) << st;
}

TEST(QueryContextTest, SpillBudgetIsLiveAndReleasable) {
  QueryGovernanceOptions o;
  o.budgets.max_spill_bytes = 2 * kPageSize;
  QueryContext ctx(o);
  ctx.ChargeSpillBytes(2 * kPageSize);
  EXPECT_TRUE(ctx.Check().ok());
  ctx.ReleaseSpillBytes(kPageSize);
  ctx.ChargeSpillBytes(kPageSize);
  EXPECT_TRUE(ctx.Check().ok());  // live spill never exceeded the cap
  ctx.ChargeSpillBytes(2 * kPageSize);
  EXPECT_TRUE(ctx.Check().IsBudgetExceeded());
}

TEST(QueryContextTest, RidListBudgetTrips) {
  QueryGovernanceOptions o;
  o.budgets.max_rid_list_bytes = 64;
  QueryContext ctx(o);
  ctx.ChargeRidListBytes(65);
  EXPECT_TRUE(ctx.Check().IsBudgetExceeded());
}

TEST(QueryContextTest, TripAfterPollsFiresOnExactPoll) {
  QueryContext ctx;
  ctx.TripAfterPolls(3, StatusCode::kCancelled);
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.Check().IsCancelled());
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

TEST(QueryContextTest, MetricsBumpOncePerTripNotPerPoll) {
  MetricsRegistry registry;
  QueryContext ctx(QueryGovernanceOptions{}, &registry);
  ctx.Cancel();
  EXPECT_TRUE(ctx.Check().IsCancelled());
  EXPECT_TRUE(ctx.Check().IsCancelled());
  EXPECT_TRUE(ctx.Check().IsCancelled());
  EXPECT_EQ(registry.Value("governance.cancellations"), 1u);
  EXPECT_EQ(registry.Value("governance.deadline_hits"), 0u);

  QueryContext ctx2(QueryGovernanceOptions{}, &registry);
  ctx2.SetDeadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx2.Check().IsDeadlineExceeded());
  EXPECT_TRUE(ctx2.Check().IsDeadlineExceeded());
  EXPECT_EQ(registry.Value("governance.deadline_hits"), 1u);
}

TEST(StatusGovernanceTest, TypedCodesAndContext) {
  Status c = Status::FromCode(StatusCode::kCancelled, "stop");
  Status d = Status::FromCode(StatusCode::kDeadlineExceeded, "late");
  Status b = Status::FromCode(StatusCode::kBudgetExceeded, "broke");
  EXPECT_TRUE(c.IsCancelled());
  EXPECT_TRUE(d.IsDeadlineExceeded());
  EXPECT_TRUE(b.IsBudgetExceeded());
  EXPECT_TRUE(c.IsGovernance());
  EXPECT_TRUE(d.IsGovernance());
  EXPECT_TRUE(b.IsGovernance());
  EXPECT_FALSE(Status::IOError("eio").IsGovernance());
  EXPECT_FALSE(Status::OK().IsGovernance());

  Status wrapped = WithContext("pin of page 7", Status::IOError("eio"));
  EXPECT_TRUE(wrapped.IsIOError());
  EXPECT_NE(wrapped.message().find("pin of page 7"), std::string::npos);
  EXPECT_NE(wrapped.message().find("eio"), std::string::npos);

  EXPECT_TRUE(IsIoFault(Status::IOError("x")));
  EXPECT_TRUE(IsIoFault(Status::Corruption("x")));
  EXPECT_FALSE(IsIoFault(Status::FromCode(StatusCode::kCancelled, "x")));
}

// ---------------------------------------------------------------------------
// FaultInjectingPageStore.

TEST(FaultStoreTest, TransientCycleIsDeterministic) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  PageId id = store.Allocate();
  PageData data{};
  data[0] = 42;
  ASSERT_TRUE(store.Write(id, data).ok());
  store.FreezeClassification();  // no heap pages named: the page is kIndex
  ASSERT_EQ(store.Classify(id), PageClass::kIndex);

  store.SetProgram(FaultProgram::Transient(PageClass::kIndex, 1.0,
                                           /*fail_reads=*/2));
  PageData dst{};
  // fail, fail, ok — and the cycle repeats.
  for (int cycle = 0; cycle < 2; ++cycle) {
    EXPECT_TRUE(store.Read(id, &dst).IsIOError());
    EXPECT_TRUE(store.Read(id, &dst).IsIOError());
    Status ok = store.Read(id, &dst);
    ASSERT_TRUE(ok.ok()) << ok;
    EXPECT_EQ(dst[0], 42);
  }
  EXPECT_EQ(store.injected_faults(), 4u);
  EXPECT_EQ(store.total_reads(), 6u);
}

TEST(FaultStoreTest, RateSelectsDeterministicSubset) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  std::vector<PageId> ids;
  PageData data{};
  for (int i = 0; i < 200; ++i) {
    PageId id = store.Allocate();
    ASSERT_TRUE(store.Write(id, data).ok());
    ids.push_back(id);
  }
  store.FreezeClassification();

  auto failing_set = [&] {
    std::set<PageId> failing;
    PageData dst{};
    for (PageId id : ids) {
      if (!store.Read(id, &dst).ok()) failing.insert(id);
    }
    return failing;
  };
  store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 0.3));
  std::set<PageId> first = failing_set();
  store.ClearProgram();
  store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 0.3));
  std::set<PageId> second = failing_set();
  EXPECT_EQ(first, second);  // seeded hash of the page id, not dice
  // The rate is approximate but must not degenerate to none/all.
  EXPECT_GT(first.size(), 20u);
  EXPECT_LT(first.size(), 120u);
}

TEST(FaultStoreTest, ProgramTargetsOnlyItsClass) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  PageData data{};
  PageId heap_page = store.Allocate();
  PageId index_page = store.Allocate();
  ASSERT_TRUE(store.Write(heap_page, data).ok());
  ASSERT_TRUE(store.Write(index_page, data).ok());
  store.ClassifyHeapPages({heap_page});
  store.FreezeClassification();
  PageId other_page = store.Allocate();  // post-freeze => kOther
  ASSERT_TRUE(store.Write(other_page, data).ok());

  EXPECT_EQ(store.Classify(heap_page), PageClass::kHeap);
  EXPECT_EQ(store.Classify(index_page), PageClass::kIndex);
  EXPECT_EQ(store.Classify(other_page), PageClass::kOther);

  store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  PageData dst{};
  EXPECT_TRUE(store.Read(heap_page, &dst).ok());
  EXPECT_TRUE(store.Read(index_page, &dst).IsIOError());
  EXPECT_TRUE(store.Read(other_page, &dst).ok());

  FaultProgram any = FaultProgram::Permanent(PageClass::kIndex, 1.0);
  any.any_class = true;
  store.SetProgram(any);
  EXPECT_TRUE(store.Read(heap_page, &dst).IsIOError());
  EXPECT_TRUE(store.Read(other_page, &dst).IsIOError());
}

TEST(FaultStoreTest, ActivateAfterReadsDelaysTheProgram) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  PageId id = store.Allocate();
  PageData data{};
  ASSERT_TRUE(store.Write(id, data).ok());
  store.FreezeClassification();

  FaultProgram p = FaultProgram::Permanent(PageClass::kIndex, 1.0);
  p.activate_after_reads = 3;
  store.SetProgram(p);
  PageData dst{};
  EXPECT_TRUE(store.Read(id, &dst).ok());
  EXPECT_TRUE(store.Read(id, &dst).ok());
  EXPECT_TRUE(store.Read(id, &dst).ok());
  EXPECT_TRUE(store.Read(id, &dst).IsIOError());
}

TEST(FaultStoreTest, CorruptProgramReturnsCorruption) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  PageId id = store.Allocate();
  PageData data{};
  ASSERT_TRUE(store.Write(id, data).ok());
  store.FreezeClassification();
  store.SetProgram(FaultProgram::Corrupt(PageClass::kIndex, 1.0));
  PageData dst{};
  EXPECT_TRUE(store.Read(id, &dst).IsCorruption());
}

// kSlowRead injects latency, not errors: the read succeeds, the page is
// intact, injected_faults stays zero, and only the seeded subset of pages
// is affected — the pressure source for the overload benches.
TEST(FaultStoreTest, SlowReadDelaysWithoutError) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  std::vector<PageId> pages;
  for (int i = 0; i < 32; ++i) {
    PageId id = store.Allocate();
    PageData data{};
    data[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(store.Write(id, data).ok());
    pages.push_back(id);
  }
  store.FreezeClassification();
  store.SetProgram(
      FaultProgram::SlowRead(PageClass::kIndex, 0.5, /*slow_micros=*/300));

  auto t0 = std::chrono::steady_clock::now();
  PageData dst{};
  for (PageId id : pages) {
    ASSERT_TRUE(store.Read(id, &dst).ok());  // never an error
  }
  auto elapsed = std::chrono::steady_clock::now() - t0;
  uint64_t slow = store.slow_reads();
  EXPECT_GT(slow, 0u);
  EXPECT_LT(slow, 32u);  // rate 0.5 hits a strict, seeded subset
  EXPECT_EQ(store.injected_faults(), 0u);
  EXPECT_GE(elapsed, std::chrono::microseconds(300 * slow / 2));

  // Deterministic: the same program delays the same pages.
  uint64_t first_pass = slow;
  for (PageId id : pages) ASSERT_TRUE(store.Read(id, &dst).ok());
  EXPECT_EQ(store.slow_reads(), 2 * first_pass);
}

// ---------------------------------------------------------------------------
// Buffer-pool retry with backoff.

struct RetryRig {
  FaultInjectingPageStore store;
  MetricsRegistry registry;
  BufferPool pool;
  PageId id = 0;

  RetryRig()
      : store(std::make_unique<MemPageStore>()), pool(&store, 8) {
    pool.AttachMetrics(&registry);
    auto g = pool.NewPage();
    EXPECT_TRUE(g.ok());
    id = g->id();
    g->mutable_data()[0] = 7;
    g->Release();
    EXPECT_TRUE(pool.FlushAll().ok());
    EXPECT_TRUE(pool.EvictAll().ok());
    store.FreezeClassification();  // the page is kIndex
  }
};

TEST(BufferPoolRetryTest, TransientFaultIsAbsorbedByRetry) {
  RetryRig rig;
  // fail_reads=2 < max_retries=3: the pin must succeed.
  rig.store.SetProgram(
      FaultProgram::Transient(PageClass::kIndex, 1.0, /*fail_reads=*/2));
  auto g = rig.pool.Pin(rig.id);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->data()[0], 7);
  EXPECT_EQ(rig.registry.Value("governance.io_retries"), 2u);
  EXPECT_GT(rig.registry.Value("governance.io_backoff_micros"), 0u);
  EXPECT_EQ(rig.registry.Value("governance.io_faults"), 0u);
}

TEST(BufferPoolRetryTest, ExhaustedRetriesReturnTypedErrorWithPageId) {
  RetryRig rig;
  rig.store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  auto g = rig.pool.Pin(rig.id);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIOError()) << g.status();
  // The error carries where it happened.
  EXPECT_NE(g.status().message().find("page"), std::string::npos)
      << g.status();
  EXPECT_NE(g.status().message().find(std::to_string(rig.id)),
            std::string::npos)
      << g.status();
  EXPECT_EQ(rig.registry.Value("governance.io_retries"),
            rig.pool.retry_policy().max_retries);
  EXPECT_EQ(rig.registry.Value("governance.io_faults"), 1u);
  EXPECT_EQ(rig.pool.PinnedPages(), 0u);
  EXPECT_TRUE(rig.pool.CheckInvariants().ok());
}

TEST(BufferPoolRetryTest, CorruptionIsNeverRetried) {
  RetryRig rig;
  rig.store.SetProgram(FaultProgram::Corrupt(PageClass::kIndex, 1.0));
  auto g = rig.pool.Pin(rig.id);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption()) << g.status();
  EXPECT_EQ(rig.registry.Value("governance.io_retries"), 0u);
  EXPECT_EQ(rig.store.total_reads(), 1u);  // exactly one attempt
  EXPECT_EQ(rig.pool.PinnedPages(), 0u);
}

// The retry backoff runs with the shard lock released: while one thread
// burns through a faulty page's backoff schedule, pins of other pages in
// the same shard must proceed.
TEST(BufferPoolRetryTest, BackoffDoesNotBlockOtherPagesInShard) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  BufferPool pool(&store, 8);  // < 128 frames: a single shard
  ASSERT_EQ(pool.shard_count(), 1u);
  PageId faulty = 0, healthy = 0;
  for (int i = 0; i < 2; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    (i == 0 ? faulty : healthy) = g->id();
    g->mutable_data()[0] = static_cast<uint8_t>(i + 1);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  store.ClassifyHeapPages({healthy});
  store.FreezeClassification();  // `faulty` is kIndex, `healthy` is kHeap
  store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));

  BufferPool::IoRetryPolicy slow;
  slow.max_retries = 5;
  slow.base_backoff_micros = 40000;
  slow.max_backoff_micros = 40000;  // ≥200ms of backoff on the faulty pin
  pool.set_retry_policy(slow);

  std::atomic<bool> started{false};
  std::chrono::steady_clock::time_point faulty_done, healthy_done;
  std::thread a([&] {
    started.store(true, std::memory_order_release);
    auto g = pool.Pin(faulty);
    EXPECT_FALSE(g.ok());
    faulty_done = std::chrono::steady_clock::now();
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    auto g = pool.Pin(healthy);
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(g->data()[0], 2);
    healthy_done = std::chrono::steady_clock::now();
  }
  a.join();
  // The healthy pin finished while the faulty one was still backing off.
  EXPECT_LT(healthy_done, faulty_done);
  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

// Concurrent pins of the same faulting page: exactly one thread performs
// the load at a time, the rest wait on the placeholder; all observe the
// typed error, the pool stays consistent, and a healthy replay succeeds.
TEST(BufferPoolRetryTest, ConcurrentPinsOfFaultyPageAllFailTyped) {
  RetryRig rig;
  rig.store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto g = rig.pool.Pin(rig.id);
      if (!g.ok() && g.status().IsIOError()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(rig.pool.PinnedPages(), 0u);
  EXPECT_TRUE(rig.pool.CheckInvariants().ok());

  rig.store.ClearProgram();
  auto g = rig.pool.Pin(rig.id);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->data()[0], 7);
}

// ---------------------------------------------------------------------------
// Jittered, interruptible, token-capped retry backoff (overload governor).

TEST(BufferPoolRetryTest, JitteredBackoffIsDeterministicAndBounded) {
  BufferPool::IoRetryPolicy p;
  p.base_backoff_micros = 100;
  p.max_backoff_micros = 800;
  p.jitter_fraction = 0.25;
  // Exact replay: the draw is a pure function of (policy, page, attempt).
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(JitteredBackoffMicros(p, 42, attempt),
              JitteredBackoffMicros(p, 42, attempt));
  }
  // Bounds: within +/- jitter_fraction of the capped exponential base.
  for (PageId id = 0; id < 64; ++id) {
    for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
      uint64_t base = std::min<uint64_t>(
          uint64_t{p.base_backoff_micros} << (attempt - 1),
          p.max_backoff_micros);
      uint64_t v = JitteredBackoffMicros(p, id, attempt);
      EXPECT_GE(v, static_cast<uint64_t>(static_cast<double>(base) * 0.74));
      EXPECT_LE(v, static_cast<uint64_t>(static_cast<double>(base) * 1.26));
    }
  }
  // Different pages draw different jitter — the anti-retry-storm property:
  // a shard's worth of faulty pages must not wake in lockstep.
  std::set<uint64_t> distinct;
  for (PageId id = 0; id < 64; ++id) {
    distinct.insert(JitteredBackoffMicros(p, id, 3));
  }
  EXPECT_GT(distinct.size(), 8u);
  // jitter_fraction 0 reproduces the plain exponential schedule exactly.
  p.jitter_fraction = 0;
  EXPECT_EQ(JitteredBackoffMicros(p, 7, 1), 100u);
  EXPECT_EQ(JitteredBackoffMicros(p, 7, 4), 800u);
}

// A Cancel() on the governing query must cut a long backoff schedule
// short: the pin returns the typed trip status promptly instead of
// sleeping out the full schedule.
TEST(BufferPoolRetryTest, BackoffIsCancellable) {
  RetryRig rig;
  rig.store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  BufferPool::IoRetryPolicy slow;
  slow.max_retries = 5;
  slow.base_backoff_micros = 200000;
  slow.max_backoff_micros = 200000;  // ~1s of sleeping if never interrupted
  rig.pool.set_retry_policy(slow);

  QueryContext ctx;
  std::atomic<bool> started{false};
  Status pin_status;
  auto t0 = std::chrono::steady_clock::now();
  std::thread worker([&] {
    // The pool discovers the governing query the same way the engine
    // installs it: through the thread-local ScopedQueryContext.
    ScopedQueryContext current(&ctx);
    started.store(true, std::memory_order_release);
    auto g = rig.pool.Pin(rig.id);
    EXPECT_FALSE(g.ok());
    pin_status = g.status();
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.Cancel();
  worker.join();
  auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(pin_status.IsCancelled()) << pin_status;
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  EXPECT_EQ(rig.pool.PinnedPages(), 0u);
  EXPECT_TRUE(rig.pool.CheckInvariants().ok());
}

// A deadline expiring mid-backoff wakes the wait the same way.
TEST(BufferPoolRetryTest, BackoffHonorsDeadlineExpiry) {
  RetryRig rig;
  rig.store.SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  BufferPool::IoRetryPolicy slow;
  slow.max_retries = 5;
  slow.base_backoff_micros = 200000;
  slow.max_backoff_micros = 200000;
  rig.pool.set_retry_policy(slow);

  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(30));
  auto t0 = std::chrono::steady_clock::now();
  Status pin_status;
  {
    ScopedQueryContext current(&ctx);
    pin_status = rig.pool.Pin(rig.id).status();
  }
  auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(pin_status.IsDeadlineExceeded()) << pin_status;
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  EXPECT_EQ(rig.pool.PinnedPages(), 0u);
}

// The shared RetryBudget caps how many pins may back off at once; a pin
// denied a token fails typed instead of sleeping, and the token returns
// to the bucket after the wait.
TEST(BufferPoolRetryTest, RetryBudgetExhaustionDeniesBackoff) {
  RetryRig rig;
  rig.store.SetProgram(
      FaultProgram::Transient(PageClass::kIndex, 1.0, /*fail_reads=*/2));
  RetryBudget empty(0);
  rig.pool.set_retry_budget(&empty);
  auto g = rig.pool.Pin(rig.id);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIOError()) << g.status();
  EXPECT_NE(g.status().message().find("retry budget"), std::string::npos)
      << g.status();
  EXPECT_EQ(rig.registry.Value("governance.retry_denied"), 1u);
  EXPECT_EQ(rig.registry.Value("governance.io_retries"), 0u);

  // With tokens available the same fault is absorbed, and every borrowed
  // token comes back.
  RetryBudget tokens(2);
  rig.pool.set_retry_budget(&tokens);
  auto g2 = rig.pool.Pin(rig.id);
  ASSERT_TRUE(g2.ok()) << g2.status();
  EXPECT_EQ(tokens.available(), 2);
  rig.pool.set_retry_budget(nullptr);
}

// ---------------------------------------------------------------------------
// Sticky-trip races: concurrent Cancel() vs. a budget trip must resolve to
// exactly one stable typed error with its counter bumped exactly once.
// (Runs under TSan in CI via the QueryContext filter.)

TEST(QueryContextTest, ConcurrentCancelAndBudgetTripHasOneStableWinner) {
  for (int round = 0; round < 64; ++round) {
    MetricsRegistry registry;
    QueryGovernanceOptions o;
    o.budgets.max_pages_read = 1;
    QueryContext ctx(o, &registry);
    std::atomic<int> gate{0};
    std::thread canceller([&] {
      gate.fetch_add(1, std::memory_order_acq_rel);
      while (gate.load(std::memory_order_acquire) < 2) {
      }
      ctx.Cancel();
      (void)ctx.Check();
    });
    std::thread tripper([&] {
      gate.fetch_add(1, std::memory_order_acq_rel);
      while (gate.load(std::memory_order_acquire) < 2) {
      }
      ctx.ChargePagesRead(2);
      (void)ctx.Check();
    });
    canceller.join();
    tripper.join();
    Status first = ctx.Check();
    ASSERT_FALSE(first.ok());
    EXPECT_TRUE(first.IsCancelled() || first.IsBudgetExceeded()) << first;
    // First trip wins and stays won.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(ctx.Check().code(), first.code());
    }
    EXPECT_EQ(registry.Value("governance.cancellations") +
                  registry.Value("governance.budget_hits"),
              1u)
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Spill accounting on early unwind.

TEST(HybridRidListTest, SpilledListChargesAndRefundsContext) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  QueryContext ctx;
  {
    HybridRidList::Options o;
    o.inline_capacity = 4;
    o.memory_capacity = 16;
    HybridRidList list(&pool, o);
    list.set_context(&ctx);
    for (uint64_t i = 0; i < 4096; ++i) {
      ASSERT_TRUE(list.Append(Rid::FromU64(i + 1)).ok());
    }
    EXPECT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
    EXPECT_EQ(ctx.rid_list_bytes(), 16 * sizeof(Rid));
    // 4,080 spilled RIDs fill four temp-table pages.
    EXPECT_EQ(ctx.spill_bytes(), 4 * kPageSize);
    // `list` dies here mid-query, unsealed — the early-unwind path.
  }
  EXPECT_EQ(ctx.spill_bytes(), 0u);  // budget returned
  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_EQ(store.page_count(), 0u);  // no spill page reached the store
}

// ---------------------------------------------------------------------------
// Engine-level governance: the poll-boundary sweep.

// The fault store, a base so it is built before the database that takes
// it over.
struct FaultStore {
  std::unique_ptr<FaultInjectingPageStore> store =
      std::make_unique<FaultInjectingPageStore>(
          std::make_unique<MemPageStore>());
  FaultInjectingPageStore* faults = store.get();
};

// FAMILIES over a FaultInjectingPageStore, with by_id and by_age.
struct FaultyFamilies : FaultStore, Families {
  // `extra_indexes` (name, columns) are built beside by_id and by_age,
  // before the fault classification freezes, so their pages are kIndex.
  explicit FaultyFamilies(
      int n = 2000, size_t pool_pages = 64,
      std::vector<std::pair<std::string, std::vector<std::string>>>
          extra_indexes = {})
      : Families(n, DatabaseOptions{.pool_pages = pool_pages},
                 std::move(store)) {
    EXPECT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
    EXPECT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
    for (const auto& [name, cols] : extra_indexes) {
      EXPECT_TRUE(table->CreateIndex(name, cols).ok());
    }
    faults->ClassifyHeapPages(table->heap()->pages());
    faults->FreezeClassification();
  }

  RetrievalSpec RangeSpec(
      OptimizationGoal goal = OptimizationGoal::kTotalTime) {
    RetrievalSpec s;
    s.table = table;
    s.restriction = Predicate::And(
        {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                            Operand::Literal(Value(int64_t{45}))),
         Predicate::Compare(2, CompareOp::kLt,
                            Operand::Literal(Value(int64_t{120000})))});
    s.projection = {0, 1, 2};
    s.goal = goal;
    return s;
  }

  // Covering age query: restriction and projection live entirely in by_age.
  RetrievalSpec CoveringAgeSpec() {
    RetrievalSpec s;
    s.table = table;
    s.restriction =
        Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                           Operand::Literal(Value(int64_t{60})));
    s.projection = {1};
    return s;
  }
};

// Measures how many polls one clean execution makes, then replays it with
// the context rigged to trip at every single poll boundary, asserting a
// typed unwind (right code, no pinned pages, invariants hold) each time.
void SweepTripBoundaries(FaultyFamilies* f, const RetrievalSpec& spec,
                         StatusCode code) {
  // Two probe runs: the first warms the cache, the second measures the
  // poll count of the warm (hence deterministic) execution the sweep
  // replays.
  uint64_t total_polls = 0;
  for (int i = 0; i < 2; ++i) {
    QueryContext probe;
    DynamicRetrieval engine(&f->db, spec);
    ASSERT_TRUE(engine.Open({}, &probe).ok());
    ASSERT_TRUE(Drain(&engine, nullptr).ok());
    total_polls = probe.polls();
  }
  ASSERT_GT(total_polls, 3u) << "query too small to exercise boundaries";

  for (uint64_t n = 1; n <= total_polls; ++n) {
    QueryContext ctx;
    ctx.TripAfterPolls(n, code);
    DynamicRetrieval engine(&f->db, spec);
    Status st = engine.Open({}, &ctx);
    if (st.ok()) st = Drain(&engine, nullptr);
    ASSERT_FALSE(st.ok()) << "poll " << n << " of " << total_polls
                          << " never fired";
    ASSERT_EQ(st.code(), code) << "poll " << n << ": " << st;
    ASSERT_EQ(f->db.pool()->PinnedPages(), 0u) << "poll " << n;
    Status inv = f->db.pool()->CheckInvariants();
    ASSERT_TRUE(inv.ok()) << "poll " << n << ": " << inv;
  }

  // One past the last boundary: the hook never fires, the query completes.
  QueryContext ctx;
  ctx.TripAfterPolls(total_polls + 1, code);
  DynamicRetrieval engine(&f->db, spec);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  EXPECT_TRUE(Drain(&engine, nullptr).ok());
  EXPECT_EQ(f->db.pool()->PinnedPages(), 0u);
}

TEST(EngineGovernanceTest, CancellationSweepBackgroundOnly) {
  FaultyFamilies f;
  SweepTripBoundaries(&f, f.RangeSpec(), StatusCode::kCancelled);
}

TEST(EngineGovernanceTest, CancellationSweepFastFirst) {
  FaultyFamilies f;
  SweepTripBoundaries(&f, f.RangeSpec(OptimizationGoal::kFastFirst),
                      StatusCode::kCancelled);
}

TEST(EngineGovernanceTest, DeadlineSweepBackgroundOnly) {
  FaultyFamilies f;
  SweepTripBoundaries(&f, f.RangeSpec(), StatusCode::kDeadlineExceeded);
}

TEST(EngineGovernanceTest, DeadlineSweepFastFirst) {
  FaultyFamilies f;
  SweepTripBoundaries(&f, f.RangeSpec(OptimizationGoal::kFastFirst),
                      StatusCode::kDeadlineExceeded);
}

TEST(EngineGovernanceTest, PageBudgetTripsMidQuery) {
  FaultyFamilies f;
  QueryGovernanceOptions o;
  o.budgets.max_pages_read = 2;  // a B-tree descent alone exceeds this
  QueryContext ctx(o);
  DynamicRetrieval engine(&f.db, f.RangeSpec());
  Status st = engine.Open({}, &ctx);
  if (st.ok()) st = Drain(&engine, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBudgetExceeded()) << st;
  EXPECT_GT(ctx.pages_read(), 2u);
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// An engine keeps its Jscan's RID lists past the execution whose context
// their spill is charged to, until its next Open or its end. Here each
// context dies once its execution is drained, as the session driver's do,
// and the last dies before the engine: neither the next Open nor the
// engine's end may refund spill into a dead context (ASan reports it).
TEST(EngineGovernanceTest, SpilledListsOutliveTheirExecutionsContext) {
  Families f(8000);
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(
      Predicate::Compare(2, CompareOp::kLt,
                         Operand::Literal(Value(int64_t{4000}))),
      {0});
  RetrievalOptions opt;
  opt.jscan.rid_list.memory_capacity = 64;  // the 176-RID list spills
  const std::multiset<uint64_t> want = NaiveRids(spec);
  auto engine = std::make_unique<DynamicRetrieval>(&f.db, spec, opt);
  for (int run = 0; run < 3; ++run) {
    auto ctx = std::make_unique<QueryContext>();
    ASSERT_TRUE(engine->Open({}, ctx.get()).ok());
    EXPECT_EQ(DrainRids(engine.get()), want) << "run " << run;
    EXPECT_GT(ctx->spill_bytes(), 0u) << "run " << run;  // still live
  }
  engine.reset();
}

// ---------------------------------------------------------------------------
// Degraded fallback: an index I/O fault disqualifies the strategy and the
// execution continues on Tscan with the identical result set.

TEST(DegradedFallbackTest, PermanentIndexFaultFallsBackToTscan) {
  FaultyFamilies f;
  RetrievalSpec spec = f.RangeSpec();

  DynamicRetrieval baseline_engine(&f.db, spec);
  ASSERT_TRUE(baseline_engine.Open({}).ok());
  std::multiset<uint64_t> baseline;
  ASSERT_TRUE(Drain(&baseline_engine, &baseline).ok());
  ASSERT_FALSE(baseline.empty());

  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));

  QueryContext ctx;  // degraded fallback on by default
  DynamicRetrieval engine(&f.db, spec);
  Status st = engine.Open({}, &ctx);
  ASSERT_TRUE(st.ok()) << st;
  std::multiset<uint64_t> got;
  ASSERT_TRUE(Drain(&engine, &got).ok());
  f.faults->ClearProgram();

  EXPECT_EQ(got, baseline);  // exact rows, degraded tactic
  EXPECT_TRUE(engine.degraded());
  EXPECT_GE(engine.events().CountKind(TraceEventKind::kStrategyDisqualified),
            1u);
  EXPECT_GE(f.db.metrics()->Value("governance.strategy_fallbacks"), 1u);
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

TEST(DegradedFallbackTest, MidFlightFaultKeepsRowsExact) {
  FaultyFamilies f;
  RetrievalSpec spec = f.CoveringAgeSpec();

  DynamicRetrieval baseline_engine(&f.db, spec);
  ASSERT_TRUE(baseline_engine.Open({}).ok());
  std::multiset<uint64_t> baseline;
  ASSERT_TRUE(Drain(&baseline_engine, &baseline).ok());
  ASSERT_GT(baseline.size(), 100u);

  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  // Let the replay start clean and lose the index a few reads in.
  FaultProgram p = FaultProgram::Permanent(PageClass::kIndex, 1.0);
  p.activate_after_reads = f.faults->total_reads() + 4;
  f.faults->SetProgram(p);

  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec);
  Status st = engine.Open({}, &ctx);
  if (st.ok()) st = Drain(&engine, nullptr);
  ASSERT_TRUE(st.ok()) << st;
  f.faults->ClearProgram();

  // Replay once more for the row set (the dedup path), faulting again.
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  p.activate_after_reads = f.faults->total_reads() + 4;
  f.faults->SetProgram(p);
  QueryContext ctx2;
  DynamicRetrieval engine2(&f.db, spec);
  ASSERT_TRUE(engine2.Open({}, &ctx2).ok());
  std::multiset<uint64_t> got;
  ASSERT_TRUE(Drain(&engine2, &got).ok());
  f.faults->ClearProgram();

  EXPECT_EQ(got, baseline);  // no lost rows, no duplicates
  EXPECT_TRUE(engine2.degraded());
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// An ordered retrieval that loses its ordered index mid-flight must not
// stream the Tscan remainder as-is: the plan operator has to notice
// delivers_order() flipping and sort what is left. The emitted prefix came
// out of the ordered scan in key order, so the whole sequence stays sorted.
TEST(DegradedFallbackTest, MidFlightFaultKeepsRowsOrdered) {
  FaultyFamilies f;
  RetrievalSpec spec = f.RangeSpec();
  spec.order_by_column = 1;  // age; projected at position 1
  auto plan = PlanNode::Retrieve(spec);
  // Row-at-a-time quantum: the read-count probe below calibrates the fault
  // to land mid-flight, which requires per-row paced store reads.
  plan->retrieval_options.batch_size = 1;
  ParamMap params;

  auto drain_ages = [](RowOperator* op, std::vector<int64_t>* ages,
                       std::multiset<int64_t>* ids) -> Status {
    std::vector<std::vector<Value>> rows;
    for (;;) {
      rows.clear();
      auto more = op->NextBatch(&rows, 1);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      for (const auto& row : rows) {
        ages->push_back(row[1].AsInt64());
        if (ids != nullptr) ids->insert(row[0].AsInt64());
      }
    }
  };

  auto golden_op = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(golden_op.ok()) << golden_op.status();
  ASSERT_TRUE((*golden_op)->Open().ok());
  std::vector<int64_t> golden_ages;
  std::multiset<int64_t> golden_ids;
  ASSERT_TRUE(drain_ages(golden_op->get(), &golden_ages, &golden_ids).ok());
  ASSERT_GT(golden_ages.size(), 100u);
  ASSERT_TRUE(std::is_sorted(golden_ages.begin(), golden_ages.end()));

  // Probe how many store reads a cold ordered run spends in Open plus the
  // first few rows, so the fault activates strictly mid-flight.
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  uint64_t probe_start = f.faults->total_reads();
  {
    auto probe = CompilePlan(&f.db, *plan, &params);
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE((*probe)->Open().ok());
    std::vector<std::vector<Value>> rows;
    while (rows.size() < 3) {
      auto more = (*probe)->NextBatch(&rows, 1);
      ASSERT_TRUE(more.ok());
      ASSERT_TRUE(*more);
    }
  }
  uint64_t reads_through_first_rows = f.faults->total_reads() - probe_start;

  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  FaultProgram p = FaultProgram::Permanent(PageClass::kIndex, 1.0);
  p.activate_after_reads = f.faults->total_reads() + reads_through_first_rows;
  f.faults->SetProgram(p);

  QueryContext ctx;
  auto op = CompilePlan(&f.db, *plan, &params, &ctx);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<int64_t> ages;
  std::multiset<int64_t> ids;
  Status st = drain_ages(op->get(), &ages, &ids);
  f.faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;

  auto* retrieve = static_cast<DynamicRetrievalOperator*>(op->get());
  EXPECT_TRUE(retrieve->engine()->degraded());
  EXPECT_TRUE(std::is_sorted(ages.begin(), ages.end()))
      << "degraded ordered retrieval streamed misordered rows";
  EXPECT_EQ(ids, golden_ids);  // no lost rows, no duplicates
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// The fallback dedup set is real memory: it must be charged against the
// RID-list budget instead of bypassing the governance ceiling.
TEST(DegradedFallbackTest, DeliveredSetIsChargedToRidBudget) {
  FaultyFamilies f;
  RetrievalSpec spec = f.CoveringAgeSpec();  // large covering result

  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_TRUE(Drain(&engine, nullptr).ok());
  // A fault-free governed query still records delivered RIDs while a
  // fallback is possible, and every one of them is charged.
  EXPECT_GT(ctx.rid_list_bytes(), 0u);

  QueryGovernanceOptions o;
  o.budgets.max_rid_list_bytes = 16 * sizeof(Rid);
  QueryContext tight(o);
  DynamicRetrieval engine2(&f.db, spec);
  Status st = engine2.Open({}, &tight);
  if (st.ok()) st = Drain(&engine2, nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBudgetExceeded()) << st;
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// A plain Tscan never falls back, so governed Tscans must not grow (or
// charge for) the dedup set at all.
TEST(DegradedFallbackTest, TscanDoesNotRecordDeliveredRids) {
  FaultyFamilies f;
  RetrievalSpec spec;
  spec.table = f.table;
  // Restricts only income (no index on income in FaultyFamilies): Tscan.
  spec.restriction = Predicate::Compare(
      2, CompareOp::kLt, Operand::Literal(Value(int64_t{120000})));
  spec.projection = {0};

  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kStaticTscan);
  std::multiset<uint64_t> rids;
  ASSERT_TRUE(Drain(&engine, &rids).ok());
  ASSERT_GT(rids.size(), 100u);
  EXPECT_EQ(ctx.rid_list_bytes(), 0u);
}

TEST(DegradedFallbackTest, HeapFaultStaysATypedError) {
  FaultyFamilies f;
  RetrievalSpec spec = f.RangeSpec();
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kHeap, 1.0));

  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec);
  Status st = engine.Open({}, &ctx);
  if (st.ok()) st = Drain(&engine, nullptr);
  f.faults->ClearProgram();

  // No alternative strategy avoids the heap: the query fails, typed.
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

TEST(DegradedFallbackTest, DisabledFallbackPropagatesTheFault) {
  FaultyFamilies f;
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));

  QueryGovernanceOptions o;
  o.degraded_fallback = false;
  QueryContext ctx(o);
  DynamicRetrieval engine(&f.db, f.RangeSpec());
  Status st = engine.Open({}, &ctx);
  if (st.ok()) st = Drain(&engine, nullptr);
  f.faults->ClearProgram();

  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsIoFault(st)) << st;
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// Opens `spec` under a governed context, delivers the first rows cleanly,
// then loses every index page: the next index read fails permanently. The
// rows must still equal the oracle's, and the verdict names `subject`.
void LoseIndexesAfterFirstRows(FaultyFamilies* f, const RetrievalSpec& spec,
                               const RetrievalOptions& opt, Tactic tactic,
                               std::string_view subject) {
  std::multiset<uint64_t> want = NaiveRids(spec);
  QueryContext ctx;  // degraded fallback on by default
  DynamicRetrieval engine(&f->db, spec, opt);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), tactic);
  std::multiset<uint64_t> got;
  RowBatch batch;
  auto first = engine.NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(*first);
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    got.insert(batch.rid(r).ToU64());
  }
  ASSERT_TRUE(f->db.pool()->EvictAll().ok());
  f->faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  Status st = Drain(&engine, &got);
  f->faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;

  EXPECT_EQ(got, want);  // no lost rows, no duplicates
  EXPECT_TRUE(engine.degraded());
  const TraceEvent* v = FindVerdict(engine, Verdict::kIoFaultFallback);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, subject);
  // The fault came mid-race: no verdict settled the race before it.
  for (const TraceEvent& e : engine.events().events()) {
    if (e.kind != TraceEventKind::kCompetitionVerdict) continue;
    EXPECT_EQ(e.subject, VerdictName(Verdict::kIoFaultFallback))
        << engine.events().ToJson();
    break;
  }
  EXPECT_EQ(f->db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f->db.pool()->CheckInvariants().ok());
}

// A zero pacing ratio starves the Jscan after its first quantum, so the
// first index read after the first rows is the race foreground's.
RetrievalOptions ForegroundRunsTheRace() {
  RetrievalOptions opt;
  opt.fgr_bgr_cost_ratio = 0.0;
  opt.batch_size = 4;
  return opt;
}

PredicateRef AgeAndIdRange() {
  return Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{45}))),
       Predicate::Between(0, Operand::Literal(Value(int64_t{100})),
                          Operand::Literal(Value(int64_t{150})))});
}

TEST(DegradedFallbackTest, SortedForegroundFaultMidRace) {
  FaultyFamilies f;
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = AgeAndIdRange();
  spec.projection = {0, 1, 2};
  spec.order_by_column = 1;  // by_age is the Fscan; by_id the Jscan
  LoseIndexesAfterFirstRows(&f, spec, ForegroundRunsTheRace(),
                            Tactic::kSorted, "Fscan(by_age)");
}

TEST(DegradedFallbackTest, IndexOnlyForegroundFaultMidRace) {
  FaultyFamilies f(2000, 64, {{"by_age_id", {"age", "id"}}});
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = AgeAndIdRange();
  spec.projection = {1};  // by_age_id covers it all; by_id is the Jscan
  LoseIndexesAfterFirstRows(&f, spec, ForegroundRunsTheRace(),
                            Tactic::kIndexOnly, "Sscan(by_age_id)");
}

// The fallback lets the faulted strategies go, but their spans keep what
// they spent: the race foreground's span reports the cost the verdict
// sampled, and the race span adds it to the Jscan's.
TEST(DegradedFallbackTest, FallbackKeepsTheDroppedForegroundCost) {
  FaultyFamilies f(2000, 64, {{"by_age_id", {"age", "id"}}});
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = AgeAndIdRange();
  spec.projection = {1};
  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec, ForegroundRunsTheRace());
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  RowBatch batch;
  auto first = engine.NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  Status st = Drain(&engine, nullptr);
  f.faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;
  const CompetitionSample* sample = engine.competition_sample();
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->verdict, Verdict::kIoFaultFallback);
  const ProfileSpan* race = FindSpan(engine.profile().root(), "race");
  const ProfileSpan* sscan = FindSpan(race, "sscan");
  const ProfileSpan* jscan = FindSpan(race, "jscan");
  ASSERT_NE(sscan, nullptr);
  ASSERT_NE(jscan, nullptr);
  EXPECT_GT(sscan->actual_cost, 0);
  EXPECT_DOUBLE_EQ(sscan->actual_cost, sample->foreground_cost);
  EXPECT_DOUBLE_EQ(jscan->actual_cost, sample->background_cost);
  EXPECT_DOUBLE_EQ(race->actual_cost, sscan->actual_cost + jscan->actual_cost);
}

// A lone Sscan that faults hands over to the Tscan; its span keeps its cost.
TEST(DegradedFallbackTest, FallbackKeepsTheDroppedSscanCost) {
  FaultyFamilies f;
  RetrievalSpec spec = f.CoveringAgeSpec();
  RetrievalOptions opt;
  opt.batch_size = 16;
  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec, opt);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kStaticSscan);
  RowBatch batch;
  auto first = engine.NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  Status st = Drain(&engine, nullptr);
  f.faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_TRUE(engine.degraded());
  const ProfileSpan* sscan = FindSpan(engine.profile().root(), "sscan");
  ASSERT_NE(sscan, nullptr);
  EXPECT_GT(sscan->actual_cost, 0);
}

// An index that faults inside the Jscan disqualifies that one scan; the
// Jscan carries on with the survivors and, with none left, recommends the
// Tscan that finishes the retrieval.
TEST(DegradedFallbackTest, JscanDisqualifiesAFaultedScan) {
  FaultyFamilies f;
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = AgeAndIdRange();
  spec.projection = {0, 1, 2};
  std::multiset<uint64_t> want = NaiveRids(spec);

  QueryContext ctx;
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
  ASSERT_TRUE(f.db.pool()->EvictAll().ok());
  f.faults->SetProgram(FaultProgram::Permanent(PageClass::kIndex, 1.0));
  std::multiset<uint64_t> got;
  Status st = Drain(&engine, &got);
  f.faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;

  EXPECT_EQ(got, want);
  EXPECT_TRUE(engine.degraded());
  std::vector<std::string> disqualified;
  for (const TraceEvent& e : engine.events().events()) {
    if (e.kind == TraceEventKind::kStrategyDisqualified) {
      disqualified.push_back(e.subject);
    }
  }
  ASSERT_FALSE(disqualified.empty()) << engine.events().ToJson();
  EXPECT_EQ(disqualified[0].rfind("Jscan(", 0), 0u) << disqualified[0];
  EXPECT_TRUE(SawVerdict(engine, Verdict::kJscanRecommendsTscan))
      << engine.events().ToJson();
  EXPECT_FALSE(SawVerdict(engine, Verdict::kIoFaultFallback));
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Plan-layer governance: CompilePlan threads the context into every
// operator; materializing drains poll it.

TEST(PlanGovernanceTest, SortDrainHonorsBudget) {
  FaultyFamilies f;
  auto plan = PlanNode::Sort(PlanNode::Retrieve(f.RangeSpec()), 1);
  ParamMap params;

  QueryGovernanceOptions o;
  o.budgets.max_pages_read = 2;
  QueryContext ctx(o);
  auto op = CompilePlan(&f.db, *plan, &params, &ctx);
  ASSERT_TRUE(op.ok()) << op.status();
  Status st = (*op)->Open();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBudgetExceeded()) << st;
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);

  // Ungoverned compile of the same plan still works.
  auto clean = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE((*clean)->Open().ok());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    auto more = (*clean)->NextBatch(&rows);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
  }
  EXPECT_GT(rows.size(), 0u);
}

TEST(PlanGovernanceTest, AggregateDrainPollsContext) {
  FaultyFamilies f;
  auto plan =
      PlanNode::Aggregate(PlanNode::Retrieve(f.RangeSpec()),
                          AggregateKind::kCount);
  ParamMap params;
  QueryContext ctx;
  ctx.TripAfterPolls(1, StatusCode::kCancelled);
  auto op = CompilePlan(&f.db, *plan, &params, &ctx);
  ASSERT_TRUE(op.ok());
  Status st = (*op)->Open();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st;
  EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
}

// ---------------------------------------------------------------------------
// Workload driver: governed mode.

TEST(DriverGovernanceTest, ImmediateDeadlineTripsEveryRangeQuery) {
  Database db;
  auto built = BuildFamilies(&db, 800, 42);
  ASSERT_TRUE(built.ok());
  Table* table = *built;
  ASSERT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());

  SessionWorkloadOptions o;
  o.sessions = 2;
  o.queries_per_session = 10;
  o.concurrent = false;
  o.point_fraction = 0.0;  // range queries always reach a poll
  o.governed = true;
  o.governance.deadline_micros = 1;
  auto report = RunSessionWorkload(&db, table, o);
  ASSERT_TRUE(report.ok()) << report.status();
  for (const SessionOutcome& s : report->sessions) {
    EXPECT_TRUE(s.error.empty()) << s.error;  // trips are never fatal
  }
  EXPECT_EQ(report->governance_trips, 20u);
  EXPECT_EQ(report->total_queries, 0u);
  EXPECT_EQ(db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(db.pool()->CheckInvariants().ok());
}

TEST(DriverGovernanceTest, UnlimitedGovernanceMatchesUngovernedHashes) {
  Database db;
  auto built = BuildFamilies(&db, 800, 42);
  ASSERT_TRUE(built.ok());
  Table* table = *built;
  ASSERT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());

  SessionWorkloadOptions o;
  o.sessions = 2;
  o.queries_per_session = 15;
  o.concurrent = false;
  auto plain = RunSessionWorkload(&db, table, o);
  ASSERT_TRUE(plain.ok());

  o.governed = true;  // no deadline, no budgets: governance is a no-op
  auto governed = RunSessionWorkload(&db, table, o);
  ASSERT_TRUE(governed.ok());

  ASSERT_EQ(plain->sessions.size(), governed->sessions.size());
  for (size_t i = 0; i < plain->sessions.size(); ++i) {
    EXPECT_TRUE(governed->sessions[i].error.empty());
    EXPECT_EQ(governed->sessions[i].failed_queries, 0u);
    EXPECT_EQ(plain->sessions[i].result_hash,
              governed->sessions[i].result_hash)
        << "session " << i;
  }
  EXPECT_EQ(governed->governance_trips, 0u);
  EXPECT_GT(governed->p50_latency_micros, 0.0);
  EXPECT_GE(governed->p99_latency_micros, governed->p50_latency_micros);
}

}  // namespace
}  // namespace dynopt
