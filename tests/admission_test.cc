// Admission controller and brownout ladder tests: slot/queue/shed units,
// revocable leases, ladder dynamics with hysteresis, the engine's brownout
// strategy pinning, and a concurrent chaos run through the workload driver.
// Suite names contain "Admission" / "Overload" so the TSan/CI filters pick
// the whole file up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "families.h"
#include "governance/admission.h"
#include "governance/query_context.h"
#include "learning/selectivity_model.h"
#include "obs/metrics.h"
#include "storage/fault_store.h"
#include "storage/page_store.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

AdmissionOptions SmallOptions() {
  AdmissionOptions o;
  o.concurrency_slots = 2;
  o.queue_capacity = 2;
  o.memory_pool_bytes = 8ull << 20;
  o.lease_bytes = 4ull << 20;
  o.base.deadline_micros = 0;  // tests opt into deadlines explicitly
  return o;
}

// ---------------------------------------------------------------------------
// Admission units: slots, queue, shed, leases.

TEST(AdmissionTest, AdmitsUpToSlotsAndCarvesLeases) {
  MetricsRegistry registry;
  AdmissionController ac(SmallOptions(), &registry);

  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok()) << t1.status();
  auto t2 = ac.Admit();
  ASSERT_TRUE(t2.ok()) << t2.status();

  ResourceArbiter a = ac.arbiter();
  EXPECT_EQ(a.slots_in_use, 2u);
  EXPECT_EQ(a.pool_available, 0u);  // 2 x 4MB carved from 8MB
  EXPECT_EQ(t1->lease_bytes(), 4ull << 20);
  ASSERT_NE(t1->context(), nullptr);
  // The lease splits between the RID-list and spill budgets.
  QueryBudgets b = t1->context()->budgets();
  EXPECT_EQ(b.max_rid_list_bytes, 2ull << 20);
  EXPECT_EQ(b.max_spill_bytes, 2ull << 20);

  ac.Finish(std::move(*t1), 100.0);
  ac.Finish(std::move(*t2), 100.0);
  a = ac.arbiter();
  EXPECT_EQ(a.slots_in_use, 0u);
  EXPECT_EQ(a.pool_available, 8ull << 20);  // leases returned in full
  EXPECT_EQ(registry.Value("admission.admitted"), 2u);
  EXPECT_EQ(registry.Value("admission.shed"), 0u);
}

TEST(AdmissionTest, FullQueueShedsTyped) {
  AdmissionOptions o = SmallOptions();
  o.concurrency_slots = 1;
  o.queue_capacity = 0;  // no queue at all: busy slot => immediate shed
  MetricsRegistry registry;
  AdmissionController ac(o, &registry);

  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  auto t2 = ac.Admit();
  ASSERT_FALSE(t2.ok());
  EXPECT_TRUE(t2.status().IsOverloaded()) << t2.status();
  EXPECT_NE(t2.status().message().find("queue-full"), std::string::npos)
      << t2.status();
  EXPECT_EQ(registry.Value("admission.shed"), 1u);
  EXPECT_EQ(registry.Value("admission.requests"), 2u);
  EXPECT_EQ(ac.trace().EmittedCount(TraceEventKind::kQueryShed), 1u);
  ac.Finish(std::move(*t1), 50.0);
}

TEST(AdmissionTest, QueueWaitGrantsWhenSlotFrees) {
  AdmissionOptions o = SmallOptions();
  o.concurrency_slots = 1;
  MetricsRegistry registry;
  AdmissionController ac(o, &registry);

  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  std::atomic<bool> waiting{false};
  Result<AdmissionController::Ticket> t2 = Status::Internal("unset");
  std::thread waiter([&] {
    waiting.store(true, std::memory_order_release);
    t2 = ac.Admit();  // no deadline: waits until the slot frees
  });
  while (!waiting.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ac.queue_depth(), 1u);
  ac.Finish(std::move(*t1), 50.0);
  waiter.join();
  ASSERT_TRUE(t2.ok()) << t2.status();
  EXPECT_GT(t2->queue_wait_micros(), 0u);
  EXPECT_EQ(ac.queue_depth(), 0u);
  EXPECT_EQ(registry.Value("admission.queued"), 1u);
  EXPECT_GT(registry.Value("admission.queue_wait_micros"), 0u);
  EXPECT_EQ(ac.trace().EmittedCount(TraceEventKind::kAdmissionQueued), 1u);
  ac.Finish(std::move(*t2), 50.0);
}

TEST(AdmissionTest, QueueWaitConsumingDeadlineShedsWithoutExecuting) {
  AdmissionOptions o = SmallOptions();
  o.concurrency_slots = 1;
  o.base.deadline_micros = 10000;  // 10ms from arrival
  MetricsRegistry registry;
  AdmissionController ac(o, &registry);

  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  auto t0 = std::chrono::steady_clock::now();
  auto t2 = ac.Admit();  // the slot never frees: must shed at the deadline
  auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(t2.ok());
  EXPECT_TRUE(t2.status().IsOverloaded()) << t2.status();
  EXPECT_NE(t2.status().message().find("deadline-consumed"),
            std::string::npos)
      << t2.status();
  EXPECT_GE(waited, std::chrono::microseconds(9000));
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  EXPECT_EQ(ac.queue_depth(), 0u);  // the waiter left the queue
  ac.Finish(std::move(*t1), 50.0);
}

TEST(AdmissionTest, BehindScheduleArrivalShedsImmediately) {
  AdmissionOptions o = SmallOptions();
  o.base.deadline_micros = 1000;
  AdmissionController ac(o);
  // Open-loop drivers date queries from their scheduled arrival; one whose
  // allowance is already gone must shed instantly, not execute.
  auto t = ac.AdmitAt(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(5));
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsOverloaded());
  EXPECT_EQ(ac.arbiter().slots_in_use, 0u);
}

TEST(AdmissionTest, AdmittedContextGetsOnlyRemainingDeadline) {
  AdmissionOptions o = SmallOptions();
  o.base.deadline_micros = 50000;
  AdmissionController ac(o);
  // Arrived 40ms ago: the context's allowance must be ~10ms, not ~50ms.
  auto t = ac.AdmitAt(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(40));
  ASSERT_TRUE(t.ok()) << t.status();
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(15);
  while (std::chrono::steady_clock::now() < until) {
  }
  EXPECT_TRUE(t->context()->Check().IsDeadlineExceeded());
  ac.Finish(std::move(*t), 55000.0);
}

TEST(AdmissionTest, AbandonedTicketReleasesSlotAndLease) {
  AdmissionController ac(SmallOptions());
  {
    auto t = ac.Admit();
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(ac.arbiter().slots_in_use, 1u);
  }  // destroyed without Finish
  ResourceArbiter a = ac.arbiter();
  EXPECT_EQ(a.slots_in_use, 0u);
  EXPECT_EQ(a.pool_available, a.pool_bytes);
}

TEST(AdmissionTest, DryPoolStillGrantsFloorLeaseNeverUnlimited) {
  AdmissionOptions o = SmallOptions();
  o.concurrency_slots = 4;
  o.memory_pool_bytes = 4ull << 20;
  o.lease_bytes = 4ull << 20;
  AdmissionController ac(o);
  auto t1 = ac.Admit();
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(ac.arbiter().pool_available, 0u);
  auto t2 = ac.Admit();  // pool is dry, but a slot is free
  ASSERT_TRUE(t2.ok());
  // Floor-sized lease: tight, but never 0 (= unlimited in budget terms).
  EXPECT_EQ(t2->lease_bytes(), 64ull << 10);
  QueryBudgets b = t2->context()->budgets();
  EXPECT_EQ(b.max_rid_list_bytes, 32ull << 10);
  ac.Finish(std::move(*t1), 10.0);
  ac.Finish(std::move(*t2), 10.0);
}

// ---------------------------------------------------------------------------
// Brownout ladder dynamics.

AdmissionOptions LadderOptions() {
  AdmissionOptions o = SmallOptions();
  o.concurrency_slots = 4;
  o.target_p99_micros = 100;
  o.ewma_alpha = 1.0;  // no smoothing: pressure == raw signal
  // The p99 is a sliding-window statistic: the window must turn over
  // within one dwell, or a stale slow sample keeps the pressure pinned
  // after the load has changed. window == dwell makes each dwell's
  // decision read only that dwell's completions.
  o.latency_window = 4;
  o.min_dwell_updates = 4;
  o.step_down_pressure = 1.5;
  o.step_up_pressure = 0.7;
  o.page_budget = 1000;
  return o;
}

// Drives one completion through the controller at the given latency.
void Complete(AdmissionController* ac, double latency_micros) {
  auto t = ac->Admit();
  ASSERT_TRUE(t.ok()) << t.status();
  ac->Finish(std::move(*t), latency_micros);
}

// One dwell's worth of completions (the window turns over fully).
void CompleteDwell(AdmissionController* ac, double latency_micros) {
  for (int i = 0; i < 4; ++i) Complete(ac, latency_micros);
}

TEST(BrownoutTest, LadderStepsDownAndBackUpWithDwell) {
  MetricsRegistry registry;
  AdmissionController ac(LadderOptions(), &registry);

  // Sustained p99 of 10x target: one step down per dwell.
  CompleteDwell(&ac, 1000.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kShrinkBudgets);
  CompleteDwell(&ac, 1000.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kPinStrategy);
  CompleteDwell(&ac, 1000.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kDeferScrub);
  EXPECT_TRUE(ac.scrubber_deferred());
  CompleteDwell(&ac, 1000.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kShed);
  // Saturated: more pressure cannot step below the top.
  CompleteDwell(&ac, 1000.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kShed);

  // Pressure clears: the ladder walks back up, one step per dwell.
  int steps_up = 0;
  while (ac.level() != BrownoutLevel::kNormal && steps_up < 64) {
    Complete(&ac, 10.0);
    steps_up++;
  }
  EXPECT_EQ(ac.level(), BrownoutLevel::kNormal);
  EXPECT_FALSE(ac.scrubber_deferred());
  EXPECT_EQ(registry.Value("admission.brownout_steps_down"), 4u);
  EXPECT_EQ(registry.Value("admission.brownout_steps_up"), 4u);
  // Both directions are visible in the trace.
  EXPECT_TRUE(ac.trace().Contains(TraceEventKind::kBrownoutStep, "down"));
  EXPECT_TRUE(ac.trace().Contains(TraceEventKind::kBrownoutStep, "up"));
  EXPECT_EQ(registry.Value("admission.brownout_level"), 0u);
}

TEST(BrownoutTest, MidPressureHoldsLevelByHysteresis) {
  AdmissionController ac(LadderOptions());
  CompleteDwell(&ac, 1000.0);
  ASSERT_EQ(ac.level(), BrownoutLevel::kShrinkBudgets);
  // Pressure between the thresholds (1.0): neither down nor up.
  for (int i = 0; i < 12; ++i) Complete(&ac, 100.0);
  EXPECT_EQ(ac.level(), BrownoutLevel::kShrinkBudgets);
}

TEST(BrownoutTest, StepDownShrinksNewLeasesAndRevokesInFlight) {
  MetricsRegistry registry;
  AdmissionController ac(LadderOptions(), &registry);

  auto held = ac.Admit();  // in-flight across the step
  ASSERT_TRUE(held.ok());
  QueryBudgets before = held->context()->budgets();
  EXPECT_EQ(before.max_rid_list_bytes, 2ull << 20);
  EXPECT_EQ(before.max_pages_read, 1000u);

  CompleteDwell(&ac, 1000.0);
  ASSERT_EQ(ac.level(), BrownoutLevel::kShrinkBudgets);

  // The held query's lease was revoked down to the new level's ceilings.
  QueryBudgets after = held->context()->budgets();
  EXPECT_EQ(after.max_rid_list_bytes, 1ull << 20);  // half lease / 2
  EXPECT_EQ(after.max_pages_read, 500u);
  EXPECT_GE(registry.Value("admission.lease_revocations"), 1u);

  // New admissions get the shrunken lease up front.
  auto t = ac.Admit();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lease_bytes(), 2ull << 20);
  EXPECT_EQ(t->level(), BrownoutLevel::kShrinkBudgets);
  ac.Finish(std::move(*t), 10.0);
  ac.Finish(std::move(*held), 2000.0);
}

TEST(BrownoutTest, RevocationTripsAQueryAlreadyPastTheTighterCap) {
  AdmissionController ac(LadderOptions());
  auto held = ac.Admit();
  ASSERT_TRUE(held.ok());
  // Consume more than the post-revocation ceiling, legal under the
  // original lease.
  held->context()->ChargeRidListBytes(1536ull << 10);  // 1.5MB of 2MB cap
  EXPECT_TRUE(held->context()->Check().ok());

  CompleteDwell(&ac, 1000.0);
  ASSERT_EQ(ac.level(), BrownoutLevel::kShrinkBudgets);
  // The tightened cap is 1MB; the next poll trips typed.
  EXPECT_TRUE(held->context()->Check().IsBudgetExceeded());
  ac.Finish(std::move(*held), 2000.0);
}

TEST(BrownoutTest, PinStrategyFlagReachesAdmittedContexts) {
  AdmissionController ac(LadderOptions());
  {
    auto t = ac.Admit();
    ASSERT_TRUE(t.ok());
    EXPECT_FALSE(t->context()->brownout_pin_strategy());
    ac.Finish(std::move(*t), 10.0);
  }
  for (int i = 0; i < 8; ++i) Complete(&ac, 1000.0);
  ASSERT_EQ(ac.level(), BrownoutLevel::kPinStrategy);
  auto t = ac.Admit();
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->context()->brownout_pin_strategy());
  ac.Finish(std::move(*t), 10.0);
}

TEST(BrownoutTest, ShedLevelRefusesArrivalsWithoutFreeSlot) {
  AdmissionOptions o = LadderOptions();
  o.concurrency_slots = 1;
  AdmissionController ac(o);
  for (int i = 0; i < 16; ++i) Complete(&ac, 1000.0);
  ASSERT_EQ(ac.level(), BrownoutLevel::kShed);

  auto held = ac.Admit();  // free slot: still admitted even at kShed
  ASSERT_TRUE(held.ok());
  auto t = ac.Admit();  // busy slot at kShed: no queueing, fail now
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsOverloaded());
  EXPECT_NE(t.status().message().find("brownout-shed"), std::string::npos)
      << t.status();
  ac.Finish(std::move(*held), 1000.0);
}

TEST(BrownoutTest, RetryBudgetMatchesOptionsAndIsShared) {
  AdmissionOptions o = SmallOptions();
  o.retry_tokens = 3;
  AdmissionController ac(o);
  RetryBudget* rb = ac.retry_budget();
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->available(), 3);
  EXPECT_TRUE(rb->TryAcquire());
  EXPECT_EQ(rb->available(), 2);
  rb->Release();
  EXPECT_EQ(rb->available(), 3);
}

// ---------------------------------------------------------------------------
// Engine integration: brownout competition pinning.

QueryContext BrownoutContext() {
  QueryGovernanceOptions o;
  o.brownout_pin_strategy = true;
  return QueryContext(o);
}

TEST(OverloadPinTest, SortedPinsToPlainFscanWithSameOrderedRows) {
  Families f(2000, DatabaseOptions{});
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{60}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{100000})))});
  spec.projection = {0, 1, 2};
  spec.order_by_column = 1;  // by_age serves the order: Sorted tactic

  DynamicRetrieval engine(&f.db, spec, RetrievalOptions{});
  // Baseline: the Sorted tactic races its Fscan against a Jscan.
  std::vector<uint64_t> base_rids;
  ASSERT_TRUE(engine.Open({}, nullptr).ok());
  RowBatch batch;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      base_rids.push_back(batch.rid(r).ToU64());
    }
  }
  ASSERT_GT(base_rids.size(), 0u);
  EXPECT_FALSE(SawVerdict(engine, Verdict::kBrownoutPinned));

  // Brownout: pinned to the ordered foreground, skipping the race — and
  // the delivered rows are identical, in identical order.
  QueryContext ctx = BrownoutContext();
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  std::vector<uint64_t> pinned_rids;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      pinned_rids.push_back(batch.rid(r).ToU64());
    }
  }
  EXPECT_TRUE(SawVerdict(engine, Verdict::kBrownoutPinned));
  EXPECT_EQ(base_rids, pinned_rids);
}

TEST(OverloadPinTest, RacePinsToCheapestLearnedStrategy) {
  Families f(2000, DatabaseOptions{});
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  f.db.learning()->set_mode(LearningMode::kLearn);
  // by_age covers the projection but not the income conjunct, so no index
  // answers alone: the query runs background-only (a Jscan over by_age and
  // by_income), and the learned accounts pin it to the Tscan.
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{30})),
                          Operand::Literal(Value(int64_t{40}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{150000})))});
  spec.projection = {1};

  DynamicRetrieval engine(&f.db, spec, RetrievalOptions{});
  // Cold class: brownout cannot pin without a learned account — the race
  // must still run (and complete correctly).
  QueryContext cold = BrownoutContext();
  ASSERT_TRUE(engine.Open({}, &cold).ok());
  std::multiset<uint64_t> cold_rids = DrainRids(&engine);
  ASSERT_GT(cold_rids.size(), 0u);
  EXPECT_FALSE(SawVerdict(engine, Verdict::kBrownoutPinned));
  EXPECT_EQ(engine.tactic(), Tactic::kBackgroundOnly);

  // Warm the per-strategy cost account: repeated unpinned runs record the
  // winner's full-run cost under this class key.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Open({}, nullptr).ok());
    DrainRids(&engine);
  }

  // Browned out with a warm account: the competition is replaced by the
  // cheapest learned single strategy, same results.
  QueryContext ctx = BrownoutContext();
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  std::multiset<uint64_t> pinned_rids = DrainRids(&engine);
  EXPECT_TRUE(SawVerdict(engine, Verdict::kBrownoutPinned));
  EXPECT_EQ(engine.tactic(), Tactic::kStaticTscan);
  EXPECT_EQ(pinned_rids.size(), cold_rids.size());
  EXPECT_EQ(pinned_rids, cold_rids);
}

// The Index-Only race's pin: by_age_income covers the restriction and the
// projection, so its Sscan races a Jscan over by_income. Each unpinned run
// ends with the Jscan recommending a Tscan and the Sscan delivering, which
// records the Sscan's full-run cost; browned out, the query then runs that
// Sscan alone.
TEST(OverloadPinTest, IndexOnlyPinsToTheLearnedSscan) {
  Families f(2000, DatabaseOptions{});
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  f.db.learning()->set_mode(LearningMode::kLearn);
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{30})),
                          Operand::Literal(Value(int64_t{40}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{150000})))});
  spec.projection = {1, 2};
  const std::multiset<std::string> want = RowSet(NaiveRows(spec));
  ASSERT_GT(want.size(), 0u);

  DynamicRetrieval engine(&f.db, spec, RetrievalOptions{});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Open({}, nullptr).ok());
    EXPECT_EQ(RowSet(DrainRows(&engine)), want) << "run " << i;
    EXPECT_EQ(engine.tactic(), Tactic::kIndexOnly);
    EXPECT_TRUE(SawVerdict(engine, Verdict::kJscanRecommendsTscan));
  }
  auto learned = f.db.learning()->LookupStrategyCost(engine.query_class(),
                                                     "Sscan(by_age_income)");
  ASSERT_TRUE(learned.has_value());
  EXPECT_EQ(learned->samples, 6u);

  QueryContext ctx = BrownoutContext();
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  EXPECT_EQ(RowSet(DrainRows(&engine)), want);
  EXPECT_EQ(engine.tactic(), Tactic::kStaticSscan);
  const TraceEvent* pin = FindVerdict(engine, Verdict::kBrownoutPinned);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->a, learned->mean_cost);
  EXPECT_EQ(pin->b, 6.0);
}

// ---------------------------------------------------------------------------
// Concurrent chaos: open-loop sessions through the governor against a slow
// device, scrubber riding along, cancel storms on the side. Every query
// must end in exactly one accounted bucket and the controller must return
// to idle. (Runs under TSan in CI.)

TEST(AdmissionChaosTest, ShedUnderChaosIsAlwaysTypedAndAccounted) {
  auto inner = std::make_unique<MemPageStore>();
  auto faulty = std::make_unique<FaultInjectingPageStore>(std::move(inner));
  FaultInjectingPageStore* faults = faulty.get();
  DatabaseOptions dbo;
  dbo.pool_pages = 256;  // small pool: reads actually hit the slow device
  Database db(dbo, std::move(faulty));
  auto built = BuildFamilies(&db, 4000, 42);
  ASSERT_TRUE(built.ok());
  Table* table = *built;
  ASSERT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
  faults->ClassifyHeapPages(table->heap()->pages());
  faults->FreezeClassification();
  FaultProgram slow =
      FaultProgram::SlowRead(PageClass::kIndex, 0.5, /*slow_micros=*/100);
  slow.any_class = true;
  faults->SetProgram(slow);

  AdmissionOptions ao;
  ao.concurrency_slots = 2;
  ao.queue_capacity = 2;
  ao.target_p99_micros = 300;
  ao.min_dwell_updates = 4;
  ao.base.deadline_micros = 4000;
  AdmissionController governor(ao, db.metrics());
  db.pool()->set_retry_budget(governor.retry_budget());

  SessionWorkloadOptions o;
  o.sessions = 4;
  o.queries_per_session = 60;
  o.concurrent = true;
  o.open_loop = true;
  o.arrival_interval_micros = 300;  // well past 2 slots' capacity
  o.governor = &governor;
  o.goodput_deadline_micros = ao.base.deadline_micros;
  o.record_query_hashes = true;
  o.scrub = true;
  auto report = RunSessionWorkload(&db, table, o);
  faults->ClearProgram();
  db.pool()->set_retry_budget(nullptr);
  ASSERT_TRUE(report.ok()) << report.status();

  for (const SessionOutcome& s : report->sessions) {
    // A shed that was not typed Overloaded, or any stray error, would land
    // in `error` and fail here.
    EXPECT_TRUE(s.error.empty()) << s.error;
    // Exactly one bucket per issued query.
    EXPECT_EQ(s.queries + s.failed_queries + s.shed_queries,
              o.queries_per_session);
    EXPECT_EQ(s.query_hashes.size(), o.queries_per_session);
  }
  EXPECT_GT(report->shed_queries, 0u);  // 2 slots at 2x+ load must shed

  // The governor returned to idle: no slot or lease leaked.
  ResourceArbiter a = governor.arbiter();
  EXPECT_EQ(a.slots_in_use, 0u);
  EXPECT_EQ(a.pool_available, a.pool_bytes);
  EXPECT_EQ(governor.queue_depth(), 0u);
  EXPECT_EQ(db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(db.pool()->CheckInvariants().ok());
  // Accounting ties out against the controller's own counters.
  MetricsRegistry* m = db.metrics();
  EXPECT_EQ(m->Value("admission.requests"),
            m->Value("admission.admitted") + m->Value("admission.shed"));
}

TEST(AdmissionChaosTest, ConcurrentAdmitFinishCancelAndProbes) {
  AdmissionOptions o;
  o.concurrency_slots = 3;
  o.queue_capacity = 4;
  o.base.deadline_micros = 5000;
  o.target_p99_micros = 100;
  o.min_dwell_updates = 2;
  MetricsRegistry registry;
  AdmissionController ac(o, &registry);

  std::atomic<bool> stop{false};
  // Probe thread: hammers every read accessor while workers churn.
  std::thread probe([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)ac.level();
      (void)ac.pressure();
      (void)ac.queue_depth();
      (void)ac.arbiter();
      (void)ac.scrubber_deferred();
    }
  });
  constexpr int kWorkers = 6;
  constexpr int kRounds = 50;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> admitted{0}, shed{0};
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        auto t = ac.Admit();
        if (!t.ok()) {
          EXPECT_TRUE(t.status().IsOverloaded()) << t.status();
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
        // Mixed outcomes: some queries get cancelled mid-flight, some
        // charge toward (possibly revoked) budgets, some just finish.
        if (r % 3 == w % 3) t->context()->Cancel();
        t->context()->ChargePagesRead(1);
        (void)t->context()->Check();
        ac.Finish(std::move(*t), (w % 2 == 0) ? 1000.0 : 10.0);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  probe.join();

  EXPECT_EQ(admitted.load() + shed.load(),
            static_cast<uint64_t>(kWorkers * kRounds));
  ResourceArbiter a = ac.arbiter();
  EXPECT_EQ(a.slots_in_use, 0u);
  EXPECT_EQ(a.pool_available, a.pool_bytes);
  EXPECT_EQ(registry.Value("admission.admitted"), admitted.load());
  EXPECT_EQ(registry.Value("admission.shed"), shed.load());
}

// ---------------------------------------------------------------------------
// Golden results under load: every query the governed overloaded run
// completed must hash identically to the same query in an unloaded serial
// run of the same streams.

TEST(OverloadGoldenTest, AdmittedResultsMatchUnloadedRun) {
  Database db;
  auto built = BuildFamilies(&db, 1500, 42);
  ASSERT_TRUE(built.ok());
  Table* table = *built;
  ASSERT_TRUE(table->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());

  SessionWorkloadOptions base;
  base.sessions = 3;
  base.queries_per_session = 40;
  base.seed = 99;
  base.concurrent = false;
  base.record_query_hashes = true;
  auto unloaded = RunSessionWorkload(&db, table, base);
  ASSERT_TRUE(unloaded.ok()) << unloaded.status();
  ASSERT_EQ(unloaded->shed_queries, 0u);

  AdmissionOptions ao;
  ao.concurrency_slots = 2;
  ao.queue_capacity = 2;
  ao.base.deadline_micros = 20000;
  AdmissionController governor(ao, db.metrics());
  SessionWorkloadOptions loaded = base;
  loaded.concurrent = true;
  loaded.open_loop = true;
  loaded.arrival_interval_micros = 100;  // hot enough to queue and shed
  loaded.governor = &governor;
  auto governed = RunSessionWorkload(&db, table, loaded);
  ASSERT_TRUE(governed.ok()) << governed.status();

  for (size_t s = 0; s < base.sessions; ++s) {
    const auto& want = unloaded->sessions[s].query_hashes;
    const auto& got = governed->sessions[s].query_hashes;
    ASSERT_EQ(want.size(), got.size());
    for (size_t q = 0; q < want.size(); ++q) {
      if (got[q] == kShedQueryHash || got[q] == kFailedQueryHash) continue;
      EXPECT_EQ(got[q], want[q]) << "session " << s << " query " << q;
    }
  }
}

}  // namespace
}  // namespace dynopt
