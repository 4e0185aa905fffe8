// Fault matrix: every fault program kind × page class runs the full
// concurrent scenario (golden run, cold cache, governed faulted replay)
// and must end in one of exactly two ways per query — success with the
// golden result hash, or a clean typed error — with no pinned pages and
// intact pool invariants afterwards. See workload/scenario.h.

#include <gtest/gtest.h>

#include <memory>

#include "storage/fault_store.h"
#include "storage/page_store.h"
#include "workload/scenario.h"

namespace dynopt {
namespace {

FaultScenarioOptions SmallScenario() {
  FaultScenarioOptions o;
  o.rows = 1200;
  o.sessions = 3;
  o.queries_per_session = 20;
  o.pool_pages = 96;
  return o;
}

// Transient faults sit below the retry budget (fail_reads=2 < 3 retries):
// the pool absorbs every one and all sessions must be bit-identical.

TEST(FaultMatrixTest, TransientHeapFaultsAreAbsorbedByRetry) {
  auto res = RunFaultScenario(
      FaultProgram::Transient(PageClass::kHeap, 0.3), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions, 3u);
  EXPECT_EQ(res->sessions_with_failures, 0u);
  EXPECT_GT(res->io_retries, 0u);
  EXPECT_EQ(res->strategy_fallbacks, 0u);
}

TEST(FaultMatrixTest, TransientIndexFaultsAreAbsorbedByRetry) {
  auto res = RunFaultScenario(
      FaultProgram::Transient(PageClass::kIndex, 0.5), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions, 3u);
  EXPECT_GT(res->io_retries, 0u);
}

TEST(FaultMatrixTest, TransientFaultsOnEveryClassAreAbsorbed) {
  FaultProgram p = FaultProgram::Transient(PageClass::kIndex, 0.2);
  p.any_class = true;
  auto res = RunFaultScenario(p, SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->clean_sessions, 3u);
}

// Permanent/corrupt index faults disqualify the index strategies; every
// query must still succeed — hash-equal — on the Tscan fallback.

TEST(FaultMatrixTest, PermanentIndexFaultDegradesToTscan) {
  auto res = RunFaultScenario(
      FaultProgram::Permanent(PageClass::kIndex, 1.0), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions, 3u);
  EXPECT_EQ(res->sessions_with_failures, 0u);
  EXPECT_GE(res->strategy_fallbacks, 1u);
  EXPECT_GT(res->faulted.degraded_queries, 0u);
}

TEST(FaultMatrixTest, CorruptIndexPagesDegradeToTscan) {
  auto res = RunFaultScenario(
      FaultProgram::Corrupt(PageClass::kIndex, 1.0), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions, 3u);
  EXPECT_GE(res->strategy_fallbacks, 1u);
  // Corruption is never retried, so retries must not have exploded.
  EXPECT_EQ(res->io_retries, 0u);
}

// Permanent/corrupt heap faults have no fallback: affected queries fail
// with a typed error, sessions survive, and the untouched sessions stay
// hash-equal to golden (the harness enforces both).

TEST(FaultMatrixTest, PermanentHeapFaultsFailTypedOnly) {
  auto res = RunFaultScenario(
      FaultProgram::Permanent(PageClass::kHeap, 0.05), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions + res->sessions_with_failures, 3u);
  // Some queries must actually have hit the fault and failed typed.
  EXPECT_GT(res->faulted.io_failures, 0u);
}

TEST(FaultMatrixTest, CorruptHeapFaultsFailTypedOnly) {
  auto res = RunFaultScenario(
      FaultProgram::Corrupt(PageClass::kHeap, 0.05), SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions + res->sessions_with_failures, 3u);
  EXPECT_GT(res->faulted.io_failures, 0u);
}

// ---------------------------------------------------- write-side programs
// The write path mirrors the read path: transient EIO that a retry clears,
// permanent EIO, and torn writes that surface as Corruption on read until
// a clean full write heals the frame.

TEST(FaultMatrixTest, TransientWriteFaultsFailThenRecover) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  const PageId id = store.Allocate();
  store.FreezeClassification();  // everything allocated so far is kIndex

  PageData page{};
  page[0] = 1;
  ASSERT_TRUE(store.Write(id, page).ok());

  store.SetWriteProgram(
      WriteFaultProgram::Transient(PageClass::kIndex, 1.0, 2));
  page[0] = 2;
  Status first = store.Write(id, page);
  Status second = store.Write(id, page);
  Status third = store.Write(id, page);
  EXPECT_TRUE(first.IsIOError()) << first;
  EXPECT_TRUE(second.IsIOError()) << second;
  EXPECT_TRUE(third.ok()) << third;
  EXPECT_EQ(store.injected_write_faults(), 2u);

  // The failed writes never touched the inner store; the third did.
  PageData read{};
  ASSERT_TRUE(store.Read(id, &read).ok());
  EXPECT_EQ(read[0], 2);
}

TEST(FaultMatrixTest, PermanentWriteFaultsAlwaysFailAndPreserveOldData) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  const PageId id = store.Allocate();
  store.FreezeClassification();

  PageData page{};
  page[0] = 7;
  ASSERT_TRUE(store.Write(id, page).ok());

  store.SetWriteProgram(WriteFaultProgram::Permanent(PageClass::kIndex));
  page[0] = 8;
  for (int i = 0; i < 3; ++i) {
    Status s = store.Write(id, page);
    EXPECT_TRUE(s.IsIOError()) << s;
  }
  EXPECT_EQ(store.injected_write_faults(), 3u);

  PageData read{};
  ASSERT_TRUE(store.Read(id, &read).ok());
  EXPECT_EQ(read[0], 7);  // the old frame is intact
}

TEST(FaultMatrixTest, TornWritesReadAsCorruptionUntilHealed) {
  FaultInjectingPageStore store(std::make_unique<MemPageStore>());
  const PageId id = store.Allocate();
  store.FreezeClassification();

  PageData page{};
  page[0] = 1;
  page[kPageSize - 1] = 1;
  ASSERT_TRUE(store.Write(id, page).ok());

  store.SetWriteProgram(WriteFaultProgram::Torn(PageClass::kIndex));
  page[0] = 2;
  page[kPageSize - 1] = 2;
  // The torn write *reports* success — that's the danger.
  ASSERT_TRUE(store.Write(id, page).ok());
  EXPECT_TRUE(store.IsTorn(id));
  EXPECT_EQ(store.injected_write_faults(), 1u);

  PageData read{};
  Status r = store.Read(id, &read);
  EXPECT_TRUE(r.IsCorruption()) << r;

  // Clearing the program does not heal the frame; a full write does.
  store.ClearWriteProgram();
  Status still = store.Read(id, &read);
  EXPECT_TRUE(still.IsCorruption()) << still;
  ASSERT_TRUE(store.Write(id, page).ok());
  EXPECT_FALSE(store.IsTorn(id));
  ASSERT_TRUE(store.Read(id, &read).ok());
  EXPECT_EQ(read[0], 2);
  EXPECT_EQ(read[kPageSize - 1], 2);
}

// No faults at all: the governed concurrent replay is hash-identical.
TEST(FaultMatrixTest, NoFaultProgramIsFullyClean) {
  auto res = RunFaultScenario(FaultProgram{}, SmallScenario());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->injected_faults, 0u);
  EXPECT_EQ(res->clean_sessions, 3u);
  EXPECT_EQ(res->io_retries, 0u);
  EXPECT_EQ(res->strategy_fallbacks, 0u);
}

}  // namespace
}  // namespace dynopt
