// Integrity subsystem tests: CheckDatabase on clean databases, the
// seeded-mutation property matrix (every structural mutation must be
// detected with accurate page attribution), the corruption-repair matrix
// (WAL-covered checksum corruption heals online, hash-equal, zero leaked
// pins; post-checkpoint corruption quarantines with a typed error and
// degrades to Tscan), verify-on-open, and scrub passes — budgeted,
// throttled, repairing, and running alongside concurrent sessions.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "catalog/index.h"
#include "catalog/table.h"
#include "durability/file_page_store.h"
#include "index/btree.h"
#include "index/node.h"
#include "integrity/check.h"
#include "integrity/repair.h"
#include "integrity/scrub.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "workload/driver.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dynopt_" + name;
}

// Builds FAMILIES with two indexes — enough rows for height-2 trees.
Table* BuildIndexed(Database* db, int64_t rows = 800, uint64_t seed = 42) {
  auto table = BuildFamilies(db, rows, seed);
  EXPECT_TRUE(table.ok()) << table.status();
  EXPECT_TRUE((*table)->CreateIndex("by_id", {"id"}).ok());
  EXPECT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());
  return *table;
}

PageId LeftmostLeaf(Database* db, BTree* tree) {
  PageId cur = tree->meta().root;
  for (;;) {
    auto guard = db->pool()->Pin(cur);
    EXPECT_TRUE(guard.ok()) << guard.status();
    NodeRef node(const_cast<uint8_t*>(guard->data()));
    if (node.is_leaf()) return cur;
    cur = node.ChildId(0);
  }
}

// Mutates `page` through the pool (the in-memory image every reader sees),
// remembering the original bytes so the caller can restore them.
PageData MutatePage(Database* db, PageId page,
                    const std::function<void(uint8_t*)>& fn) {
  auto guard = db->pool()->Pin(page);
  EXPECT_TRUE(guard.ok()) << guard.status();
  PageData before;
  std::memcpy(before.data(), guard->data(), kPageSize);
  fn(guard->mutable_data());
  return before;
}

void RestorePage(Database* db, PageId page, const PageData& bytes) {
  auto guard = db->pool()->Pin(page);
  ASSERT_TRUE(guard.ok()) << guard.status();
  std::memcpy(guard->mutable_data(), bytes.data(), kPageSize);
}

// Flips one byte of the page body inside the on-disk frame, invalidating
// the frame checksum — media decay as the store sees it.
void CorruptOnDisk(const std::string& path, PageId page, size_t delta = 100) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint64_t off = FilePageStore::FrameOffsetOf(page) +
                 FilePageStore::kFrameHeaderBytes + delta;
  ASSERT_EQ(fseek(f, static_cast<long>(off), SEEK_SET), 0);
  int c = fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(fseek(f, static_cast<long>(off), SEEK_SET), 0);
  fputc(c ^ 0x5a, f);
  fclose(f);
}

// ------------------------------------------------------ clean databases

TEST(IntegrityCheckTest, CleanInMemoryDatabaseVerifies) {
  Database db;
  Table* table = BuildIndexed(&db);
  ASSERT_NE(table, nullptr);

  IntegrityReport report = CheckDatabase(&db);
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_EQ(report.tables_checked, 1u);
  EXPECT_EQ(report.indexes_checked, 2u);
  EXPECT_GT(report.heap_pages_checked, 0u);
  EXPECT_GT(report.nodes_checked, 2u);
  EXPECT_EQ(report.rid_entries_checked, 2u * 800u);
  EXPECT_EQ(db.pool()->PinnedPages(), 0u);
}

TEST(IntegrityCheckTest, CleanFileDatabaseVerifiesIncludingCatalogAndWal) {
  const std::string path = TempPath("integrity_clean.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 500, 7);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  IntegrityCheckOptions all;
  all.scan_all_pages = true;
  IntegrityReport report = CheckDatabase(db->get(), all);
  EXPECT_TRUE(report.clean()) << report.Summary();
  // The scan-everything mode must have visited the whole store.
  EXPECT_GE(report.pages_visited, (*db)->page_count());
  EXPECT_NE(report.Summary().find("clean"), std::string::npos);
}

TEST(IntegrityCheckTest, FindingsCapIsRespected) {
  Database db;
  Table* table = BuildIndexed(&db, 400);
  ASSERT_NE(table, nullptr);
  // Mangle every heap page; with max_findings=2 the rest must be counted,
  // not stored.
  std::vector<std::pair<PageId, PageData>> saved;
  for (PageId pid : table->heap()->pages()) {
    saved.emplace_back(pid, MutatePage(&db, pid, [](uint8_t* p) {
                         PageWrite<uint16_t>(p, 0, 0xffff);
                       }));
  }
  ASSERT_GE(saved.size(), 1u);
  IntegrityCheckOptions opts;
  opts.max_findings = 2;
  IntegrityReport report = CheckDatabase(&db, opts);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_GT(report.dropped_findings, 0u);
  for (auto& [pid, bytes] : saved) RestorePage(&db, pid, bytes);
  EXPECT_TRUE(CheckDatabase(&db).clean());
}

// ------------------------------------- seeded-mutation property matrix

struct Mutation {
  const char* name;
  PageId page;  // expected attribution; kInvalidPageId = don't check page
  IntegrityFindingKind kind;
  std::function<void(uint8_t*)> apply;
};

TEST(IntegrityMutationTest, EveryMutationIsDetectedWithAccurateAttribution) {
  Database db;
  Table* table = BuildIndexed(&db);
  ASSERT_NE(table, nullptr);

  BTree* tree = (*table->GetIndex("by_age"))->tree();
  ASSERT_GE(tree->height(), 2u) << "need a multi-level tree";
  const PageId root = tree->meta().root;
  const PageId leaf = LeftmostLeaf(&db, tree);
  const PageId heap_page = table->heap()->pages().front();

  // Offsets inside the leftmost by_age leaf, read before any mutation.
  uint16_t leaf_slot0, leaf_klen0;
  {
    auto guard = db.pool()->Pin(leaf);
    ASSERT_TRUE(guard.ok());
    const uint8_t* p = guard->data();
    ASSERT_GE(PageRead<uint16_t>(p, 2), 2u) << "leaf too small to mutate";
    leaf_slot0 = PageRead<uint16_t>(p, kPageSize - 2);
    leaf_klen0 = PageRead<uint16_t>(p, leaf_slot0);
  }
  uint16_t root_slot0;
  {
    auto guard = db.pool()->Pin(root);
    ASSERT_TRUE(guard.ok());
    root_slot0 = PageRead<uint16_t>(guard->data(), kPageSize - 2);
  }

  const std::vector<Mutation> mutations = {
      {"leaf adjacent slot swap", leaf, IntegrityFindingKind::kKeyOrder,
       [](uint8_t* p) {
         uint16_t s0 = PageRead<uint16_t>(p, kPageSize - 2);
         uint16_t s1 = PageRead<uint16_t>(p, kPageSize - 4);
         PageWrite<uint16_t>(p, kPageSize - 2, s1);
         PageWrite<uint16_t>(p, kPageSize - 4, s0);
       }},
      {"leaf sibling link rewired", leaf, IntegrityFindingKind::kTreeShape,
       [](uint8_t* p) { PageWrite<uint32_t>(p, 8, 999999u); }},
      {"leaf rid payload garbage", leaf, IntegrityFindingKind::kRidCrossRef,
       [=](uint8_t* p) {
         // The 8-byte RID suffix trails the key bytes of entry 0.
         size_t rid_off = leaf_slot0 + 2 + leaf_klen0 - 8;
         for (size_t i = 0; i < 8; ++i) p[rid_off + i] = 0xEE;
       }},
      {"interior child count skewed", root,
       IntegrityFindingKind::kSubtreeCount,
       [=](uint8_t* p) {
         // Internal entry payload = u32 child + u64 subtree count.
         size_t klen = PageRead<uint16_t>(p, root_slot0);
         size_t count_off = root_slot0 + 2 + klen + 4;
         PageWrite<uint64_t>(p, count_off,
                             PageRead<uint64_t>(p, count_off) + 5);
       }},
      {"leaf level byte", leaf, IntegrityFindingKind::kNodeBytes,
       [](uint8_t* p) { p[1] = 3; }},
      {"interior level byte", root, IntegrityFindingKind::kTreeShape,
       [](uint8_t* p) { p[1] = static_cast<uint8_t>(p[1] + 1); }},
      {"node type byte", leaf, IntegrityFindingKind::kNodeBytes,
       [](uint8_t* p) { p[0] = 7; }},
      {"node free_off junk", leaf, IntegrityFindingKind::kNodeBytes,
       [](uint8_t* p) { PageWrite<uint16_t>(p, 4, 0xffff); }},
      {"heap free_off under header", heap_page,
       IntegrityFindingKind::kHeapPage,
       [](uint8_t* p) { PageWrite<uint16_t>(p, 2, 4); }},
      {"heap slot count absurd", heap_page, IntegrityFindingKind::kHeapPage,
       [](uint8_t* p) { PageWrite<uint16_t>(p, 0, 0xffff); }},
      {"heap slot offset into header", heap_page,
       IntegrityFindingKind::kHeapPage,
       [](uint8_t* p) { PageWrite<uint16_t>(p, kPageSize - 4, 2); }},
      {"heap record silently tombstoned", kInvalidPageId,
       IntegrityFindingKind::kHeapBookkeeping,
       [](uint8_t* p) { PageWrite<uint16_t>(p, kPageSize - 2, 0xffff); }},
  };

  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.name);
    PageId target = m.page != kInvalidPageId ? m.page : heap_page;
    PageData before = MutatePage(&db, target, m.apply);

    IntegrityReport report = CheckDatabase(&db);
    EXPECT_FALSE(report.clean()) << m.name << " went undetected";
    EXPECT_TRUE(report.HasKind(m.kind))
        << m.name << " detected, but not as " << IntegrityFindingKindName(m.kind)
        << ": " << report.Summary();
    if (m.page != kInvalidPageId) {
      EXPECT_TRUE(report.HasFindingOn(m.page))
          << m.name << " not attributed to page " << m.page << ": "
          << report.Summary();
    }

    RestorePage(&db, target, before);
    IntegrityReport again = CheckDatabase(&db);
    EXPECT_TRUE(again.clean())
        << "restore after '" << m.name << "' left: " << again.Summary();
  }
  EXPECT_EQ(db.pool()->PinnedPages(), 0u);
}

TEST(IntegrityMutationTest, CatalogChainMutationIsDetected) {
  const std::string path = TempPath("integrity_catalog_mut.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_NE(BuildIndexed(db->get(), 300, 3), nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  // Stomp the chain head's magic word.
  PageData before =
      MutatePage(db->get(), kCatalogRootPage,
                 [](uint8_t* p) { PageWrite<uint32_t>(p, 0, 0xdeadbeef); });
  IntegrityReport report = CheckDatabase(db->get());
  EXPECT_TRUE(report.HasKind(IntegrityFindingKind::kCatalogChain));
  EXPECT_TRUE(report.HasFindingOn(kCatalogRootPage)) << report.Summary();
  RestorePage(db->get(), kCatalogRootPage, before);
  EXPECT_TRUE(CheckDatabase(db->get()).clean());
}

// --------------------------------------------- corruption-repair matrix

TEST(RepairMatrixTest, WalCoveredCorruptionHealsOnlineHashEqual) {
  const std::string path = TempPath("repair_online.db");
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 256;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 600, 42);
  ASSERT_NE(table, nullptr);
  // Commit (not Checkpoint): every page image stays in the WAL.
  ASSERT_TRUE((*db)->Commit().ok());

  auto golden = WorkloadResultHash(db->get(), table, 2, 12, 99);
  ASSERT_TRUE(golden.ok()) << golden.status();

  // Cold store: push every page to disk, then corrupt a spread of
  // WAL-covered pages — heap, index root, index leaf.
  ASSERT_TRUE((*db)->pool()->FlushAll().ok());
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  BTree* tree = (*table->GetIndex("by_age"))->tree();
  const std::vector<PageId> victims = {
      table->heap()->pages().front(),
      tree->meta().root,
      LeftmostLeaf(db->get(), tree),
  };
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());  // LeftmostLeaf re-cached some
  for (PageId v : victims) CorruptOnDisk(path, v);

  // A full check pins every page: each corrupt frame must repair
  // transparently mid-pin and the database must come back clean.
  IntegrityReport report = CheckDatabase(db->get());
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_GE(report.repaired_during_check, victims.size());
  EXPECT_EQ((*db)->repairer()->repairs(), report.repaired_during_check);
  EXPECT_EQ((*db)->repairer()->quarantined_count(), 0u);

  // Workloads see golden-identical results, with zero leaked pins.
  auto hash = WorkloadResultHash(db->get(), table, 2, 12, 99);
  ASSERT_TRUE(hash.ok()) << hash.status();
  EXPECT_EQ(*hash, *golden);
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);

  // The repairer healed the store in place: a second cold sweep finds
  // nothing left to repair.
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  uint64_t repairs_before = (*db)->repairer()->repairs();
  EXPECT_TRUE(CheckDatabase(db->get()).clean());
  EXPECT_EQ((*db)->repairer()->repairs(), repairs_before);
}

TEST(RepairMatrixTest, PostCheckpointCorruptionQuarantinesTyped) {
  const std::string path = TempPath("repair_quarantine.db");
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 256;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 600, 42);
  ASSERT_NE(table, nullptr);

  SessionWorkloadOptions wo;
  wo.sessions = 2;
  wo.queries_per_session = 12;
  wo.seed = 99;
  wo.governed = true;  // degraded_fallback defaults on
  auto golden = RunSessionWorkload(db->get(), table, wo);
  ASSERT_TRUE(golden.ok()) << golden.status();
  for (const auto& s : golden->sessions) ASSERT_TRUE(s.error.empty());

  // Checkpoint resets the WAL: corruption after this point has no
  // committed image to rebuild from.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  BTree* tree = (*table->GetIndex("by_age"))->tree();
  const PageId victim = LeftmostLeaf(db->get(), tree);
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  CorruptOnDisk(path, victim);

  // Direct pin: typed Corruption naming the quarantine, not a crash.
  auto pin = (*db)->pool()->Pin(victim);
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsCorruption()) << pin.status();
  EXPECT_NE(pin.status().message().find("quarantined"), std::string::npos)
      << pin.status();
  EXPECT_TRUE((*db)->repairer()->IsQuarantined(victim));
  EXPECT_EQ((*db)->repairer()->quarantined_count(), 1u);

  // Governed sessions degrade to Tscan and stay hash-equal to golden.
  auto faulted = RunSessionWorkload(db->get(), table, wo);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  uint64_t degraded = 0;
  for (size_t i = 0; i < faulted->sessions.size(); ++i) {
    const auto& s = faulted->sessions[i];
    ASSERT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.failed_queries, 0u);
    EXPECT_EQ(s.result_hash, golden->sessions[i].result_hash);
    degraded += s.degraded_queries;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);

  // CheckDatabase reports the page unreadable instead of failing.
  IntegrityReport report = CheckDatabase(db->get());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.HasKind(IntegrityFindingKind::kUnreadablePage));
  EXPECT_TRUE(report.HasFindingOn(victim)) << report.Summary();
}

TEST(RepairMatrixTest, VerifyOnOpenRejectsDamagedDatabaseTyped) {
  const std::string path = TempPath("repair_verify_open.db");
  PageId victim;
  {
    DatabaseOptions options;
    options.path = path;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    Table* table = BuildIndexed(db->get(), 400, 11);
    ASSERT_NE(table, nullptr);
    victim = LeftmostLeaf(db->get(), (*table->GetIndex("by_age"))->tree());
    ASSERT_TRUE((*db)->Close().ok());
  }
  CorruptOnDisk(path, victim);

  DatabaseOptions options;
  options.path = path;
  auto rejected = Database::Open(options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsCorruption()) << rejected.status();
  EXPECT_NE(rejected.status().message().find("verify-on-open"),
            std::string::npos)
      << rejected.status();

  // Opting out still opens; the damage shows up as a typed finding and
  // queries degrade rather than crash.
  options.verify_on_open = false;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  IntegrityReport report = CheckDatabase(db->get());
  EXPECT_TRUE(report.HasFindingOn(victim)) << report.Summary();
}

TEST(RepairMatrixTest, UncleanShutdownVerifiesOnOpenAfterRecovery) {
  const std::string path = TempPath("repair_recover_verify.db");
  {
    DatabaseOptions options;
    options.path = path;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_NE(BuildIndexed(db->get(), 500, 5), nullptr);
    ASSERT_TRUE((*db)->Commit().ok());
    // No Close(): reopen must replay the WAL, then verify clean.
  }
  RecoveryStats recovery;
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Open(options, &recovery);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_GT(recovery.wal_commits, 0u);
  EXPECT_TRUE(CheckDatabase(db->get()).clean());
}

// ------------------------------------------------------------- scrubbing

TEST(ScrubTest, PassSweepsWholeStoreClean) {
  const std::string path = TempPath("scrub_clean.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_NE(BuildIndexed(db->get(), 400, 9), nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  TraceLog trace;
  ScrubReport report = RunScrubPass(db->get(), {}, &trace);
  EXPECT_EQ(report.pages_scanned, (*db)->page_count());
  EXPECT_EQ(report.corrupt_pages, 0u);
  EXPECT_EQ(report.io_error_pages, 0u);
  EXPECT_TRUE(report.wrapped);
  EXPECT_EQ(report.next_page, 0u);
  EXPECT_FALSE(report.budget_tripped);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kScrubPass), 1u);
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);
}

TEST(ScrubTest, BudgetBoundsOnePassAndResumeCoversTheRest) {
  const std::string path = TempPath("scrub_budget.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_NE(BuildIndexed(db->get(), 400, 9), nullptr);
  ASSERT_TRUE((*db)->Commit().ok());
  const size_t total = (*db)->page_count();
  ASSERT_GT(total, 5u);

  ScrubOptions opts;
  opts.max_pages = 5;
  ScrubReport first = RunScrubPass(db->get(), opts);
  EXPECT_EQ(first.pages_scanned, 5u);
  EXPECT_EQ(first.next_page, 5u);
  EXPECT_FALSE(first.wrapped);

  // Resume until the sweep wraps; passes advance sequentially from page 0,
  // so by the time the cursor wraps every page has been visited. The last
  // pass may run a few pages past the wrap (it always scans its budget).
  uint64_t swept = first.pages_scanned;
  bool wrapped = false;
  ScrubOptions next = opts;
  next.start_page = first.next_page;
  while (!wrapped) {
    ScrubReport r = RunScrubPass(db->get(), next);
    ASSERT_GT(r.pages_scanned, 0u);
    swept += r.pages_scanned;
    wrapped = r.wrapped;
    next.start_page = r.next_page;
  }
  EXPECT_GE(swept, total);
  EXPECT_LT(swept, total + opts.max_pages);
}

TEST(ScrubTest, ScrubRepairsLatentCorruptionAndHealsTheStore) {
  const std::string path = TempPath("scrub_repair.db");
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 128;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 600, 21);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE((*db)->Commit().ok());
  ASSERT_TRUE((*db)->pool()->FlushAll().ok());

  BTree* tree = (*table->GetIndex("by_id"))->tree();
  const std::vector<PageId> victims = {
      table->heap()->pages().back(),
      LeftmostLeaf(db->get(), tree),
  };
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  for (PageId v : victims) CorruptOnDisk(path, v);

  TraceLog trace;
  ScrubReport report = RunScrubPass(db->get(), {}, &trace);
  EXPECT_EQ(report.corrupt_pages, victims.size());
  EXPECT_EQ(report.repaired_pages, victims.size());
  EXPECT_EQ(report.quarantined_pages, 0u);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kPageRepaired), victims.size());

  // Healed in place: the next cold sweep is quiet.
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  ScrubReport second = RunScrubPass(db->get(), {});
  EXPECT_EQ(second.corrupt_pages, 0u);
  EXPECT_TRUE(CheckDatabase(db->get()).clean());
}

TEST(ScrubTest, ScrubQuarantinesUnrepairablePages) {
  const std::string path = TempPath("scrub_quarantine.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 300, 13);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE((*db)->Checkpoint().ok());  // WAL emptied: nothing to redo

  const PageId victim =
      LeftmostLeaf(db->get(), (*table->GetIndex("by_age"))->tree());
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  CorruptOnDisk(path, victim);

  TraceLog trace;
  ScrubReport report = RunScrubPass(db->get(), {}, &trace);
  EXPECT_EQ(report.corrupt_pages, 1u);
  EXPECT_EQ(report.quarantined_pages, 1u);
  EXPECT_EQ(report.repaired_pages, 0u);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kPageQuarantined), 1u);
  EXPECT_TRUE((*db)->repairer()->IsQuarantined(victim));
}

TEST(ScrubTest, ThrottleSlowsThePass) {
  const std::string path = TempPath("scrub_throttle.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_NE(BuildIndexed(db->get(), 200, 3), nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  ScrubOptions opts;
  opts.max_pages = 4;
  opts.throttle_every = 1;
  opts.throttle_micros = 2000;
  auto start = std::chrono::steady_clock::now();
  ScrubReport report = RunScrubPass(db->get(), opts);
  auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  EXPECT_EQ(report.pages_scanned, 4u);
  // sleep_for guarantees at least the requested time, 4 sleeps x 2ms.
  EXPECT_GE(micros, 8000);
}

TEST(ScrubTest, ScrubRunsAlongsideConcurrentSessions) {
  const std::string path = TempPath("scrub_sessions.db");
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 128;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 600, 17);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  SessionWorkloadOptions serial;
  serial.sessions = 3;
  serial.queries_per_session = 25;
  serial.seed = 5;
  serial.concurrent = false;
  auto baseline = RunSessionWorkload(db->get(), table, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  SessionWorkloadOptions scrubbed = serial;
  scrubbed.concurrent = true;
  scrubbed.scrub = true;
  scrubbed.scrub_options.throttle_every = 16;
  scrubbed.scrub_options.throttle_micros = 100;
  auto report = RunSessionWorkload(db->get(), table, scrubbed);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->scrub_passes, 1u);
  EXPECT_GT(report->scrub_pages, 0u);
  EXPECT_EQ(report->scrub_repaired, 0u);
  for (size_t i = 0; i < report->sessions.size(); ++i) {
    const auto& s = report->sessions[i];
    ASSERT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.result_hash, baseline->sessions[i].result_hash);
  }
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);
}

TEST(ScrubTest, ScrubRepairsWhileSessionsRun) {
  const std::string path = TempPath("scrub_chaos.db");
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 96;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  Table* table = BuildIndexed(db->get(), 600, 23);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE((*db)->Commit().ok());

  SessionWorkloadOptions wo;
  wo.sessions = 3;
  wo.queries_per_session = 30;
  wo.seed = 31;
  wo.concurrent = false;
  auto baseline = RunSessionWorkload(db->get(), table, wo);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Latent corruption on WAL-covered pages, cold cache; sessions and the
  // scrubber then race to discover it — every path must repair inline.
  ASSERT_TRUE((*db)->pool()->FlushAll().ok());
  BTree* tree = (*table->GetIndex("by_age"))->tree();
  const std::vector<PageId> victims = {
      table->heap()->pages().front(),
      LeftmostLeaf(db->get(), tree),
  };
  ASSERT_TRUE((*db)->pool()->EvictAll().ok());
  for (PageId v : victims) CorruptOnDisk(path, v);

  SessionWorkloadOptions chaos = wo;
  chaos.concurrent = true;
  chaos.scrub = true;
  auto report = RunSessionWorkload(db->get(), table, chaos);
  ASSERT_TRUE(report.ok()) << report.status();
  for (size_t i = 0; i < report->sessions.size(); ++i) {
    const auto& s = report->sessions[i];
    ASSERT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.result_hash, baseline->sessions[i].result_hash);
  }
  // Sessions and the scrubber may race to discover the same frame, so at
  // least one repair per victim; never a quarantine.
  EXPECT_GE((*db)->repairer()->repairs(), victims.size());
  EXPECT_EQ((*db)->repairer()->quarantined_count(), 0u);
  EXPECT_TRUE(CheckDatabase(db->get()).clean());
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);
}

}  // namespace
}  // namespace dynopt
