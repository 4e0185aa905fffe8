// Durability-layer tests: WAL record round trips and torn-tail detection,
// group commit under concurrency, the file-backed page store's checksums
// and superblock ping-pong, WAL-before-data ordering in the buffer pool,
// reopen-without-rebuild through the persistent catalog, and the full
// crash matrix — every registered crash point must recover to exactly one
// of the two committed states around the interrupted commit.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "durability/crash.h"
#include "durability/file_page_store.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "families.h"
#include "integrity/check.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dynopt_" + name;
}

// ------------------------------------------------------------------- Wal

TEST(WalTest, CommitReplayRoundTrip) {
  const std::string path = TempPath("wal_roundtrip.wal");
  ::unlink(path.c_str());
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status();

  PageData a, b;
  a.fill(0xaa);
  b.fill(0xbb);
  ASSERT_TRUE((*wal)->Commit({{7, &a}, {9, &b}}, "first").ok());
  ASSERT_TRUE((*wal)->CommitNote("second").ok());
  EXPECT_EQ((*wal)->durable_lsn(), 4u);  // 2 images + 2 commits

  std::vector<uint64_t> lsns;
  std::vector<PageId> pages;
  std::vector<std::string> payloads;
  WalReplayStats stats;
  Status st = (*wal)->Replay(
      [&](const WalRecordView& rec) {
        lsns.push_back(rec.lsn);
        pages.push_back(rec.page);
        if (rec.type == WalRecordType::kCommit) {
          payloads.emplace_back(rec.payload);
        } else {
          EXPECT_EQ(rec.payload.size(), kPageSize);
        }
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(pages[0], 7u);
  EXPECT_EQ(pages[1], 9u);
  EXPECT_EQ(payloads, (std::vector<std::string>{"first", "second"}));
}

TEST(WalTest, AppendRecordPinsTheFraming) {
  std::string rec;
  WalAppendRecord(&rec, WalRecordType::kCommit, 0x0102030405060708ull, 7,
                  "xy");
  ASSERT_EQ(rec.size(), kWalRecordHeaderSize + 2);
  // magic 'WREC', type 2, lsn, page 7, payload length 2, then the FNV-1a
  // checksum over the first 24 header bytes and the payload.
  EXPECT_EQ(rec, std::string("WREC"
                             "\x02\x00\x00\x00"
                             "\x08\x07\x06\x05\x04\x03\x02\x01"
                             "\x07\x00\x00\x00"
                             "\x02\x00\x00\x00"
                             "\xb4\x88\xcc\xb8\x91\x2a\x8e\x28"
                             "xy",
                             34));
  size_t valid = 0;
  bool torn = true;
  uint64_t seen_lsn = 0;
  ASSERT_TRUE(WalScanRecords(
                  rec, 0x0102030405060708ull,
                  [&seen_lsn](const WalRecordView& view) {
                    seen_lsn = view.lsn;
                    return Status::OK();
                  },
                  &valid, &torn)
                  .ok());
  EXPECT_EQ(seen_lsn, 0x0102030405060708ull);
  EXPECT_EQ(valid, rec.size());
  EXPECT_FALSE(torn);
}

TEST(WalTest, ReopenContinuesLsnSequence) {
  const std::string path = TempPath("wal_reopen.wal");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->CommitNote("one").ok());
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ((*wal)->durable_lsn(), 1u);
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  ASSERT_TRUE((*wal)->CommitNote("two").ok());
  WalReplayStats stats;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats)
          .ok());
  EXPECT_EQ(stats.commits, 2u);
}

TEST(WalTest, TornTailIsDetectedAndDiscarded) {
  const std::string path = TempPath("wal_torn.wal");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->CommitNote("durable").ok());
  }
  {
    // A torn write: garbage where the next record would start.
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "WREC half-written record bytes............";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_TRUE((*wal)->tail_was_torn());
  WalReplayStats stats;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats)
          .ok());
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_FALSE(stats.torn_tail) << "Open should have truncated the tail";
  // Appends continue from the valid prefix.
  ASSERT_TRUE((*wal)->CommitNote("after-tear").ok());
  WalReplayStats stats2;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats2)
          .ok());
  EXPECT_EQ(stats2.commits, 2u);
  EXPECT_FALSE(stats2.torn_tail);
}

TEST(WalTest, ResetEmptiesLogAndKeepsLsnsDense) {
  const std::string path = TempPath("wal_reset.wal");
  ::unlink(path.c_str());
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->CommitNote("a").ok());
  ASSERT_TRUE((*wal)->CommitNote("b").ok());
  uint64_t before = (*wal)->next_lsn();
  ASSERT_TRUE((*wal)->Reset().ok());
  WalReplayStats stats;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats)
          .ok());
  EXPECT_EQ(stats.records, 0u);
  ASSERT_TRUE((*wal)->CommitNote("c").ok());
  EXPECT_EQ((*wal)->durable_lsn(), before);  // sequence continued
}

TEST(WalTest, GroupCommitManyThreadsAllDurable) {
  const std::string path = TempPath("wal_group.wal");
  ::unlink(path.c_str());
  WalOptions options;
  options.group_commit = true;
  options.simulated_fsync_micros = 200;  // widen the grouping window
  auto wal = Wal::Open(path, options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  MetricsRegistry metrics;
  (*wal)->AttachMetrics(&metrics);

  constexpr int kThreads = 8;
  constexpr int kNotes = 20;
  std::vector<std::thread> threads;
  std::vector<Status> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNotes && errors[t].ok(); ++i) {
        errors[t] = (*wal)->CommitNote("t" + std::to_string(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : errors) EXPECT_TRUE(st.ok()) << st;

  WalReplayStats stats;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats)
          .ok());
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads * kNotes));
  EXPECT_FALSE(stats.torn_tail);
  // Group commit: never more fsyncs than commits; with contending threads
  // there should be measurably fewer.
  EXPECT_LE(metrics.Value("wal.fsyncs"), metrics.Value("wal.commits"));
}

// A failed flush barrier must fail every commit in the group with a typed
// error — group commit never converts a lost fsync into silent loss — and
// the log stays poisoned for later commits even after the device recovers,
// because the in-memory tail no longer matches the file.
TEST(WalTest, FailedFlushPoisonsTheLogTyped) {
  const std::string path = TempPath("wal_poison.wal");
  ::unlink(path.c_str());
  CrashController crash;
  WalOptions options;
  options.group_commit = true;
  options.simulated_fsync_micros = 200;
  auto wal = Wal::Open(path, options, &crash);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->CommitNote("durable").ok());
  const uint64_t durable_before = (*wal)->durable_lsn();

  crash.Arm(CrashPoint::kWalBeforeSync);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = (*wal)->CommitNote("t" + std::to_string(t));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(crash.crashed());
  EXPECT_EQ(crash.fired(), CrashPoint::kWalBeforeSync);
  for (const Status& st : results) {
    EXPECT_FALSE(st.ok()) << "a commit in the failed group reported ok";
  }
  EXPECT_EQ((*wal)->durable_lsn(), durable_before);

  // Device recovered — the log has not: commits keep failing typed.
  crash.Reset();
  Status later = (*wal)->CommitNote("after-recovery");
  EXPECT_FALSE(later.ok());
  EXPECT_EQ((*wal)->durable_lsn(), durable_before);

  // The failed group's records may sit in the file (written, never
  // synced) — like any crash tail, they may or may not survive a real
  // power cut. What matters: the log is well-formed, the durable prefix
  // is intact, and nothing past durable_lsn was acknowledged.
  WalReplayStats stats;
  ASSERT_TRUE(
      (*wal)->Replay([](const WalRecordView&) { return Status::OK(); },
                     &stats)
          .ok());
  EXPECT_GE(stats.commits, 1u);
  EXPECT_FALSE(stats.torn_tail);
}

// ------------------------------------------------------------ RedoApplier

TEST(RedoApplierTest, PromotesAtCommitDropsTheTailAndRejectsBadImages) {
  const std::string path = TempPath("redo_applier.db");
  ::unlink(path.c_str());
  auto store = FilePageStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ((*store)->page_count(), 0u);

  PageData committed, uncommitted;
  committed.fill(0x11);
  uncommitted.fill(0x22);
  auto image = [](uint64_t lsn, PageId page, const PageData& data) {
    WalRecordView rec;
    rec.type = WalRecordType::kPageImage;
    rec.lsn = lsn;
    rec.page = page;
    rec.payload = std::string_view(
        reinterpret_cast<const char*>(data.data()), data.size());
    return rec;
  };
  // The commit payload's allocation watermark: 5 pages, past the one image.
  std::string watermark(8, '\0');
  watermark[0] = 5;
  WalRecordView commit;
  commit.type = WalRecordType::kCommit;
  commit.lsn = 2;
  commit.payload = watermark;

  RedoApplier redo((*store)->page_count());
  ASSERT_TRUE(redo.Apply(image(1, 2, committed)).ok());
  ASSERT_TRUE(redo.Apply(commit).ok());
  // An uncommitted tail: its image must never reach the store.
  ASSERT_TRUE(redo.Apply(image(3, 0, uncommitted)).ok());
  EXPECT_EQ(redo.commits(), 1u);
  EXPECT_EQ(redo.last_commit_lsn(), 2u);
  EXPECT_EQ(redo.pages(), 1u);

  ASSERT_TRUE(redo.WriteTo(store->get()).ok());
  EXPECT_EQ((*store)->page_count(), 5u);
  PageData read;
  ASSERT_TRUE((*store)->Read(2, &read).ok());
  EXPECT_EQ(read, committed);
  ASSERT_TRUE((*store)->Read(0, &read).ok());
  EXPECT_EQ(read, PageData{});

  WalRecordView short_image = image(4, 1, committed);
  short_image.payload.remove_suffix(1);
  EXPECT_TRUE(redo.Apply(short_image).IsCorruption());
}

// --------------------------------------------------------- FilePageStore

TEST(FilePageStoreTest, WriteReadPersistAcrossReopen) {
  const std::string path = TempPath("fps_persist.db");
  ::unlink(path.c_str());
  PageData page;
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ((*store)->page_count(), 0u);
    PageId a = (*store)->Allocate();
    PageId b = (*store)->Allocate();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    page.fill(0x5c);
    ASSERT_TRUE((*store)->Write(b, page).ok());
    ASSERT_TRUE((*store)->Sync().ok());
    ASSERT_TRUE((*store)->WriteSuperblock().ok());
    EXPECT_EQ((*store)->superblock().seq, 1u);
  }
  auto store = FilePageStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->page_count(), 2u);
  EXPECT_EQ((*store)->superblock().page_count, 2u);
  PageData back;
  ASSERT_TRUE((*store)->Read(1, &back).ok());
  EXPECT_EQ(back, page);
  // Allocated but never written: zeroed.
  ASSERT_TRUE((*store)->Read(0, &back).ok());
  PageData zero;
  zero.fill(0);
  EXPECT_EQ(back, zero);
  // Out of range.
  EXPECT_FALSE((*store)->Read(2, &back).ok());
}

TEST(FilePageStoreTest, ChecksumMismatchReadsAsCorruption) {
  const std::string path = TempPath("fps_corrupt.db");
  ::unlink(path.c_str());
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    (void)(*store)->Allocate();
    PageData page;
    page.fill(0x11);
    ASSERT_TRUE((*store)->Write(0, page).ok());
    ASSERT_TRUE((*store)->WriteSuperblock().ok());
  }
  {
    // Flip one body byte of frame 0 (frames start at 8192, body at +16).
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 8192 + 16 + 100, SEEK_SET);
    fputc(0x12, f);
    fclose(f);
  }
  auto store = FilePageStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  PageData back;
  Status st = (*store)->Read(0, &back);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(FilePageStoreTest, SuperblockPingPongSurvivesTornSlot) {
  const std::string path = TempPath("fps_super.db");
  ::unlink(path.c_str());
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    (void)(*store)->Allocate();
    ASSERT_TRUE((*store)->WriteSuperblock().ok());  // seq 1 -> slot A (off 0)
    (void)(*store)->Allocate();
    ASSERT_TRUE((*store)->WriteSuperblock().ok());  // seq 2 -> slot B (4096)
    EXPECT_EQ((*store)->superblock().seq, 2u);
  }
  {
    // Tear the newest slot (seq 2 lives in slot B at offset 4096).
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 4096 + 8, SEEK_SET);  // corrupt the seq field under the checksum
    fputc(0x7f, f);
    fclose(f);
  }
  auto store = FilePageStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->superblock().seq, 1u);  // fell back to the older slot
  EXPECT_EQ((*store)->page_count(), 1u);
}

// ----------------------------------------------- WAL-before-data ordering

TEST(BufferPoolWalOrderingTest, UncommittedDirtyPagesStayOutOfTheStore) {
  MemPageStore store;
  BufferPool pool(&store, 8);
  pool.EnableWalOrdering();
  PageId id;
  {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->mutable_data()[0] = 42;
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  PageData raw;
  ASSERT_TRUE(store.Read(id, &raw).ok());
  EXPECT_EQ(raw[0], 0) << "uncommitted dirty page leaked to the store";

  std::vector<std::pair<PageId, PageData>> dirty;
  uint64_t epoch = pool.SnapshotDirtyPages(&dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].first, id);
  EXPECT_EQ(dirty[0].second[0], 42);
  pool.MarkCommittedUpTo(epoch);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(store.Read(id, &raw).ok());
  EXPECT_EQ(raw[0], 42);
}

TEST(BufferPoolWalOrderingTest, EvictionRefusesUncommittedDirtyFrames) {
  MemPageStore store;
  BufferPool pool(&store, 4, nullptr, 1);
  pool.EnableWalOrdering();
  // Fill the pool with uncommitted dirty pages (guards released: unpinned).
  for (int i = 0; i < 4; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    page->mutable_data()[0] = static_cast<uint8_t>(i + 1);
  }
  auto overflow = pool.NewPage();
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted()) << overflow.status();

  std::vector<std::pair<PageId, PageData>> dirty;
  pool.MarkCommittedUpTo(pool.SnapshotDirtyPages(&dirty));
  EXPECT_EQ(dirty.size(), 4u);
  auto after = pool.NewPage();
  EXPECT_TRUE(after.ok()) << after.status();
}

// ------------------------------------------------------ Database reopen

TEST(DurabilityDatabaseTest, ReopenWithoutRebuildAnswersIdentically) {
  const std::string path = TempPath("db_reopen.db");
  uint64_t built_hash = 0;
  uint64_t entries = 0;
  uint32_t height = 0;
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 512;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = BuildFamilies(db->get(), 800, /*seed=*/42);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_id", {"id"}).ok());
    ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());
    entries = (*table)->GetIndex("by_age").value()->tree()->entry_count();
    height = (*table)->GetIndex("by_age").value()->tree()->height();
    auto hash = WorkloadResultHash(db->get(), *table, 2, 15, 99);
    ASSERT_TRUE(hash.ok()) << hash.status();
    built_hash = *hash;
    ASSERT_TRUE((*db)->Close().ok());
  }
  RecoveryStats recovery;
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 512;
  auto db = Database::Open(options, &recovery);
  ASSERT_TRUE(db.ok()) << db.status();
  // Clean shutdown checkpointed: nothing to replay.
  EXPECT_EQ(recovery.wal_commits, 0u);
  auto table = (*db)->GetTable("families");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->record_count(), 800u);
  EXPECT_EQ((*table)->schema().num_columns(), 4u);
  ASSERT_EQ((*table)->indexes().size(), 2u);
  SecondaryIndex* by_age = (*table)->GetIndex("by_age").value();
  EXPECT_EQ(by_age->tree()->entry_count(), entries);
  EXPECT_EQ(by_age->tree()->height(), height);
  auto hash = WorkloadResultHash(db->get(), *table, 2, 15, 99);
  ASSERT_TRUE(hash.ok()) << hash.status();
  EXPECT_EQ(*hash, built_hash);
}

TEST(DurabilityDatabaseTest, ReopenWithoutCheckpointReplaysTheWal) {
  const std::string path = TempPath("db_replay.db");
  uint64_t built_hash = 0;
  {
    DatabaseOptions options;
    options.path = path;
    options.pool_pages = 512;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = BuildFamilies(db->get(), 500, /*seed=*/7);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_id", {"id"}).ok());
    ASSERT_TRUE((*db)->Commit().ok());
    auto hash = WorkloadResultHash(db->get(), *table, 2, 10, 5);
    ASSERT_TRUE(hash.ok()) << hash.status();
    built_hash = *hash;
    // No Close(): everything must come back through WAL replay.
  }
  RecoveryStats recovery;
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 512;
  auto db = Database::Open(options, &recovery);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_GT(recovery.wal_commits, 0u);
  EXPECT_GT(recovery.pages_applied, 0u);
  auto table = (*db)->GetTable("families");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->record_count(), 500u);
  auto hash = WorkloadResultHash(db->get(), *table, 2, 10, 5);
  ASSERT_TRUE(hash.ok()) << hash.status();
  EXPECT_EQ(*hash, built_hash);
}

// A record an index rejects (a NaN key) is rejected before the heap write,
// so committing after it leaves a database that verifies on reopen.
TEST(DurabilityDatabaseTest, CommitAfterRejectedInsertReopens) {
  const std::string path = TempPath("db_rejected_insert.db");
  {
    DatabaseOptions options;
    options.path = path;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = (*db)->CreateTable(
        "t", Schema({{"a", ValueType::kInt64}, {"x", ValueType::kDouble}}));
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_x", {"x"}).ok());
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((*table)->Insert(Record{i, 0.5 * i}).ok());
    }
    EXPECT_TRUE((*table)->Insert(Record{int64_t{10}, std::nan("")})
                    .status()
                    .IsInvalidArgument());
    ASSERT_TRUE((*db)->Commit().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = (*db)->GetTable("t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->record_count(), 10u);
}

// Catalog counts are read from disk, so a corrupt one must fail the open
// typed instead of sizing an allocation: rewrite a closed database's
// catalog root page so table "t"'s column count reads 0xFFFFFFFF.
TEST(DurabilityDatabaseTest, CorruptCatalogCountOpensAsCorruption) {
  const std::string path = TempPath("db_bad_catalog.db");
  {
    DatabaseOptions options;
    options.path = path;
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(
        (*db)->CreateTable("t", Schema({{"a", ValueType::kInt64}})).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    PageData page;
    ASSERT_TRUE((*store)->Read(kCatalogRootPage, &page).ok());
    // The blob after the chain header: version, table count, name length,
    // "t", column count.
    const size_t ncols_at = kCatalogChainHeaderSize + 4 + 4 + 4 + 1;
    uint32_t ncols = 0;
    std::memcpy(&ncols, page.data() + ncols_at, sizeof(ncols));
    ASSERT_EQ(ncols, 1u);
    std::memset(page.data() + ncols_at, 0xff, sizeof(ncols));
    ASSERT_TRUE((*store)->Write(kCatalogRootPage, page).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Open(options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status();
}

// A Jscan list that outgrows memory spills into pages the list owns, not
// pages of the database file: three sessions each run a spilling query
// and commit, and neither they nor the reopen move the file's page count.
TEST(DurabilityDatabaseTest, SpilledRidListsLeaveTheFileAlone) {
  const std::string path = TempPath("db_spill.db");
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  DatabaseOptions options;
  options.path = path;
  size_t pages = 0;
  {
    auto db = Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = BuildFamilies(db->get(), 20000);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());
    ASSERT_TRUE((*table)->CreateIndex("by_income", {"income"}).ok());
    ASSERT_TRUE((*db)->Commit().ok());
    ASSERT_TRUE((*db)->Close().ok());
    pages = (*db)->page_count();
  }
  RetrievalOptions opt;
  opt.jscan.rid_list.memory_capacity = 64;
  for (int session = 0; session < 3; ++session) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status();
    auto table = (*db)->GetTable("families");
    ASSERT_TRUE(table.ok()) << table.status();
    RetrievalSpec spec;
    spec.table = *table;
    spec.restriction = Predicate::And(
        {AgeBetween(10, 60),
         Predicate::Compare(2, CompareOp::kLt,
                            Operand::Literal(Value(int64_t{60000})))});
    spec.projection = {0};
    DynamicRetrieval engine(db->get(), spec, opt);
    ASSERT_TRUE(engine.Open({}).ok());
    EXPECT_EQ(DrainRids(&engine), NaiveRids(spec)) << "session " << session;
    // The list spilled: each temp-table page it started was charged as a
    // page write (the pool holds the whole database, so nothing else is).
    EXPECT_GT(engine.CostSinceOpen().physical_writes, 0u)
        << "session " << session;
    EXPECT_EQ((*db)->page_count(), pages) << "session " << session;
    ASSERT_TRUE((*db)->Commit().ok());
    EXPECT_EQ((*db)->page_count(), pages) << "session " << session;
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(options);  // verify-on-open
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->page_count(), pages);
  IntegrityCheckOptions check;
  check.scan_all_pages = true;
  EXPECT_TRUE(CheckDatabase(db->get(), check).clean());
}

// Spill pages used to be dirty pool frames under an uncommitted epoch,
// which no eviction may write back, so a spill could fill a small pool of
// a file-backed database. The list's own pages take no frame.
TEST(DurabilityDatabaseTest, SpillingJscanRunsInASixFramePool) {
  DatabaseOptions options;
  options.path = TempPath("db_spill_small_pool.db");
  {
    auto db = CreateSpillDatabase(options);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Close().ok());
  }
  options.pool_pages = 6;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status();
  RetrievalSpec spec = SpillSpec(db->get());
  RetrievalOptions opt;
  opt.jscan.rid_list.memory_capacity = 64;
  QueryContext ctx;
  DynamicRetrieval engine(db->get(), spec, opt);
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  EXPECT_EQ(RowSet(DrainRows(&engine)), RowSet(NaiveRows(spec)));
  EXPECT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
  EXPECT_GT(ctx.spill_bytes(), 0u);  // the list spilled
  EXPECT_EQ((*db)->pool()->PinnedPages(), 0u);
}

// A commit logs the pool's dirty frames and records the store's page
// count. A live spilled list (an engine that stopped after one row keeps
// its Jscan until its next Open) used to add its pages to both, at every
// commit. Now two commits beside it log what the same two commits log on
// a twin database with no query open, and the page count matches.
TEST(DurabilityDatabaseTest, CommitBesideALiveSpillLogsOnlyItsOwnPages) {
  struct Commits {
    std::vector<uint64_t> records;  // WAL records each commit logged
    size_t pages = 0;               // the store's page count after them
  };
  // From a checkpoint, two commits of one new row each; `beside_spill`
  // first pulls one row from the spilling query and keeps it open.
  auto run = [](const std::string& name, bool beside_spill) {
    Commits out;
    DatabaseOptions options;
    options.path = TempPath(name);
    auto db = CreateSpillDatabase(options);
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return out;
    RetrievalSpec spec = SpillSpec(db->get());
    EXPECT_TRUE((*db)->Checkpoint().ok());
    RetrievalOptions opt;
    opt.jscan.rid_list.memory_capacity = 64;
    QueryContext ctx;
    DynamicRetrieval engine(db->get(), spec, opt);
    RowBatch first;
    if (beside_spill) {
      EXPECT_TRUE(engine.Open({}, &ctx).ok());
      auto more = engine.NextBatch(&first, 1);
      EXPECT_TRUE(more.ok() && *more);
      EXPECT_GT(ctx.spill_bytes(), 0u);  // the spilled list is alive
    }
    const MetricsRegistry& metrics = *(*db)->metrics();
    for (int64_t id : {1000000, 1000001}) {
      const uint64_t before = metrics.Value("wal.records");
      EXPECT_TRUE(spec.table
                      ->Insert(Record{id, int64_t{30}, int64_t{50000},
                                      std::string("city7"),
                                      std::string(300, 'p')})
                      .ok());
      EXPECT_TRUE((*db)->Commit().ok());
      out.records.push_back(metrics.Value("wal.records") - before);
    }
    out.pages = (*db)->page_count();
    if (beside_spill) {
      // The query still answers with the oracle's rows.
      std::vector<ResultRow> rows = DrainRows(&engine);
      rows.push_back(ResultRow{first.rid(0), {first.col(0).ValueAt(0),
                                              first.col(1).ValueAt(0)}});
      EXPECT_EQ(RowSet(rows), RowSet(NaiveRows(spec)));
    }
    return out;
  };
  const Commits control = run("db_spill_commit_control.db", false);
  const Commits beside = run("db_spill_commit.db", true);
  ASSERT_EQ(control.records.size(), 2u);
  EXPECT_EQ(beside.records, control.records);
  EXPECT_EQ(beside.pages, control.pages);
}

// A checkpoint must not drop a committed page that an open cursor pins.
// An execution that stops being pulled (as under a LIMIT or an EXISTS)
// keeps its Tscan's heap page pinned. The checkpoint cannot write that
// page back, so it keeps the log holding the page's committed image, and
// the file and log a crash would leave right after it open with every
// committed delete.
TEST(DurabilityDatabaseTest, CheckpointKeepsTheLogWhileAReaderPinsAPage) {
  const std::string path = TempPath("db_pinned_checkpoint.db");
  const std::string crashed = TempPath("db_pinned_checkpoint_crashed.db");
  DatabaseOptions options;
  options.path = path;
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto table = BuildFamilies(db->get(), 20000);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE((*db)->Checkpoint().ok());

  RetrievalSpec reader;
  reader.table = *table;
  reader.restriction = Predicate::Compare(
      0, CompareOp::kGe, Operand::Literal(Value(int64_t{10000})));
  reader.projection = {0};
  DynamicRetrieval engine(db->get(), reader);
  ASSERT_TRUE(engine.Open({}).ok());
  RowBatch batch;
  auto first = engine.NextBatch(&batch, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(*first);
  ASSERT_EQ((*db)->pool()->PinnedPages(), 1u);

  RetrievalSpec doomed;
  doomed.table = *table;
  doomed.restriction = Predicate::Between(
      0, Operand::Literal(Value(int64_t{10000})),
      Operand::Literal(Value(int64_t{10299})));
  for (const ResultRow& row : NaiveRows(doomed)) {
    ASSERT_TRUE((*table)->Delete(row.rid).ok());
  }
  ASSERT_TRUE((*db)->Commit().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  // What a crash at this moment leaves: the file and its log as they stand.
  for (const char* suffix : {"", ".wal"}) {
    std::filesystem::copy_file(
        path + suffix, crashed + suffix,
        std::filesystem::copy_options::overwrite_existing);
  }

  RetrievalSpec all;
  all.table = *table;
  all.projection = {0, 1, 2, 3};
  auto rows_of = [&all] {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    for (ResultRow& row : NaiveRows(all)) {
      rows.emplace_back(row.rid.ToU64(), std::move(row.values));
    }
    return rows;
  };
  const auto want = rows_of();
  ASSERT_EQ(want.size(), 19700u);
  DatabaseOptions crashed_options;
  crashed_options.path = crashed;
  auto reopened = Database::Open(crashed_options);  // verify-on-open
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto families = (*reopened)->GetTable("families");
  ASSERT_TRUE(families.ok()) << families.status();
  EXPECT_EQ((*families)->record_count(), 19700u);
  all.table = *families;
  EXPECT_EQ(rows_of(), want);
}

// ----------------------------------------------------------- Crash matrix

TEST(CrashMatrixTest, EveryPointRecoversToItsExpectedCommittedState) {
  for (CrashPoint point : kAllCrashPoints) {
    SCOPED_TRACE(std::string(CrashPointName(point)));
    CrashScenarioOptions options;
    options.path = TempPath("crash_matrix.db");
    options.rows = 600;
    options.extra_rows = 150;
    options.sessions = 2;
    options.queries_per_session = 10;
    auto result = RunCrashScenario(point, RecoveryPath::kRestart, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->crash_fired);
    EXPECT_EQ(static_cast<int>(result->outcome),
              static_cast<int>(ExpectedOutcome(point, RecoveryPath::kRestart)));
    if (point == CrashPoint::kWalTornWrite) {
      EXPECT_TRUE(result->recovery.torn_tail);
    }
  }
}

// A run that never crashed would pass vacuously, so a point that cannot
// fire where it is armed must be refused by name: the restart scenario
// runs unarchived, and neither path arms the standby.
TEST(CrashMatrixTest, PointsThatCannotFireAreRefusedByName) {
  const std::pair<CrashPoint, RecoveryPath> cases[] = {
      {CrashPoint::kArchiveAppend, RecoveryPath::kRestart},
      {CrashPoint::kStandbyApplySegment, RecoveryPath::kRestart},
      {CrashPoint::kStandbyApplySegment, RecoveryPath::kFailover},
      {CrashPoint::kPromoteBeforeSuperblock, RecoveryPath::kFailover},
  };
  for (const auto& [point, path] : cases) {
    const std::string name(CrashPointName(point));
    SCOPED_TRACE(name);
    CrashScenarioOptions options;
    options.path = TempPath("crash_vacuous.db");
    options.rows = 200;
    options.extra_rows = 50;
    options.sessions = 1;
    options.queries_per_session = 2;
    auto result = RunCrashScenario(point, path, options);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find(name), std::string::npos)
        << result.status();
  }
}

}  // namespace
}  // namespace dynopt
