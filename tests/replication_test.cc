// Replication-layer tests: WAL archiving round trips and recovery
// catch-up, sealed-history protection, point-in-time recovery against
// golden twins, warm-standby apply (idempotent under a hostile
// transport, crash-resumable), the failover crash matrix (acked commits
// survive promotion, unacked writes never resurrect, stale primaries
// fence), and log shipping under concurrent standby readers.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "durability/crash.h"
#include "durability/file_page_store.h"
#include "families.h"
#include "replication/archive.h"
#include "replication/log_shipper.h"
#include "replication/restore.h"
#include "replication/standby.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dynopt_" + name;
}

struct Primary {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

/// Fresh archived FAMILIES primary through its first commit. Small
/// segments so real workloads seal several.
Result<Primary> MakePrimary(const std::string& path,
                            const std::string& archive_dir, int64_t rows,
                            CrashController* crash = nullptr,
                            uint64_t segment_bytes = 16 * 1024) {
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = path;
  dbo.crash = crash;
  dbo.archive_dir = archive_dir;
  dbo.archive_segment_bytes = segment_bytes;
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Create(std::move(dbo)));
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildFamilies(db.get(), rows, 42));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  DYNOPT_RETURN_IF_ERROR(db->Commit());
  return Primary{std::move(db), table};
}

uint64_t MustHash(Database* db, Table* table) {
  auto h = WorkloadResultHash(db, table, 2, 10, 99);
  EXPECT_TRUE(h.ok()) << h.status();
  return h.ok() ? *h : 0;
}

Result<std::string> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

Status DumpFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

/// Page-level equality between two database files (superblock seq and
/// file length may legitimately differ between a restored clone and its
/// golden twin; the pages must not).
void ExpectPagesEqual(const std::string& got_path,
                      const std::string& want_path) {
  auto got = FilePageStore::Open(got_path);
  auto want = FilePageStore::Open(want_path);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ((*got)->page_count(), (*want)->page_count());
  for (PageId p = 0; p < (*want)->page_count(); ++p) {
    PageData a, b;
    ASSERT_TRUE((*got)->Read(p, &a).ok()) << "page " << p;
    ASSERT_TRUE((*want)->Read(p, &b).ok()) << "page " << p;
    ASSERT_EQ(std::memcmp(a.data(), b.data(), kPageSize), 0) << "page " << p;
  }
}

// --------------------------------------------------------------- Archive

TEST(ReplicationArchiveTest, RoundTripSealsSegmentsAndTracksWal) {
  const std::string path = TempPath("repl_roundtrip.db");
  const std::string dir = TempPath("repl_roundtrip.archive");
  auto p = MakePrimary(path, dir, 400);
  ASSERT_TRUE(p.ok()) << p.status();
  // Several more commit batches, each past the segment threshold, so the
  // archive seals a run of segments (a single batch seals as one).
  int64_t rows = 400;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(InsertScenarioRows(p->table, rows, 50).ok());
    rows += 50;
    ASSERT_TRUE(p->db->Commit().ok());
  }

  WalArchiveReader reader(dir);
  auto manifest = reader.ReadManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->timeline, 1u);
  ASSERT_GT(manifest->segments.size(), 1u)
      << "expected the build to seal several 16 KiB segments";
  uint64_t prev_end = 0;
  for (const ArchiveSegmentInfo& seg : manifest->segments) {
    EXPECT_EQ(seg.start_lsn, prev_end + 1) << "sealed history must be dense";
    EXPECT_GE(seg.end_lsn, seg.start_lsn);
    prev_end = seg.end_lsn;
  }
  EXPECT_EQ(manifest->sealed_through_lsn, prev_end);

  auto durable = reader.DurableEndLsn();
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ(*durable, p->db->archive()->durable_end_lsn());
  EXPECT_GE(*durable, manifest->sealed_through_lsn);

  // Every sealed segment verifies and replays from its manifest entry.
  for (const ArchiveSegmentInfo& seg : manifest->segments) {
    auto bytes = reader.ReadSealedSegment(*manifest, seg);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
  }

  // Reopen (recovery) and keep committing: the archive sequence continues
  // without a gap across the restart.
  p->db.reset();
  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = path;
  dbo.archive_dir = dir;
  dbo.archive_segment_bytes = 16 * 1024;
  auto reopened = Database::Open(std::move(dbo));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto table = (*reopened)->GetTable("families");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE(InsertScenarioRows(*table, rows, 50).ok());
  ASSERT_TRUE((*reopened)->Commit().ok());
  auto durable2 = reader.DurableEndLsn();
  ASSERT_TRUE(durable2.ok()) << durable2.status();
  EXPECT_GT(*durable2, *durable);
}

// A base image is a copy of the checkpointed file. While a reader pins a
// committed page the checkpoint could not write back, the file lacks that
// page's newest image, so the archive refuses the copy, typed; once the
// pin is gone the next attempt succeeds.
TEST(ReplicationArchiveTest, BaseImageRefusedWhileAReaderPinsACommittedPage) {
  const std::string path = TempPath("repl_pinned_base.db");
  const std::string dir = TempPath("repl_pinned_base.archive");
  auto p = MakePrimary(path, dir, 400);
  ASSERT_TRUE(p.ok()) << p.status();
  {
    RetrievalSpec spec;
    spec.table = p->table;
    spec.projection = {0};
    RetrievalOptions opt;
    opt.batch_size = 1;  // the Tscan stops on the first row's page
    DynamicRetrieval engine(p->db.get(), spec, opt);
    ASSERT_TRUE(engine.Open({}).ok());
    RowBatch batch;
    auto first = engine.NextBatch(&batch, 1);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(*first);
    ASSERT_TRUE(p->table->Delete(batch.rid(0)).ok());  // dirties that page
    ASSERT_TRUE(p->db->Commit().ok());
    EXPECT_TRUE(p->db->ArchiveBaseImage().IsNotSupported());
  }
  EXPECT_TRUE(p->db->ArchiveBaseImage().ok());
}

TEST(ReplicationArchiveTest, RecoveryReArchivesTheUnshippedTail) {
  const std::string path = TempPath("repl_rearchive.db");
  const std::string dir = TempPath("repl_rearchive.archive");
  CrashController crash;
  auto p = MakePrimary(path, dir, 200, &crash);
  ASSERT_TRUE(p.ok()) << p.status();

  WalArchiveReader reader(dir);
  auto before = reader.DurableEndLsn();
  ASSERT_TRUE(before.ok()) << before.status();

  // Crash between the WAL fsync and the archive append: the commit is
  // WAL-durable but the archive never saw its batch.
  crash.Arm(CrashPoint::kArchiveAppend);
  ASSERT_TRUE(InsertScenarioRows(p->table, 200, 60).ok());
  Status st = p->db->Commit();
  ASSERT_FALSE(st.ok());
  ASSERT_TRUE(crash.crashed());
  p->db.reset();
  auto unchanged = reader.DurableEndLsn();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, *before) << "crashed append must not advance durable";

  // Local recovery replays the commit (it was WAL-durable) and must
  // re-append the missing suffix so the standby can reach POST too.
  RecoveryStats stats;
  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = path;
  dbo.archive_dir = dir;
  dbo.archive_segment_bytes = 16 * 1024;
  auto reopened = Database::Open(std::move(dbo), &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT(stats.records_rearchived, 0u);
  auto table = (*reopened)->GetTable("families");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->record_count(), 260u);

  auto after = reader.DurableEndLsn();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);

  // A standby reading only the archive reaches the recovered state.
  StandbyOptions so;
  so.path = TempPath("repl_rearchive.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  auto applied = (*standby)->CatchUp();
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, *after);
  auto view = (*standby)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  auto stable = view->db()->GetTable("families");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ((*stable)->record_count(), 260u);
  EXPECT_EQ(MustHash(view->db(), *stable), MustHash(reopened->get(), *table));
}

/// The archived primary at `path` reopened after a crash, with the
/// archive options MakePrimary gave it.
Result<std::unique_ptr<Database>> ReopenPrimary(const std::string& path,
                                                const std::string& dir,
                                                uint64_t segment_bytes,
                                                RecoveryStats* stats) {
  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = path;
  dbo.archive_dir = dir;
  dbo.archive_segment_bytes = segment_bytes;
  return Database::Open(std::move(dbo), stats);
}

/// Catches a fresh standby up from `dir` and returns the hash of its rows.
uint64_t StandbyHash(const std::string& name, const std::string& dir) {
  StandbyOptions so;
  so.path = TempPath(name);
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  EXPECT_TRUE(standby.ok()) << standby.status();
  if (!standby.ok()) return 0;
  auto applied = (*standby)->CatchUp();
  EXPECT_TRUE(applied.ok()) << applied.status();
  auto view = (*standby)->BeginRead();
  EXPECT_TRUE(view.ok()) << view.status();
  if (!view.ok()) return 0;
  auto table = view->db()->GetTable("families");
  EXPECT_TRUE(table.ok());
  return table.ok() ? MustHash(view->db(), *table) : 0;
}

// A primary that crashed mid-segment reattaches to its unsealed current
// segment on reopen: the stray bytes after the last whole record are cut
// off, the next commit continues the LSN sequence in the same file, and a
// standby reading the archive reproduces the primary's rows.
TEST(ReplicationArchiveTest, ReopenCutsTheTornTailOfTheUnsealedSegment) {
  const std::string path = TempPath("repl_reattach.db");
  const std::string dir = TempPath("repl_reattach.archive");
  constexpr uint64_t kSegmentBytes = 64 << 20;  // nothing ever seals
  auto p = MakePrimary(path, dir, 200, nullptr, kSegmentBytes);
  ASSERT_TRUE(p.ok()) << p.status();
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(InsertScenarioRows(p->table, 200 + 10 * i, 10).ok());
    ASSERT_TRUE(p->db->Commit().ok());
  }
  WalArchiveReader reader(dir);
  auto manifest = reader.ReadManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(manifest->sealed_through_lsn, 0u);
  const std::string seg = dir + "/" + ArchiveSegmentFileName(1);
  auto records = SlurpFile(seg);
  ASSERT_TRUE(records.ok()) << records.status();
  auto end = reader.DurableEndLsn();
  ASSERT_TRUE(end.ok()) << end.status();

  // The database goes without Close, and the segment ends in bytes that
  // belong to no record.
  p->db.reset();
  ASSERT_TRUE(DumpFile(seg, *records + std::string(37, '\xab')).ok());
  RecoveryStats stats;
  auto reopened = ReopenPrimary(path, dir, kSegmentBytes, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(stats.records_rearchived, 0u);
  auto cut = SlurpFile(seg);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(*cut, *records);

  auto table = (*reopened)->GetTable("families");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(InsertScenarioRows(*table, 230, 10).ok());
  ASSERT_TRUE((*reopened)->Commit().ok());
  auto grown = SlurpFile(seg);
  ASSERT_TRUE(grown.ok());
  uint64_t scanned = 0;
  uint64_t last = 0;
  size_t valid = 0;
  bool torn = true;
  ASSERT_TRUE(WalScanRecords(
                  std::string_view(*grown).substr(kArchiveSegmentHeaderSize),
                  1,
                  [&](const WalRecordView& rec) {
                    ++scanned;
                    last = rec.lsn;
                    return Status::OK();
                  },
                  &valid, &torn)
                  .ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(kArchiveSegmentHeaderSize + valid, grown->size());
  EXPECT_EQ(scanned, last);  // dense from LSN 1
  EXPECT_GT(last, *end);
  auto new_end = reader.DurableEndLsn();
  ASSERT_TRUE(new_end.ok());
  EXPECT_EQ(*new_end, last);

  EXPECT_EQ((*table)->record_count(), 240u);
  EXPECT_EQ(StandbyHash("repl_reattach.standby", dir),
            MustHash(reopened->get(), *table));
}

// A crash inside the first append to a fresh segment leaves a torn header,
// or a whole header and no whole record: no record in the file is durable,
// so reattaching removes it, and recovery re-archives the commit from the
// WAL.
TEST(ReplicationArchiveTest, ReopenRemovesAnUnsealedSegmentWithNoRecord) {
  constexpr uint64_t kSegmentBytes = 128 * 1024;  // a few commits each
  for (size_t keep : {size_t{20}, kArchiveSegmentHeaderSize + 5}) {
    SCOPED_TRACE(keep);
    const std::string path = TempPath("repl_norecord.db");
    const std::string dir = TempPath("repl_norecord.archive");
    auto p = MakePrimary(path, dir, 200, nullptr, kSegmentBytes);
    ASSERT_TRUE(p.ok()) << p.status();
    // Commit until an append seals the current segment, then once more:
    // the current segment holds that one commit.
    WalArchiveReader reader(dir);
    for (int64_t row = 200;; ++row) {
      auto manifest = reader.ReadManifest();
      ASSERT_TRUE(manifest.ok()) << manifest.status();
      auto tail = reader.ReadCurrentTail(*manifest);
      ASSERT_TRUE(tail.ok()) << tail.status();
      ASSERT_TRUE(InsertScenarioRows(p->table, row, 1).ok());
      ASSERT_TRUE(p->db->Commit().ok());
      if (tail->empty()) break;
      ASSERT_LT(row, 300);
    }
    auto manifest = reader.ReadManifest();
    ASSERT_TRUE(manifest.ok());
    const std::string seg =
        dir + "/" + ArchiveSegmentFileName(manifest->sealed_through_lsn + 1);
    auto bytes = SlurpFile(seg);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    ASSERT_GT(bytes->size(), kArchiveSegmentHeaderSize + 5);
    uint64_t primary = MustHash(p->db.get(), p->table);
    p->db.reset();
    ASSERT_TRUE(DumpFile(seg, bytes->substr(0, keep)).ok());

    auto archive = WalArchive::Open(dir, {.segment_bytes = kSegmentBytes});
    ASSERT_TRUE(archive.ok()) << archive.status();
    EXPECT_NE(::access(seg.c_str(), F_OK), 0);
    archive->reset();

    RecoveryStats stats;
    auto reopened = ReopenPrimary(path, dir, kSegmentBytes, &stats);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_GT(stats.records_rearchived, 0u);
    EXPECT_EQ(StandbyHash("repl_norecord.standby", dir), primary);
  }
}

TEST(ReplicationArchiveTest, SealedHistoryCorruptionIsRefusedTyped) {
  const std::string path = TempPath("repl_sealedfloor.db");
  const std::string dir = TempPath("repl_sealedfloor.archive");
  {
    auto p = MakePrimary(path, dir, 300);
    ASSERT_TRUE(p.ok()) << p.status();
    p->db.reset();
  }
  WalArchiveReader reader(dir);
  auto manifest = reader.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(manifest->sealed_through_lsn, 0u);

  // Mid-log damage at or below the archive's sealed floor: the manifest
  // says those records are sealed history, so Open must refuse with a
  // typed Corruption instead of silently truncating them as a torn tail.
  auto wal_bytes = SlurpFile(path + ".wal");
  ASSERT_TRUE(wal_bytes.ok()) << wal_bytes.status();
  ASSERT_GT(wal_bytes->size(), 64u);
  ASSERT_TRUE(DumpFile(path + ".wal", wal_bytes->substr(0, 40)).ok());
  {
    DatabaseOptions dbo;
    dbo.pool_pages = 512;
    dbo.path = path;
    dbo.archive_dir = dir;
    auto reopened = Database::Open(std::move(dbo));
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
    EXPECT_NE(reopened.status().ToString().find("sealed"), std::string::npos)
        << reopened.status();
  }

  // A tear strictly beyond the archived history stays benign: restore the
  // log, append garbage, and Open recovers by truncating the tail.
  ASSERT_TRUE(DumpFile(path + ".wal", *wal_bytes + "torn-garbage").ok());
  {
    DatabaseOptions dbo;
    dbo.pool_pages = 512;
    dbo.path = path;
    dbo.archive_dir = dir;
    RecoveryStats stats;
    auto reopened = Database::Open(std::move(dbo), &stats);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_TRUE(stats.torn_tail);
  }
}

// ------------------------------------------------------------------ PITR

TEST(ReplicationPitrTest, RestoreAtSampledLsnsIsByteIdenticalToGoldenTwins) {
  const std::string path = TempPath("repl_pitr.db");
  const std::string dir = TempPath("repl_pitr.archive");
  auto p = MakePrimary(path, dir, 250);
  ASSERT_TRUE(p.ok()) << p.status();
  WalArchiveReader reader(dir);

  // Three committed stages; after each, checkpoint and snapshot the file
  // as the golden twin for that LSN. Stage 2 also archives a base image,
  // so the last restore exercises base + incremental replay.
  std::vector<uint64_t> lsns;
  std::vector<std::string> goldens;
  int64_t rows = 250;
  for (int stage = 0; stage < 3; ++stage) {
    if (stage > 0) {
      ASSERT_TRUE(InsertScenarioRows(p->table, rows, 80).ok());
      rows += 80;
      ASSERT_TRUE(p->db->Commit().ok());
    }
    ASSERT_TRUE(p->db->Checkpoint().ok());
    auto lsn = reader.DurableEndLsn();
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    lsns.push_back(*lsn);
    auto bytes = SlurpFile(path);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    goldens.push_back(TempPath("repl_pitr.golden" + std::to_string(stage)));
    ASSERT_TRUE(DumpFile(goldens.back(), *bytes).ok());
    if (stage == 1) {
      ASSERT_TRUE(p->db->ArchiveBaseImage().ok());
    }
  }

  for (size_t i = 0; i < lsns.size(); ++i) {
    const std::string dest =
        TempPath("repl_pitr.restored" + std::to_string(i));
    auto report = RestoreToLsn(dir, lsns[i], dest);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->restored_lsn, lsns[i]);
    if (i == 2) {
      EXPECT_GT(report->base_lsn, 0u)
          << "the stage-1 base image should seed the newest restore";
    }
    ExpectPagesEqual(dest, goldens[i]);

    // The clone opens detached (timeline 0, no archive) and answers
    // queries for the state as of its LSN.
    DatabaseOptions dbo;
    dbo.pool_pages = 512;
    dbo.path = dest;
    auto clone = Database::Open(std::move(dbo));
    ASSERT_TRUE(clone.ok()) << clone.status();
    auto table = (*clone)->GetTable("families");
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ((*table)->record_count(), 250u + 80u * i);
  }
}

TEST(ReplicationPitrTest, GapsAndDamageFailTypedNamingTheSegment) {
  const std::string path = TempPath("repl_pitrgap.db");
  const std::string dir = TempPath("repl_pitrgap.archive");
  {
    auto p = MakePrimary(path, dir, 300);
    ASSERT_TRUE(p.ok()) << p.status();
    int64_t rows = 300;
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(InsertScenarioRows(p->table, rows, 60).ok());
      rows += 60;
      ASSERT_TRUE(p->db->Commit().ok());
    }
    p->db.reset();
  }
  WalArchiveReader reader(dir);
  auto manifest = reader.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(manifest->segments.size(), 1u);
  auto durable = reader.DurableEndLsn();
  ASSERT_TRUE(durable.ok());
  const std::string dest = TempPath("repl_pitrgap.restored");

  EXPECT_TRUE(RestoreToLsn(dir, 0, dest).status().IsInvalidArgument());
  auto beyond = RestoreToLsn(dir, *durable + 10, dest);
  ASSERT_FALSE(beyond.ok());
  EXPECT_TRUE(beyond.status().IsNotFound()) << beyond.status();

  // Flip one record byte inside a sealed segment: typed Corruption that
  // names the damaged segment.
  const ArchiveSegmentInfo& victim = manifest->segments[0];
  const std::string victim_path = dir + "/" +
                                  ArchiveSegmentFileName(victim.start_lsn);
  auto seg_bytes = SlurpFile(victim_path);
  ASSERT_TRUE(seg_bytes.ok()) << seg_bytes.status();
  std::string damaged = *seg_bytes;
  damaged[kArchiveSegmentHeaderSize + 8] ^= 0x40;
  ASSERT_TRUE(DumpFile(victim_path, damaged).ok());
  auto corrupt = RestoreToLsn(dir, *durable, dest);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_TRUE(corrupt.status().IsCorruption()) << corrupt.status();
  EXPECT_NE(corrupt.status().ToString().find(
                ArchiveSegmentFileName(victim.start_lsn)),
            std::string::npos)
      << corrupt.status();

  // Remove it outright: a typed gap naming the unrecoverable LSN range.
  ASSERT_EQ(::unlink(victim_path.c_str()), 0);
  auto missing = RestoreToLsn(dir, *durable, dest);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
  EXPECT_NE(missing.status().ToString().find("archive gap"),
            std::string::npos)
      << missing.status();
}

// --------------------------------------------------------------- Standby

TEST(StandbyApplyTest, CatchUpServesSnapshotConsistentReads) {
  const std::string path = TempPath("standby_reads.db");
  const std::string dir = TempPath("standby_reads.archive");
  auto p = MakePrimary(path, dir, 350);
  ASSERT_TRUE(p.ok()) << p.status();
  const uint64_t h1 = MustHash(p->db.get(), p->table);

  StandbyOptions so;
  so.path = TempPath("standby_reads.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();

  // Before any apply there is nothing to read — typed, not a crash.
  EXPECT_TRUE((*standby)->BeginRead().status().IsNotFound());

  WalArchiveReader reader(dir);
  auto durable = reader.DurableEndLsn();
  ASSERT_TRUE(durable.ok());
  auto applied = (*standby)->CatchUp();
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, *durable);
  {
    auto view = (*standby)->BeginRead();
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_EQ(view->lsn(), *durable);
    auto table = view->db()->GetTable("families");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(MustHash(view->db(), *table), h1);
    // The standby is read-only: mutations fail typed, and readers cannot
    // desynchronize the page watermark by allocating.
    EXPECT_TRUE(view->db()->Commit().IsNotSupported());
    EXPECT_TRUE(view->db()->pool()->NewPage().status().IsNotSupported());
  }

  // The primary moves on; another catch-up tracks it exactly.
  ASSERT_TRUE(InsertScenarioRows(p->table, 350, 70).ok());
  ASSERT_TRUE(p->db->Commit().ok());
  const uint64_t h2 = MustHash(p->db.get(), p->table);
  ASSERT_NE(h1, h2);
  ASSERT_TRUE((*standby)->CatchUp().ok());
  {
    auto view = (*standby)->BeginRead();
    ASSERT_TRUE(view.ok());
    auto table = view->db()->GetTable("families");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->record_count(), 420u);
    EXPECT_EQ(MustHash(view->db(), *table), h2);
  }
  EXPECT_EQ((*standby)->store()->page_count(), 0u + p->db->page_count());

  // Restart resumes from the superblock without replaying history.
  uint64_t before_restart = (*standby)->applied_lsn();
  std::string standby_path = (*standby)->path();
  standby->reset();
  StandbyOptions so2;
  so2.path = standby_path;
  auto resumed = StandbyDatabase::Open(std::move(so2), dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->applied_lsn(), before_restart);
  auto view = (*resumed)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  auto table = view->db()->GetTable("families");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(MustHash(view->db(), *table), h2);
}

// A standby's pool refuses page allocation, and a spilled RID list used to
// take its pages from the pool, so every standby query whose Jscan list
// passed the 4,096-RID memory region failed. The list now keeps its own
// overflow: `id < 6000` over by_id (a background-only Jscan whose 6,000-RID
// list spills) answers on the standby with the primary's rows.
TEST(StandbyReadTest, SpillingJscanAnswersLikeThePrimary) {
  const std::string dir = TempPath("standby_spill.archive");
  DatabaseOptions dbo;
  dbo.path = TempPath("standby_spill.db");
  dbo.archive_dir = dir;
  auto primary = CreateSpillDatabase(std::move(dbo));
  ASSERT_TRUE(primary.ok()) << primary.status();

  StandbyOptions so;
  so.path = TempPath("standby_spill.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  ASSERT_TRUE((*standby)->CatchUp().ok());
  auto view = (*standby)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  const size_t pages = (*standby)->store()->page_count();

  auto answer = [](Database* db) {
    RetrievalSpec spec = SpillSpec(db);
    DynamicRetrieval engine(db, spec);
    Status opened = engine.Open({});
    EXPECT_TRUE(opened.ok()) << opened;
    std::multiset<std::string> rows = RowSet(DrainRows(&engine));
    EXPECT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
    // Its final list spilled: each temp-table page was charged as a write.
    EXPECT_GT(engine.CostSinceOpen().physical_writes, 0u);
    EXPECT_EQ(rows, RowSet(NaiveRows(spec)));
    return rows;
  };
  const std::multiset<std::string> on_standby = answer(view->db());
  EXPECT_EQ(on_standby.size(), 6000u);
  EXPECT_EQ(answer(primary->get()), on_standby);
  // The read allocated nothing on the standby.
  EXPECT_EQ((*standby)->store()->page_count(), pages);
}

TEST(StandbyChaosTest, HostileTransportAppliesIdempotentlyOrFailsTyped) {
  const std::string path = TempPath("standby_chaos.db");
  const std::string dir = TempPath("standby_chaos.archive");
  auto p = MakePrimary(path, dir, 400, nullptr, 8 * 1024);
  ASSERT_TRUE(p.ok()) << p.status();
  const uint64_t h1 = MustHash(p->db.get(), p->table);

  StandbyOptions so;
  so.path = TempPath("standby_chaos.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();

  LogShipperOptions lo;
  lo.faults.seed = 7;
  lo.faults.delay_p = 0.2;
  lo.faults.delay_micros = 20;
  lo.faults.duplicate_p = 0.5;
  lo.faults.reorder_p = 0.5;
  lo.faults.truncate_p = 0.4;
  lo.faults.corrupt_p = 0.4;
  LogShipper shipper(dir, standby->get(), lo);
  auto applied = shipper.PumpUntilCaughtUp();
  ASSERT_TRUE(applied.ok()) << applied.status();

  const ShipperStats& stats = shipper.stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.typed_rejections, 0u)
      << "destructive faults must surface as typed refusals";
  EXPECT_EQ(stats.typed_rejections, stats.redeliveries)
      << "every typed refusal is followed by exactly one clean redelivery";
  EXPECT_GT(stats.duplicated + stats.reordered + stats.truncated +
                stats.corrupted,
            0u);

  auto view = (*standby)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  auto table = view->db()->GetTable("families");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(MustHash(view->db(), *table), h1);
  EXPECT_EQ((*standby)->metrics()->Value("replication.corrupt_deliveries"),
            stats.truncated + stats.corrupted);
  EXPECT_EQ(view->db()->pool()->PinnedPages(), 0u) << "leaked pins";
}

TEST(StandbyCrashTest, CrashDuringApplyResumesHashEqual) {
  const std::string path = TempPath("standby_crash.db");
  const std::string dir = TempPath("standby_crash.archive");
  auto p = MakePrimary(path, dir, 300);
  ASSERT_TRUE(p.ok()) << p.status();
  const uint64_t h1 = MustHash(p->db.get(), p->table);

  const std::string standby_path = TempPath("standby_crash.standby");
  ::unlink(standby_path.c_str());
  CrashController crash;
  {
    StandbyOptions so;
    so.path = standby_path;
    so.crash = &crash;
    auto standby = StandbyDatabase::Open(std::move(so), dir);
    ASSERT_TRUE(standby.ok()) << standby.status();
    crash.Arm(CrashPoint::kStandbyApplySegment);
    // Dies with pages written but the superblock not yet advanced.
    ASSERT_FALSE((*standby)->CatchUp().ok());
    ASSERT_TRUE(crash.crashed());
  }

  // Reopen: resume from the stale replay LSN and re-apply idempotently.
  StandbyOptions so;
  so.path = standby_path;
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  WalArchiveReader reader(dir);
  auto durable = reader.DurableEndLsn();
  ASSERT_TRUE(durable.ok());
  auto applied = (*standby)->CatchUp();
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, *durable);
  auto view = (*standby)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  auto table = view->db()->GetTable("families");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(MustHash(view->db(), *table), h1);
}

TEST(StandbyCrashTest, CrashDuringPromoteIsRerunnable) {
  const std::string path = TempPath("standby_promote.db");
  const std::string dir = TempPath("standby_promote.archive");
  auto p = MakePrimary(path, dir, 250);
  ASSERT_TRUE(p.ok()) << p.status();
  const uint64_t h1 = MustHash(p->db.get(), p->table);
  p->db.reset();  // the primary is gone; failover begins

  const std::string standby_path = TempPath("standby_promote.standby");
  ::unlink(standby_path.c_str());
  CrashController crash;
  {
    StandbyOptions so;
    so.path = standby_path;
    so.crash = &crash;
    auto standby = StandbyDatabase::Open(std::move(so), dir);
    ASSERT_TRUE(standby.ok()) << standby.status();
    ASSERT_TRUE((*standby)->CatchUp().ok());
    // Dies with the archive fenced onto timeline 2 but the standby's
    // superblock still stamped timeline 1.
    crash.Arm(CrashPoint::kPromoteBeforeSuperblock);
    ASSERT_FALSE((*standby)->Promote().ok());
    ASSERT_TRUE(crash.crashed());
  }

  // Rerunning the promote finds the fence already in place (idempotent)
  // and finishes the superblock.
  StandbyOptions so;
  so.path = standby_path;
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  auto promo = (*standby)->Promote();
  ASSERT_TRUE(promo.ok()) << promo.status();
  EXPECT_EQ(promo->new_timeline, 2u);
  standby->reset();

  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = standby_path;
  dbo.archive_dir = dir;
  auto promoted = Database::Open(std::move(dbo));
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  auto table = (*promoted)->GetTable("families");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(MustHash(promoted->get(), *table), h1);
  // And the new timeline accepts fresh commits.
  ASSERT_TRUE(InsertScenarioRows(*table, 250, 40).ok());
  EXPECT_TRUE((*promoted)->Commit().ok());
}

TEST(StandbyFenceTest, StalePrimaryAppendAndReopenFailFenced) {
  const std::string path = TempPath("standby_fence.db");
  const std::string dir = TempPath("standby_fence.archive");
  auto p = MakePrimary(path, dir, 200);
  ASSERT_TRUE(p.ok()) << p.status();

  StandbyOptions so;
  so.path = TempPath("standby_fence.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  ASSERT_TRUE((*standby)->CatchUp().ok());
  auto promo = (*standby)->Promote();
  ASSERT_TRUE(promo.ok()) << promo.status();

  // The old primary is still running but belongs to a dead timeline: its
  // next commit must fail typed at the archive append, never ack.
  ASSERT_TRUE(InsertScenarioRows(p->table, 200, 10).ok());
  Status st = p->db->Commit();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFenced()) << st;
  EXPECT_GT(p->db->metrics()->Value("replication.fence_rejections"), 0u);
  p->db.reset();

  // Reopening the stale file against the fenced archive fails typed too.
  DatabaseOptions dbo;
  dbo.pool_pages = 512;
  dbo.path = path;
  dbo.archive_dir = dir;
  auto reopened = Database::Open(std::move(dbo));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsFenced()) << reopened.status();
}

// -------------------------------------------------------------- Failover

TEST(FailoverMatrixTest, EveryPointPromotesExactlyTheAckedState) {
  CrashScenarioOptions options;
  options.path = TempPath("failover_matrix.db");
  options.rows = 300;
  options.extra_rows = 120;
  options.sessions = 2;
  options.queries_per_session = 8;
  options.pool_pages = 512;
  options.archive_segment_bytes = 32 * 1024;
  for (CrashPoint point : kFailoverCrashPoints) {
    auto res = RunCrashScenario(point, RecoveryPath::kFailover, options);
    ASSERT_TRUE(res.ok()) << CrashPointName(point) << ": " << res.status();
    EXPECT_TRUE(res->crash_fired) << CrashPointName(point);
    EXPECT_EQ(res->outcome, ExpectedOutcome(point, RecoveryPath::kFailover))
        << CrashPointName(point);
    EXPECT_TRUE(res->stale_primary_fenced) << CrashPointName(point);
    EXPECT_EQ(res->new_timeline, 2u) << CrashPointName(point);
    EXPECT_GT(res->failover_micros, 0u) << CrashPointName(point);
  }
}

TEST(FailoverMatrixTest, SurvivesAHostileTransportDuringCatchUp) {
  CrashScenarioOptions options;
  options.path = TempPath("failover_chaos.db");
  options.rows = 300;
  options.extra_rows = 120;
  options.sessions = 2;
  options.queries_per_session = 8;
  options.pool_pages = 512;
  options.archive_segment_bytes = 8 * 1024;
  options.faults.seed = 11;
  options.faults.duplicate_p = 0.5;
  options.faults.reorder_p = 0.5;
  options.faults.truncate_p = 0.4;
  options.faults.corrupt_p = 0.4;
  auto res = RunCrashScenario(CrashPoint::kCheckpointBeforeSuperblock,
                              RecoveryPath::kFailover, options);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->outcome, CrashOutcome::kPostState);
  EXPECT_GT(res->shipping.faults_injected, 0u);
  EXPECT_TRUE(res->stale_primary_fenced);
}

// ----------------------------------------------------------- Concurrency

TEST(StandbyConcurrencyTest, LogShipsUnderConcurrentStandbyReads) {
  const std::string path = TempPath("standby_conc.db");
  const std::string dir = TempPath("standby_conc.archive");
  auto p = MakePrimary(path, dir, 200, nullptr, 8 * 1024);
  ASSERT_TRUE(p.ok()) << p.status();

  StandbyOptions so;
  so.path = TempPath("standby_conc.standby");
  ::unlink(so.path.c_str());
  auto standby = StandbyDatabase::Open(std::move(so), dir);
  ASSERT_TRUE(standby.ok()) << standby.status();
  LogShipper shipper(dir, standby->get(), LogShipperOptions());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    int64_t rows = 200;
    for (int round = 0; round < 10 && !failed.load(); ++round) {
      if (!InsertScenarioRows(p->table, rows, 25).ok() ||
          !p->db->Commit().ok()) {
        failed.store(true);
        break;
      }
      rows += 25;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true, std::memory_order_release);
  });
  std::thread pumper([&] {
    while (!done.load(std::memory_order_acquire) && !failed.load()) {
      if (!shipper.Pump().ok()) {
        failed.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t reads = 0;
      while (!done.load(std::memory_order_acquire) && !failed.load()) {
        auto view = (*standby)->BeginRead();
        if (!view.ok()) continue;  // nothing applied yet
        auto table = view->db()->GetTable("families");
        // The applied prefix may predate the table (bootstrap commit only).
        if (!table.ok()) continue;
        if ((*table)->record_count() < 200) {
          failed.store(true);  // the table was created fully populated
          break;
        }
        auto h = WorkloadResultHash(view->db(), *table, 1, 2, 5 + reads);
        if (!h.ok()) {
          failed.store(true);
          break;
        }
        ++reads;
      }
    });
  }
  writer.join();
  pumper.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  auto applied = shipper.PumpUntilCaughtUp();
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto view = (*standby)->BeginRead();
  ASSERT_TRUE(view.ok()) << view.status();
  auto stable = view->db()->GetTable("families");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ((*stable)->record_count(), 450u);
  EXPECT_EQ(MustHash(view->db(), *stable), MustHash(p->db.get(), p->table));
  EXPECT_EQ(view->db()->pool()->PinnedPages(), 0u) << "leaked pins";
}

}  // namespace
}  // namespace dynopt
