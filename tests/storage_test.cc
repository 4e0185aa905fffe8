#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "util/rng.h"

namespace dynopt {
namespace {

// ------------------------------------------------------------------ Rid

TEST(RidTest, PackUnpackRoundTrip) {
  Rid r;
  r.page = 123456;
  r.slot = 789;
  Rid back = Rid::FromU64(r.ToU64());
  EXPECT_EQ(back, r);
}

TEST(RidTest, OrderingFollowsPageThenSlot) {
  Rid a{1, 5}, b{2, 0}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a.ToU64(), b.ToU64());  // packed order matches struct order
  EXPECT_LT(b.ToU64(), c.ToU64());
}

TEST(RidTest, InvalidByDefault) {
  Rid r;
  EXPECT_FALSE(r.valid());
}

// ------------------------------------------------------------ PageStore

TEST(PageStoreTest, AllocateReadWrite) {
  MemPageStore store;
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  EXPECT_NE(a, b);
  PageData page;
  page.fill(7);
  ASSERT_TRUE(store.Write(a, page).ok());
  PageData out;
  ASSERT_TRUE(store.Read(a, &out).ok());
  EXPECT_EQ(out[100], 7);
  ASSERT_TRUE(store.Read(b, &out).ok());
  EXPECT_EQ(out[100], 0);  // fresh pages are zeroed
}

TEST(PageStoreTest, OutOfRangeIsIOError) {
  MemPageStore store;
  PageData page;
  EXPECT_TRUE(store.Read(5, &page).IsIOError());
  EXPECT_TRUE(store.Write(5, page).IsIOError());
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPoolTest, HitCostsLogicalMissCostsPhysical) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 4, &meter);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId id = page->id();
  page->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.EvictAll().ok());

  CostMeter before = meter;
  ASSERT_TRUE(pool.Pin(id).ok());  // miss
  CostMeter after_miss = meter - before;
  EXPECT_EQ(after_miss.physical_reads, 1u);
  EXPECT_EQ(after_miss.logical_reads, 1u);

  before = meter;
  ASSERT_TRUE(pool.Pin(id).ok());  // hit
  CostMeter after_hit = meter - before;
  EXPECT_EQ(after_hit.physical_reads, 0u);
  EXPECT_EQ(after_hit.logical_reads, 1u);
}

TEST(BufferPoolTest, WritesSurviveEviction) {
  MemPageStore store;
  BufferPool pool(&store, 2);
  PageId id;
  {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->mutable_data()[42] = 99;
  }
  // Force eviction by cycling more pages than capacity.
  for (int i = 0; i < 5; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok());
  }
  auto back = pool.Pin(id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data()[42], 99);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 2, &meter);
  PageId a, b;
  {
    auto pa = pool.NewPage();
    ASSERT_TRUE(pa.ok());
    a = pa->id();
  }
  {
    auto pb = pool.NewPage();
    ASSERT_TRUE(pb.ok());
    b = pb->id();
  }
  // Touch `a` so `b` is the LRU victim.
  pool.Pin(a).ok();
  {
    auto pc = pool.NewPage();  // evicts b
    ASSERT_TRUE(pc.ok());
  }
  CostMeter before = meter;
  ASSERT_TRUE(pool.Pin(a).ok());
  EXPECT_EQ((meter - before).physical_reads, 0u) << "a should still be hot";
  before = meter;
  ASSERT_TRUE(pool.Pin(b).ok());
  EXPECT_EQ((meter - before).physical_reads, 1u) << "b should have been evicted";
}

TEST(BufferPoolTest, AllFramesPinnedIsResourceExhausted) {
  MemPageStore store;
  BufferPool pool(&store, 2);
  auto a = pool.NewPage();
  auto b = pool.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsResourceExhausted());
  a->Release();
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());
}

TEST(BufferPoolTest, ScrambleCacheCausesRefaults) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 64, &meter);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok());
    ids.push_back(p->id());
  }
  Rng rng(9);
  ASSERT_TRUE(pool.ScrambleCache(rng, 1.0).ok());
  CostMeter before = meter;
  for (PageId id : ids) ASSERT_TRUE(pool.Pin(id).ok());
  EXPECT_EQ((meter - before).physical_reads, 32u);
}

TEST(BufferPoolTest, ScrambleCacheReportsEvictionCount) {
  MemPageStore store;
  BufferPool pool(&store, 64);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.NewPage().ok());
  }
  ASSERT_EQ(pool.cached_pages(), 32u);
  Rng rng(11);
  auto evicted = pool.ScrambleCache(rng, 0.5);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 32u - pool.cached_pages());
  EXPECT_GT(*evicted, 0u);
  auto rest = pool.ScrambleCache(rng, 1.0);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(pool.cached_pages(), 0u);
  auto none = pool.ScrambleCache(rng, 0.0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

TEST(BufferPoolTest, ScrambleCacheSkipsPinnedPages) {
  MemPageStore store;
  BufferPool pool(&store, 8);
  auto pinned = pool.NewPage();
  ASSERT_TRUE(pinned.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.NewPage().ok());
  Rng rng(3);
  auto evicted = pool.ScrambleCache(rng, 1.0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 4u);
  EXPECT_EQ(pool.cached_pages(), 1u) << "the pinned page must survive";
}

TEST(BufferPoolTest, PinGuardMoveTransfersOwnership) {
  MemPageStore store;
  BufferPool pool(&store, 2);
  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  PageGuard moved = std::move(*a);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(a->valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
}

// -------------------------------------------------------------- HeapFile

TEST(HeapFileTest, InsertFetchRoundTrip) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  auto rid = (*file)->Insert("hello world");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE((*file)->Fetch(*rid, &out).ok());
  EXPECT_EQ(out, "hello world");
}

TEST(HeapFileTest, SpillsAcrossPages) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  std::string rec(1000, 'x');
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = (*file)->Insert(rec + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_GT((*file)->pages().size(), 1u);
  std::string out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*file)->Fetch(rids[i], &out).ok());
    EXPECT_EQ(out, rec + std::to_string(i));
  }
}

TEST(HeapFileTest, RecordTooLargeRejected) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  std::string huge(kPageSize, 'x');
  EXPECT_TRUE((*file)->Insert(huge).status().IsInvalidArgument());
}

TEST(HeapFileTest, DeleteThenFetchIsNotFound) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  auto rid = (*file)->Insert("doomed");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*file)->record_count(), 1u);
  ASSERT_TRUE((*file)->Delete(*rid).ok());
  EXPECT_EQ((*file)->record_count(), 0u);
  std::string out;
  EXPECT_TRUE((*file)->Fetch(*rid, &out).IsNotFound());
  EXPECT_TRUE((*file)->Delete(*rid).IsNotFound());
}

TEST(HeapFileTest, CursorVisitsLiveRecordsInOrder) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    auto rid = (*file)->Insert("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE((*file)->Delete(rids[10]).ok());
  ASSERT_TRUE((*file)->Delete(rids[20]).ok());

  auto cursor = (*file)->NewCursor();
  std::string rec;
  Rid rid;
  int seen = 0;
  int expected = 0;
  for (;;) {
    auto more = cursor.Next(&rec, &rid);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    while (expected == 10 || expected == 20) expected++;
    EXPECT_EQ(rec, "rec" + std::to_string(expected));
    expected++;
    seen++;
  }
  EXPECT_EQ(seen, 48);
}

TEST(HeapFileTest, CursorResetRestarts) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Insert("a").ok());
  auto cursor = (*file)->NewCursor();
  std::string rec;
  Rid rid;
  ASSERT_TRUE(*cursor.Next(&rec, &rid));
  ASSERT_FALSE(*cursor.Next(&rec, &rid));
  cursor.Reset();
  ASSERT_TRUE(*cursor.Next(&rec, &rid));
  EXPECT_EQ(rec, "a");
}

class HeapFileRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapFileRandomTest, MatchesOracleUnderRandomOps) {
  MemPageStore store;
  BufferPool pool(&store, 32);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  Rng rng(GetParam());
  std::map<uint64_t, std::string> oracle;  // rid.ToU64 -> record
  for (int op = 0; op < 2000; ++op) {
    if (oracle.empty() || rng.NextDouble() < 0.7) {
      std::string rec(rng.NextBounded(200) + 1, 'a');
      rec += std::to_string(op);
      auto rid = (*file)->Insert(rec);
      ASSERT_TRUE(rid.ok());
      oracle[rid->ToU64()] = rec;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.NextBounded(oracle.size()));
      ASSERT_TRUE((*file)->Delete(Rid::FromU64(it->first)).ok());
      oracle.erase(it);
    }
  }
  EXPECT_EQ((*file)->record_count(), oracle.size());
  auto cursor = (*file)->NewCursor();
  std::string rec;
  Rid rid;
  size_t seen = 0;
  for (;;) {
    auto more = cursor.Next(&rec, &rid);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    auto it = oracle.find(rid.ToU64());
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(it->second, rec);
    seen++;
  }
  EXPECT_EQ(seen, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFileRandomTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace dynopt
