#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
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

// A store that logs every page read and write: with every cached page
// dirty, each eviction writes its victim back, so the write log names the
// victims in the order the pool chose them.
class RecordingStore : public MemPageStore {
 public:
  Status Read(PageId id, PageData* dst) const override {
    log_.emplace_back('R', id);
    return MemPageStore::Read(id, dst);
  }
  Status Write(PageId id, const PageData& src) override {
    log_.emplace_back('W', id);
    return MemPageStore::Write(id, src);
  }
  /// The reads and writes since the last call.
  std::vector<std::pair<char, PageId>> Take() {
    return std::exchange(log_, {});
  }

 private:
  mutable std::vector<std::pair<char, PageId>> log_;
};

// The reference the pool must match: per shard, a std::list LRU of the
// unpinned cached pages (front = most recent) and a count of free frames.
struct PoolModel {
  struct Shard {
    size_t free = 0;
    std::list<PageId> lru;
  };
  std::vector<Shard> shards;
  std::map<PageId, uint32_t> pins;  // cached page -> pin count
  std::vector<std::pair<char, PageId>> expect;

  PoolModel(size_t capacity, size_t shard_count) : shards(shard_count) {
    for (size_t i = 0; i < shard_count; ++i) {
      shards[i].free =
          capacity / shard_count + (i < capacity % shard_count ? 1 : 0);
    }
  }

  void Evict(Shard& s, std::list<PageId>::iterator it) {
    expect.emplace_back('W', *it);
    pins.erase(*it);
    s.lru.erase(it);
    s.free++;
  }

  /// Takes a frame for a page of shard `s`; false when every frame is
  /// pinned.
  bool Grab(Shard& s) {
    if (s.free == 0) {
      if (s.lru.empty()) return false;
      Evict(s, std::prev(s.lru.end()));
    }
    s.free--;
    return true;
  }

  bool Pin(Shard& s, PageId id) {
    auto it = pins.find(id);
    if (it != pins.end()) {
      if (it->second++ == 0) s.lru.remove(id);
      return true;
    }
    if (!Grab(s)) return false;
    expect.emplace_back('R', id);
    pins[id] = 1;
    return true;
  }

  void Unpin(Shard& s, PageId id) {
    if (--pins[id] == 0) s.lru.push_front(id);
  }
};

class BufferPoolModelTest : public ::testing::TestWithParam<size_t> {};

// A seeded run of pins, unpins, NewPage, EvictAll and ScrambleCache: the
// pool must read and write back exactly the pages the list model predicts,
// in its order, and keep its invariants after every operation.
TEST_P(BufferPoolModelTest, VictimsMatchAListModel) {
  const size_t shard_count = GetParam();
  const size_t capacity = 8 * shard_count;
  RecordingStore store;
  BufferPool pool(&store, capacity, nullptr, shard_count);
  ASSERT_EQ(pool.shard_count(), shard_count);
  PoolModel model(capacity, shard_count);
  std::vector<PageId> pages;
  std::vector<PageGuard> held;
  Rng rng(0x5eed + shard_count);
  auto shard_of = [&](PageId id) -> PoolModel::Shard& {
    return model.shards[pool.ShardOf(id)];
  };
  for (int op = 0; op < 4000; ++op) {
    double dice = rng.NextDouble();
    // Pins and unpins are equally likely, so the pinned count wanders
    // between none and more than the pool has frames.
    bool pin = dice < 0.5 ? held.size() < capacity + 4 : held.empty();
    std::string what;
    if (pages.empty() || dice < 0.05) {
      what = "NewPage";
      auto page = pool.NewPage();
      if (page.ok()) {
        PageId id = page->id();
        pages.push_back(id);
        ASSERT_TRUE(model.Grab(shard_of(id))) << "op " << op;
        model.pins[id] = 1;
        held.push_back(std::move(*page));
      } else {
        ASSERT_TRUE(page.status().IsResourceExhausted()) << page.status();
        // The model would have found no frame either.
        ASSERT_TRUE(shard_of(store.page_count() - 1).free == 0 &&
                    shard_of(store.page_count() - 1).lru.empty())
            << "op " << op;
      }
    } else if (dice < 0.94 && pin) {
      PageId id = pages[rng.NextBounded(pages.size())];
      what = "Pin " + std::to_string(id);
      auto page = pool.Pin(id);
      bool fits = model.Pin(shard_of(id), id);
      ASSERT_EQ(page.ok(), fits) << what << ": " << page.status();
      if (page.ok()) {
        page->MarkDirty();  // so its eviction shows in the write log
        held.push_back(std::move(*page));
      }
    } else if (dice < 0.94) {
      size_t i = rng.NextBounded(held.size());
      PageId id = held[i].id();
      what = "Unpin " + std::to_string(id);
      held[i].Release();
      held.erase(held.begin() + static_cast<ptrdiff_t>(i));
      model.Unpin(shard_of(id), id);
    } else if (dice < 0.97) {
      what = "EvictAll";
      ASSERT_TRUE(pool.EvictAll().ok());
      for (PoolModel::Shard& s : model.shards) {
        while (!s.lru.empty()) model.Evict(s, s.lru.begin());
      }
    } else {
      double fraction = rng.NextDouble();
      what = "ScrambleCache " + std::to_string(fraction);
      Rng draws = rng;  // the pool draws once per shard, in shard order
      auto evicted = pool.ScrambleCache(rng, fraction);
      ASSERT_TRUE(evicted.ok());
      size_t expected = 0;
      for (PoolModel::Shard& s : model.shards) {
        double want = fraction * static_cast<double>(s.lru.size());
        size_t quota = static_cast<size_t>(want);
        if (draws.NextDouble() < want - static_cast<double>(quota)) quota++;
        for (; quota > 0; --quota, ++expected) {
          model.Evict(s, std::prev(s.lru.end()));
        }
      }
      EXPECT_EQ(*evicted, expected) << what;
    }
    ASSERT_EQ(store.Take(), model.expect) << "op " << op << ": " << what;
    model.expect.clear();
    ASSERT_TRUE(pool.CheckInvariants().ok()) << "op " << op << ": " << what;
    ASSERT_EQ(pool.cached_pages(), model.pins.size()) << "op " << op;
    ASSERT_EQ(pool.PinnedPages(),
              static_cast<size_t>(std::count_if(
                  model.pins.begin(), model.pins.end(),
                  [](const auto& p) { return p.second > 0; })))
        << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, BufferPoolModelTest, ::testing::Values(1, 2));

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

// The Tscan's page-run walk yields the record walk's records in its order,
// each run from one page and at most the asked-for count, across random
// inserts and deletes.
TEST_P(HeapFileRandomTest, PageRunsMatchTheRecordWalk) {
  MemPageStore store;
  BufferPool pool(&store, 32);
  auto file = HeapFile::Create(&pool);
  ASSERT_TRUE(file.ok());
  Rng rng(GetParam());
  std::vector<Rid> live;
  for (int op = 0; op < 3000; ++op) {
    if (live.empty() || rng.NextDouble() < 0.7) {
      auto rid = (*file)->Insert(std::string(rng.NextBounded(300) + 1, 'r') +
                                 std::to_string(op));
      ASSERT_TRUE(rid.ok());
      live.push_back(*rid);
    } else {
      size_t i = rng.NextBounded(live.size());
      ASSERT_TRUE((*file)->Delete(live[i]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  std::vector<std::pair<Rid, std::string>> walked;
  auto cursor = (*file)->NewCursor();
  std::string rec;
  Rid rid;
  for (;;) {
    auto more = cursor.Next(&rec, &rid);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    walked.emplace_back(rid, rec);
  }
  ASSERT_EQ(walked.size(), live.size());
  auto runs = (*file)->NewCursor();
  std::vector<std::string_view> views;
  std::vector<Rid> rids;
  size_t at = 0;
  for (;;) {
    size_t max = rng.NextBounded(80) + 1;
    auto n = runs.NextPage(max, &views, &rids);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    ASSERT_LE(*n, max);
    ASSERT_EQ(views.size(), *n);
    ASSERT_EQ(rids.size(), *n);
    for (size_t i = 0; i < *n; ++i, ++at) {
      ASSERT_LT(at, walked.size());
      EXPECT_EQ(rids[i].page, rids[0].page) << "a run spans one page";
      EXPECT_EQ(rids[i], walked[at].first);
      EXPECT_EQ(views[i], walked[at].second);
    }
  }
  EXPECT_EQ(at, walked.size());
  EXPECT_EQ(pool.PinnedPages(), 0u) << "the walk's end drops its pin";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFileRandomTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace dynopt
