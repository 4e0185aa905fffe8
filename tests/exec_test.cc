#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "exec/operators.h"
#include "exec/retrieval_spec.h"
#include "exec/rid_set.h"
#include "exec/steppers.h"
#include "governance/query_context.h"
#include "util/rng.h"

namespace dynopt {
namespace {

// --------------------------------------------------------- HybridRidList

TEST(HybridRidListTest, RegionTransitions) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  HybridRidList::Options opt;
  opt.inline_capacity = 4;
  opt.memory_capacity = 10;
  HybridRidList list(&pool, opt);

  EXPECT_EQ(list.storage(), HybridRidList::Storage::kInline);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kInline);
  ASSERT_TRUE(list.Append(Rid{4, 0}).ok());
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kHeap);
  for (uint32_t i = 5; i < 10; ++i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kHeap);
  ASSERT_TRUE(list.Append(Rid{10, 0}).ok());
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
  EXPECT_EQ(list.size(), 11u);
}

TEST(HybridRidListTest, OversizedInlineCapacityIsClampedToBuffer) {
  // Regression: an inline_capacity larger than the static buffer must be
  // clamped, not honored — honoring it would write past inline_buf_.
  HybridRidList::Options opt;
  opt.inline_capacity = 1000;
  opt.memory_capacity = 4096;
  HybridRidList list(nullptr, opt);
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  // Past the real buffer size the list must have moved to the heap region.
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kHeap);
  EXPECT_EQ(list.size(), 200u);
  ASSERT_TRUE(list.Seal().ok());
  for (uint32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(list.MightContain(Rid{i, 0}));
  }
}

TEST(HybridRidListTest, ExactMembershipInMemory) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  HybridRidList list(&pool);
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(list.Append(Rid{i * 2, 0}).ok());
  }
  ASSERT_TRUE(list.Seal().ok());
  EXPECT_TRUE(list.filter_is_exact());
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(list.MightContain(Rid{i * 2, 0}));
    EXPECT_FALSE(list.MightContain(Rid{i * 2 + 1, 0}));
  }
}

TEST(HybridRidListTest, SpilledBitmapHasNoFalseNegatives) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  HybridRidList::Options opt;
  opt.memory_capacity = 64;
  opt.bitmap_bits = 1 << 12;
  HybridRidList list(&pool, opt);
  std::vector<Rid> members;
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    Rid r{static_cast<PageId>(rng.NextBounded(1 << 20)),
          static_cast<uint16_t>(rng.NextBounded(100))};
    members.push_back(r);
    ASSERT_TRUE(list.Append(r).ok());
  }
  ASSERT_TRUE(list.Seal().ok());
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
  EXPECT_FALSE(list.filter_is_exact());
  for (const Rid& r : members) {
    EXPECT_TRUE(list.MightContain(r));  // never a false negative
  }
  // False positives exist but must be bounded well below 1.
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    Rid r{static_cast<PageId>((1 << 21) + i), 0};
    if (list.MightContain(r)) fp++;
  }
  EXPECT_LT(fp, 5000);
}

TEST(HybridRidListTest, ToSortedVectorSpansSpill) {
  MemPageStore store;
  BufferPool pool(&store, 16);
  HybridRidList::Options opt;
  opt.memory_capacity = 50;
  HybridRidList list(&pool, opt);
  // Append in descending order to prove sorting.
  for (uint32_t i = 500; i > 0; --i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  std::vector<Rid> sorted = list.ToSortedVector();
  ASSERT_EQ(sorted.size(), 500u);
  for (uint32_t i = 0; i < 500; ++i) ASSERT_EQ(sorted[i], (Rid{i + 1, 0}));
  // Reading back consumes nothing: a second read returns the same RIDs.
  EXPECT_EQ(list.ToSortedVector(), sorted);
}

// The temporary table is metered per page: each page it starts costs one
// physical write and one page of live spill bytes, and reading the spill
// back costs one physical and one logical read per page. The boundaries
// fall at memory_capacity + 1,023·k.
TEST(HybridRidListTest, SpillChargesEachTempTablePageOnce) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  QueryContext ctx;
  HybridRidList::Options opt;
  opt.memory_capacity = 100;
  HybridRidList list(&pool, opt);
  list.set_context(&ctx);
  const size_t per_page = HybridRidList::kRidsPerPage;
  ASSERT_EQ(per_page, 1023u);
  // RIDs appended so far → temp-table pages started.
  auto expect_pages = [&](uint64_t pages) {
    EXPECT_EQ(pool.meter().physical_writes, pages) << list.size();
    EXPECT_EQ(ctx.spill_bytes(), pages * kPageSize) << list.size();
  };
  uint32_t next = 0;
  auto append_to = [&](size_t n) {
    while (list.size() < n) ASSERT_TRUE(list.Append(Rid{next++, 0}).ok());
  };
  append_to(100);
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kHeap);
  expect_pages(0);
  append_to(101);
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
  expect_pages(1);
  append_to(100 + per_page);
  expect_pages(1);
  append_to(101 + per_page);
  expect_pages(2);
  append_to(100 + 2 * per_page);
  expect_pages(2);
  append_to(101 + 2 * per_page);
  expect_pages(3);
  // Appends charge no read and touch neither the pool nor its store.
  EXPECT_EQ(pool.meter().logical_reads, 0u);
  EXPECT_EQ(pool.meter().rid_ops, list.size());
  EXPECT_EQ(store.page_count(), 0u);
  EXPECT_EQ(pool.cached_pages(), 0u);

  CostMeter before = pool.meter();
  EXPECT_EQ(list.ToSortedVector().size(), list.size());
  CostMeter read = pool.meter() - before;
  EXPECT_EQ(read.physical_reads, 3u);
  EXPECT_EQ(read.logical_reads, 3u);
  EXPECT_EQ(read.physical_writes, 0u);
  EXPECT_EQ(ctx.spill_bytes(), 3 * kPageSize);
}

TEST(HybridRidListTest, AppendAfterSealRejected) {
  HybridRidList list(nullptr);
  ASSERT_TRUE(list.Append(Rid{1, 0}).ok());
  ASSERT_TRUE(list.Seal().ok());
  EXPECT_TRUE(list.Append(Rid{2, 0}).IsInternal());
}

// The temporary table belongs to the list, so a list with no pool still
// spills; it only has no meter to charge.
TEST(HybridRidListTest, NoPoolOverflowSpillsInTheList) {
  HybridRidList::Options opt;
  opt.inline_capacity = 4;
  opt.memory_capacity = 8;
  HybridRidList list(nullptr, opt);
  for (uint32_t i = 20; i > 0; --i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  EXPECT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
  EXPECT_EQ(list.InMemory().size(), 8u);
  std::vector<Rid> sorted = list.ToSortedVector();
  ASSERT_EQ(sorted.size(), 20u);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], (Rid{i + 1, 0}));
}

TEST(HybridRidListTest, InMemoryAccessors) {
  HybridRidList list(nullptr);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(list.Append(Rid{i, 0}).ok());
  }
  ASSERT_EQ(list.InMemory().size(), 5u);
  EXPECT_EQ(list.InMemory()[3].page, 3u);  // append order before Seal
}

// The inline, heap and spilled setups of the tests above:
// RegionTransitions' capacities, ExactMembershipInMemory's defaults and
// SpilledBitmapHasNoFalseNegatives' 64-RID memory with a 4,096-bit bitmap.
struct RidListSetup {
  const char* name;
  HybridRidList::Options opt;
  size_t n;                        // RIDs appended
  HybridRidList::Storage storage;  // the region the list ends in
};

std::vector<RidListSetup> RidListSetups() {
  HybridRidList::Options inline_opt;
  inline_opt.inline_capacity = 4;
  inline_opt.memory_capacity = 10;
  HybridRidList::Options spill_opt;
  spill_opt.memory_capacity = 64;
  spill_opt.bitmap_bits = 1 << 12;
  return {{"inline", inline_opt, 4, HybridRidList::Storage::kInline},
          {"heap", HybridRidList::Options(), 100,
           HybridRidList::Storage::kHeap},
          {"spilled", spill_opt, 2000, HybridRidList::Storage::kSpilled}};
}

// `n` distinct random RIDs.
std::vector<Rid> RandomRids(Rng& rng, size_t n) {
  std::set<Rid> seen;
  std::vector<Rid> out;
  while (out.size() < n) {
    Rid r{static_cast<PageId>(rng.NextBounded(1 << 20)),
          static_cast<uint16_t>(rng.NextBounded(100))};
    if (seen.insert(r).second) out.push_back(r);
  }
  return out;
}

// Members, their slot neighbours and random RIDs: what a probe sees.
std::vector<Rid> ProbeCandidates(Rng& rng, const std::vector<Rid>& members) {
  std::vector<Rid> out = RandomRids(rng, 3000);
  for (const Rid& r : members) {
    out.push_back(r);
    out.push_back(Rid{r.page, static_cast<uint16_t>(r.slot + 1)});
  }
  return out;
}

TEST(HybridRidListTest, BatchProbeMatchesBinarySearchInMemory) {
  for (const RidListSetup& setup : RidListSetups()) {
    if (setup.storage == HybridRidList::Storage::kSpilled) continue;
    SCOPED_TRACE(setup.name);
    MemPageStore store;
    BufferPool pool(&store, 16);
    HybridRidList list(&pool, setup.opt);
    Rng rng(7);
    std::vector<Rid> members = RandomRids(rng, setup.n);
    for (const Rid& r : members) ASSERT_TRUE(list.Append(r).ok());
    ASSERT_TRUE(list.Seal().ok());
    ASSERT_EQ(list.storage(), setup.storage);
    std::vector<Rid> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Rid> candidates = ProbeCandidates(rng, members);
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      bool found =
          std::binary_search(sorted.begin(), sorted.end(), candidates[i]);
      if (found) want.push_back(i);
      EXPECT_EQ(list.MightContain(candidates[i]), found);
    }
    std::vector<uint32_t> keep = {99};  // Probe replaces, never appends
    list.Probe(candidates, &keep);
    EXPECT_EQ(keep, want);
  }
  // A sealed empty list keeps nothing.
  HybridRidList empty(nullptr);
  ASSERT_TRUE(empty.Seal().ok());
  std::vector<uint32_t> keep;
  std::vector<Rid> some = {Rid{0, 0}, Rid{1, 1}, Rid{kInvalidPageId, 0}};
  empty.Probe(some, &keep);
  EXPECT_TRUE(keep.empty());
}

TEST(HybridRidListTest, BatchProbeNeverDropsASpilledMember) {
  const RidListSetup setup = RidListSetups()[2];
  MemPageStore store;
  BufferPool pool(&store, 16);
  HybridRidList list(&pool, setup.opt);
  Rng rng(11);
  std::vector<Rid> members = RandomRids(rng, setup.n);
  for (const Rid& r : members) ASSERT_TRUE(list.Append(r).ok());
  ASSERT_TRUE(list.Seal().ok());
  ASSERT_EQ(list.storage(), HybridRidList::Storage::kSpilled);
  std::vector<uint32_t> keep;
  list.Probe(members, &keep);
  std::vector<uint32_t> all(members.size());
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_EQ(keep, all);
  // Non-members get the one-RID answer, false positives included.
  std::vector<Rid> candidates = ProbeCandidates(rng, members);
  list.Probe(candidates, &keep);
  std::vector<uint32_t> want;
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    if (list.MightContain(candidates[i])) want.push_back(i);
  }
  EXPECT_EQ(keep, want);
  EXPECT_LT(keep.size(), candidates.size());
}

TEST(HybridRidListTest, BatchProbeChargesOneRidOpPerRid) {
  for (const RidListSetup& setup : RidListSetups()) {
    SCOPED_TRACE(setup.name);
    MemPageStore store;
    BufferPool pool(&store, 16);
    HybridRidList list(&pool, setup.opt);
    Rng rng(13);
    std::vector<Rid> members = RandomRids(rng, setup.n);
    for (const Rid& r : members) ASSERT_TRUE(list.Append(r).ok());
    ASSERT_TRUE(list.Seal().ok());
    std::vector<Rid> candidates = ProbeCandidates(rng, members);
    for (size_t n : {size_t{0}, size_t{1}, size_t{17}, candidates.size()}) {
      CostMeter before = pool.meter();
      std::vector<uint32_t> keep;
      list.Probe(std::span<const Rid>(candidates).first(n), &keep);
      CostMeter d = pool.meter() - before;
      EXPECT_EQ(d.rid_ops, n);
      EXPECT_EQ(d.Cost(), static_cast<double>(n) * CostWeights().rid_op);
    }
    CostMeter before = pool.meter();
    list.MightContain(candidates[0]);
    EXPECT_EQ((pool.meter() - before).rid_ops, 1u);
  }
}

TEST(HybridRidListTest, BatchAppendChargesAndMovesLikePerRidAppends) {
  for (const RidListSetup& setup : RidListSetups()) {
    SCOPED_TRACE(setup.name);
    // Twin lists on twin pools, so each meter sees one list only.
    MemPageStore store_a, store_b;
    BufferPool pool_a(&store_a, 16), pool_b(&store_b, 16);
    QueryContext ctx_a, ctx_b;
    HybridRidList per_rid(&pool_a, setup.opt), batched(&pool_b, setup.opt);
    per_rid.set_context(&ctx_a);
    batched.set_context(&ctx_b);
    Rng rng(17);
    // Enough RIDs to pass through all three regions.
    std::vector<Rid> rids =
        RandomRids(rng, 2 * setup.opt.memory_capacity + 40);
    std::set<HybridRidList::Storage> seen;
    // Uneven chunks; every third RID of a chunk is left unselected.
    const size_t chunks[] = {1, 2, 3, 7, 64, 5, 300};
    size_t pos = 0;
    for (size_t c = 0; pos < rids.size(); ++c) {
      size_t len = std::min(chunks[c % std::size(chunks)], rids.size() - pos);
      std::span<const Rid> chunk(rids.data() + pos, len);
      std::vector<uint32_t> sel;
      for (uint32_t i = 0; i < len; ++i) {
        if ((pos + i) % 3 != 2) sel.push_back(i);
      }
      for (uint32_t i : sel) ASSERT_TRUE(per_rid.Append(chunk[i]).ok());
      ASSERT_TRUE(batched.Append(chunk, sel).ok());
      pos += len;
      // Same region, same in-memory RIDs (so the same RID moved the list
      // on), same charges.
      ASSERT_EQ(batched.storage(), per_rid.storage()) << "after " << pos;
      ASSERT_EQ(batched.size(), per_rid.size());
      ASSERT_TRUE(std::ranges::equal(batched.InMemory(), per_rid.InMemory()));
      ASSERT_EQ(pool_b.meter().ToString(), pool_a.meter().ToString());
      ASSERT_EQ(ctx_b.rid_list_bytes(), ctx_a.rid_list_bytes());
      ASSERT_EQ(ctx_b.spill_bytes(), ctx_a.spill_bytes());
      seen.insert(batched.storage());
    }
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(per_rid.ToSortedVector(), batched.ToSortedVector());
  }
}

TEST(HybridRidListTest, PageBitmapCountMatchesASetOfPages) {
  for (size_t presize : {size_t{0}, size_t{100}, size_t{1} << 16}) {
    SCOPED_TRACE(presize);
    PageBitmap bitmap(presize);
    std::set<PageId> pages;
    Rng rng(19);
    for (int i = 0; i < 20000; ++i) {
      PageId page = i % 50 == 0 ? static_cast<PageId>(rng.NextBounded(64))
                                : static_cast<PageId>(rng.NextBounded(1 << 17));
      bitmap.Insert(page);
      pages.insert(page);
      ASSERT_EQ(bitmap.count(), pages.size()) << "after " << i;
    }
  }
}

// -------------------------------------------------------------- Steppers

struct ScanFixture {
  Database db;
  Table* table = nullptr;
  SecondaryIndex* by_age = nullptr;
  SecondaryIndex* by_age_name = nullptr;
  std::vector<Rid> rids;  // rids[i] holds id i
  ParamMap params;

  ScanFixture() {
    auto t = db.CreateTable(
        "people", Schema({{"id", ValueType::kInt64},
                          {"age", ValueType::kInt64},
                          {"name", ValueType::kString}}));
    EXPECT_TRUE(t.ok());
    table = *t;
    for (int i = 0; i < 1000; ++i) {
      auto rid = table->Insert(Record{int64_t{i}, int64_t{i % 100},
                                      std::string(i % 2 ? "odd" : "even")});
      EXPECT_TRUE(rid.ok());
      rids.push_back(*rid);
    }
    auto i1 = table->CreateIndex("by_age", {"age"});
    EXPECT_TRUE(i1.ok());
    by_age = *i1;
    auto i2 = table->CreateIndex("by_age_name", {"age", "name"});
    EXPECT_TRUE(i2.ok());
    by_age_name = *i2;
  }

  RetrievalSpec Spec(PredicateRef pred, std::vector<uint32_t> proj) {
    RetrievalSpec s;
    s.table = table;
    s.restriction = std::move(pred);
    s.projection = std::move(proj);
    return s;
  }

  RangeSet AgeRange(const PredicateRef& pred) {
    auto r = ExtractRangeSet(pred, 1, params);
    EXPECT_TRUE(r.ok());
    return *r;
  }

  // Every row the stepper delivers, as its projected values.
  static std::vector<std::vector<Value>> Drain(ScanStepper* s,
                                               const RetrievalSpec& spec) {
    std::vector<std::vector<Value>> rows;
    for (;;) {
      auto more = s->Step();
      EXPECT_TRUE(more.ok()) << more.status();
      if (!more.ok() || !*more) break;
      const RowBatch& b = s->output();
      for (uint32_t r : b.sel()) {
        std::vector<Value>& row = rows.emplace_back();
        for (uint32_t c : spec.projection) row.push_back(b.col(c).ValueAt(r));
      }
    }
    return rows;
  }
};

TEST(StepperTest, TscanFindsAllMatches) {
  ScanFixture f;
  auto pred = Predicate::Compare(1, CompareOp::kEq,
                                 Operand::Literal(Value(int64_t{42})));
  auto spec = f.Spec(pred, {0, 1});
  TscanStepper scan(f.db.pool(), spec, f.params);
  auto rows = ScanFixture::Drain(&scan, spec);
  EXPECT_EQ(rows.size(), 10u);  // ages cycle mod 100 over 1000 rows
  for (const auto& r : rows) EXPECT_EQ(r[1].AsInt64(), 42);
  EXPECT_EQ(scan.records_scanned(), 1000u);
  EXPECT_TRUE(scan.exhausted());
}

TEST(StepperTest, FscanScansOnlyTheRange) {
  ScanFixture f;
  auto pred = Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                 Operand::Literal(Value(int64_t{12})));
  auto spec = f.Spec(pred, {0, 1, 2});
  FscanStepper scan(f.db.pool(), spec, f.params, f.by_age, f.AgeRange(pred));
  auto rows = ScanFixture::Drain(&scan, spec);
  EXPECT_EQ(rows.size(), 30u);
  EXPECT_EQ(scan.entries_scanned(), 30u);  // never leaves the range
  EXPECT_EQ(scan.records_fetched(), 30u);
}

TEST(StepperTest, FscanPreFetchFilterSkipsFetches) {
  ScanFixture f;
  auto pred = Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                 Operand::Literal(Value(int64_t{12})));
  auto spec = f.Spec(pred, {0});
  FscanStepper scan(f.db.pool(), spec, f.params, f.by_age, f.AgeRange(pred));

  // Filter admitting nothing: every fetch is skipped.
  HybridRidList empty_filter(nullptr);
  ASSERT_TRUE(empty_filter.Seal().ok());
  scan.SetPreFetchFilter(&empty_filter);
  auto rows = ScanFixture::Drain(&scan, spec);
  EXPECT_EQ(rows.size(), 0u);
  EXPECT_EQ(scan.entries_scanned(), 30u);
  EXPECT_EQ(scan.records_fetched(), 0u);
}

TEST(StepperTest, SscanAnswersFromIndexAlone) {
  ScanFixture f;
  // Restriction and projection both covered by (age, name).
  auto pred = Predicate::And(
      {Predicate::Compare(1, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{7}))),
       Predicate::Contains(2, "od")});
  auto spec = f.Spec(pred, {1, 2});
  SscanStepper scan(f.db.pool(), spec, f.params, f.by_age_name,
                    f.AgeRange(pred));
  const MetricsRegistry& metrics = *f.db.metrics();
  const uint64_t fetched = metrics.Value("exec.records_fetched");
  auto rows = ScanFixture::Drain(&scan, spec);
  EXPECT_EQ(rows.size(), 10u);  // age 7 rows are all "odd"
  for (const auto& r : rows) {
    EXPECT_EQ(r[0].AsInt64(), 7);
    EXPECT_EQ(r[1].AsString(), "odd");
  }
  // No heap record was fetched: the Sscan read one descent and the leaves
  // its range spans. The ten age-7 entries are adjacent and a leaf holds
  // far more than ten, so they span at most two leaves.
  EXPECT_EQ(metrics.Value("exec.records_fetched"), fetched);
  const BTree& tree = *f.by_age_name->tree();
  ASSERT_GT(tree.entry_count() / tree.leaf_count(), 20u);
  EXPECT_LE(scan.accrued().logical_reads, tree.height() + 2);
}

TEST(StepperTest, CostAttributionIsPerStepper) {
  ScanFixture f;
  auto pred = Predicate::True();
  auto spec = f.Spec(pred, {0});
  TscanStepper a(f.db.pool(), spec, f.params);
  TscanStepper b(f.db.pool(), spec, f.params);
  ASSERT_TRUE(a.Step().ok());
  ASSERT_TRUE(a.Step().ok());
  ASSERT_TRUE(b.Step(1).ok());  // one unit: b's meter must stay tiny
  EXPECT_GT(a.accrued().logical_reads + a.accrued().record_evals, 0u);
  EXPECT_GE(a.accrued().record_evals, 2u);
  EXPECT_LE(b.accrued().record_evals, 1u);
}

// A record whose bytes disagree with its schema is a typed Corruption from
// the batched decoder, on the Tscan's page walk and on a fetch by RID
// alike, whether or not the bad column is materialized, and nothing reads
// past the record.
TEST(StepperTest, MalformedRecordsAreTypedCorruption) {
  auto u32 = [](uint32_t v) {
    return std::string(reinterpret_cast<const char*>(&v), 4);
  };
  const std::string id(8, '\x07');
  struct Case {
    std::string bytes;
    std::string_view message;
  };
  const Case cases[] = {
      {id + u32(1000) + "abc", "record truncated"},  // prefix overruns slot
      {id + u32(3) + "abcxyz", "trailing bytes in record"},
      {id + u32(3) + "ab", "record truncated"},
      {id.substr(0, 5), "record truncated"},  // numeric column cut short
  };
  for (const Case& c : cases) {
    for (std::vector<uint32_t> projection : {std::vector<uint32_t>{0, 1},
                                             std::vector<uint32_t>{0}}) {
      Database db;
      auto t = db.CreateTable("t", Schema({{"id", ValueType::kInt64},
                                           {"name", ValueType::kString}}));
      ASSERT_TRUE(t.ok());
      // A well-formed record first, so the bad one sits mid-page.
      ASSERT_TRUE((*t)->Insert(Record{int64_t{1}, std::string("ok")}).ok());
      auto bad = (*t)->heap()->Insert(c.bytes);
      ASSERT_TRUE(bad.ok());
      RetrievalSpec spec;
      spec.table = *t;
      spec.restriction = Predicate::True();
      spec.projection = projection;
      ParamMap params;
      const std::string what = c.message.data() + std::string(" over ") +
                               std::to_string(projection.size()) +
                               " column(s)";
      TscanStepper scan(db.pool(), spec, params);
      auto scanned = scan.Step();
      ASSERT_FALSE(scanned.ok()) << what;
      EXPECT_TRUE(scanned.status().IsCorruption()) << scanned.status();
      EXPECT_EQ(scanned.status().message(), c.message) << what;
      FetchStepper fetch(db.pool(), spec, params, nullptr);
      fetch.Restart({*bad});
      auto fetched = fetch.Step();
      ASSERT_FALSE(fetched.ok()) << what;
      EXPECT_TRUE(fetched.status().IsCorruption()) << fetched.status();
      EXPECT_EQ(fetched.status().message(), c.message) << what;
    }
  }
}

// The ids of the rows one FetchStepper step delivered, in delivery order.
std::vector<int64_t> StepIds(FetchStepper* fetch, size_t max_units,
                             bool* more) {
  auto stepped = fetch->Step(max_units);
  EXPECT_TRUE(stepped.ok()) << stepped.status();
  *more = stepped.ok() && *stepped;
  std::vector<int64_t> ids;
  if (!*more) return ids;
  const RowBatch& b = fetch->output();
  for (uint32_t r : b.sel()) ids.push_back(b.col(0).ValueAt(r).AsInt64());
  return ids;
}

TEST(StepperTest, FetchScreensQueuedRidsInQueueOrder) {
  ScanFixture f;
  auto pred = Predicate::Compare(1, CompareOp::kLt,
                                 Operand::Literal(Value(int64_t{5})));
  auto spec = f.Spec(pred, {0, 1});
  std::vector<Rid> queue = {f.rids[102], f.rids[7], f.rids[3], f.rids[250]};
  FetchStepper fetch(f.db.pool(), spec, f.params, nullptr);
  fetch.Restart(queue);
  uint64_t fetched = f.db.metrics()->Value("exec.records_fetched");
  bool more = false;
  EXPECT_EQ(StepIds(&fetch, 1024, &more), (std::vector<int64_t>{102, 3}));
  EXPECT_TRUE(more);
  EXPECT_EQ(fetch.output().num_rows(), 4u);  // fetched; the screen kept 2
  EXPECT_EQ(f.db.metrics()->Value("exec.records_fetched") - fetched, 4u);
  EXPECT_TRUE(StepIds(&fetch, 1024, &more).empty());
  EXPECT_FALSE(more);
  EXPECT_TRUE(fetch.exhausted());

  // A restart serves a new execution: a fresh queue and a zero meter.
  fetch.Restart({f.rids[4]});
  EXPECT_FALSE(fetch.exhausted());
  EXPECT_EQ(fetch.accrued().record_evals, 0u);
  EXPECT_EQ(StepIds(&fetch, 1024, &more), (std::vector<int64_t>{4}));
  EXPECT_EQ(fetch.accrued().record_evals, 1u);
}

// A deleted row and a RID in the skip set are passed over without a fetch,
// and neither counts against the quantum: each step fetches `max_units`
// records.
TEST(StepperTest, FetchSkipsDeletedAndSkippedRidsAcrossQuanta) {
  ScanFixture f;
  auto spec = f.Spec(Predicate::True(), {0});
  ASSERT_TRUE(f.table->Delete(f.rids[1]).ok());
  std::unordered_set<Rid> skip = {f.rids[4], f.rids[8]};
  std::vector<Rid> queue(f.rids.begin(), f.rids.begin() + 10);
  FetchStepper fetch(f.db.pool(), spec, f.params, &skip);
  fetch.Restart(queue);
  uint64_t fetched = f.db.metrics()->Value("exec.records_fetched");
  uint64_t batches = f.db.metrics()->Value("exec.batches");
  bool more = false;
  EXPECT_EQ(StepIds(&fetch, 3, &more), (std::vector<int64_t>{0, 2, 3}));
  EXPECT_EQ(StepIds(&fetch, 3, &more), (std::vector<int64_t>{5, 6, 7}));
  EXPECT_EQ(StepIds(&fetch, 3, &more), (std::vector<int64_t>{9}));
  EXPECT_TRUE(more);
  StepIds(&fetch, 3, &more);
  EXPECT_FALSE(more);
  EXPECT_EQ(f.db.metrics()->Value("exec.records_fetched") - fetched, 7u);
  EXPECT_EQ(f.db.metrics()->Value("exec.batches") - batches, 3u);
}

// Fed one RID per step, the way the fast-first foreground is: a step whose
// only RID is skipped still succeeds, with no rows and no fetch.
TEST(StepperTest, FetchFedOneRidPerStep) {
  ScanFixture f;
  auto spec = f.Spec(Predicate::True(), {0});
  std::unordered_set<Rid> skip = {f.rids[11]};
  FetchStepper fetch(f.db.pool(), spec, f.params, &skip);
  uint64_t fetched = f.db.metrics()->Value("exec.records_fetched");
  bool more = false;
  for (int id : {10, 11, 12}) {
    fetch.Queue(f.rids[id]);
    std::vector<int64_t> ids = StepIds(&fetch, 1024, &more);
    EXPECT_TRUE(more);
    EXPECT_EQ(ids, id == 11 ? std::vector<int64_t>{}
                            : std::vector<int64_t>{id});
  }
  EXPECT_FALSE(fetch.exhausted());
  EXPECT_EQ(f.db.metrics()->Value("exec.records_fetched") - fetched, 2u);
}

// The stepper's meter is exactly what a meter installed around the same
// steps gains, and every page it read is charged to its context by the
// time a step returns.
TEST(StepperTest, FetchMeterMatchesAScopeAroundItsSteps) {
  ScanFixture f;
  auto pred = Predicate::Compare(2, CompareOp::kEq,
                                 Operand::Literal(Value("odd")));
  auto spec = f.Spec(pred, {0, 2});
  std::vector<Rid> queue;
  for (size_t i = 0; i < f.rids.size(); i += 7) queue.push_back(f.rids[i]);
  FetchStepper fetch(f.db.pool(), spec, f.params, nullptr);
  fetch.Restart(queue);
  QueryContext ctx;
  fetch.set_context(&ctx);
  CostMeter outer;
  {
    ScopedCostMeter scope(&outer, f.db.pool()->shared_meter());
    bool more = true;
    while (more) StepIds(&fetch, 16, &more);
  }
  const CostMeter& own = fetch.accrued();
  EXPECT_GT(own.logical_reads, 0u);
  EXPECT_EQ(own.record_evals, queue.size());
  EXPECT_EQ(own.physical_reads, outer.physical_reads);
  EXPECT_EQ(own.physical_writes, outer.physical_writes);
  EXPECT_EQ(own.logical_reads, outer.logical_reads);
  EXPECT_EQ(own.key_compares, outer.key_compares);
  EXPECT_EQ(own.record_evals, outer.record_evals);
  EXPECT_EQ(own.rid_ops, outer.rid_ops);
  EXPECT_EQ(ctx.pages_read(), own.logical_reads);
}

// One poll per quantum: a single-strategy execution under a context polls
// once per stepper batch, including the batch that finds the scan done.
TEST(StepperTest, SingleStrategyPollsOncePerBatch) {
  ScanFixture f;
  auto pred = Predicate::Compare(2, CompareOp::kEq,
                                 Operand::Literal(Value("odd")));
  RetrievalOptions opt;
  opt.batch_size = 100;
  DynamicRetrieval engine(&f.db, f.Spec(pred, {0}), opt);
  QueryContext ctx;
  ASSERT_TRUE(engine.Open({}, &ctx).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kStaticTscan);
  RowBatch batch;
  uint64_t rows = 0;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    rows += batch.num_rows();
  }
  EXPECT_EQ(rows, 500u);
  EXPECT_EQ(ctx.polls(), 1000u / 100 + 1);
}

// -------------------------------------------------------------- Operators

RowOperatorPtr Source(std::vector<std::vector<Value>> rows) {
  return std::make_unique<VectorSourceOperator>(std::move(rows));
}

std::vector<std::vector<Value>> DrainOp(RowOperator* op) {
  EXPECT_TRUE(op->Open().ok());
  std::vector<std::vector<Value>> out;
  for (;;) {
    auto more = op->NextBatch(&out);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
  }
  return out;
}

TEST(OperatorTest, SortOrdersByColumn) {
  SortOperator op(Source({{Value(int64_t{3})}, {Value(int64_t{1})},
                          {Value(int64_t{2})}}),
                  0);
  auto rows = DrainOp(&op);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[2][0].AsInt64(), 3);
}

TEST(OperatorTest, LimitStopsEarly) {
  LimitOperator op(Source({{Value(int64_t{1})},
                           {Value(int64_t{2})},
                           {Value(int64_t{3})}}),
                   2);
  auto rows = DrainOp(&op);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(OperatorTest, ExistsEmitsBooleanRow) {
  ExistsOperator yes(Source({{Value(int64_t{1})}}));
  auto rows = DrainOp(&yes);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);

  ExistsOperator no(Source({}));
  rows = DrainOp(&no);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
}

TEST(OperatorTest, DistinctRemovesDuplicates) {
  DistinctOperator op(Source({{Value(int64_t{2})}, {Value(int64_t{1})},
                              {Value(int64_t{2})}, {Value(int64_t{1})}}));
  auto rows = DrainOp(&op);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
}

TEST(OperatorTest, Aggregates) {
  {
    AggregateOperator op(Source({{Value(int64_t{5})}, {Value(int64_t{7})}}),
                         AggregateKind::kCount);
    auto rows = DrainOp(&op);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].AsInt64(), 2);
  }
  {
    AggregateOperator op(Source({{Value(int64_t{5})}, {Value(int64_t{7})}}),
                         AggregateKind::kSum, 0);
    auto rows = DrainOp(&op);
    EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 12.0);
  }
  {
    AggregateOperator op(Source({{Value(int64_t{5})}, {Value(int64_t{7})}}),
                         AggregateKind::kMin, 0);
    auto rows = DrainOp(&op);
    EXPECT_EQ(rows[0][0].AsInt64(), 5);
  }
  {
    AggregateOperator op(Source({{Value(int64_t{5})}, {Value(int64_t{7})}}),
                         AggregateKind::kMax, 0);
    auto rows = DrainOp(&op);
    EXPECT_EQ(rows[0][0].AsInt64(), 7);
  }
}

TEST(OperatorTest, MinOverEmptyIsNotFound) {
  AggregateOperator op(Source({}), AggregateKind::kMin, 0);
  EXPECT_TRUE(op.Open().IsNotFound());
}

}  // namespace
}  // namespace dynopt
