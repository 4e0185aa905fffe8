// Tests for the §7 OR-coverage extension: RangeSet algebra,
// disjunctive range extraction, and multi-range index scans.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "expr/predicate.h"
#include "index/btree.h"
#include "index/encoded_range.h"
#include "index/multi_range_cursor.h"
#include "util/key_codec.h"
#include "util/rng.h"

namespace dynopt {
namespace {

std::string IntKey(int64_t v) {
  std::string k;
  EncodeInt64(v, &k);
  return k;
}

/// [lo, hi] inclusive integer range in key space.
EncodedRange IntRange(int64_t lo, int64_t hi) {
  EncodedRange r;
  r.lo = IntKey(lo);
  r.hi = PrefixSuccessor(IntKey(hi));
  return r;
}

// ------------------------------------------------------------- RangeSet

TEST(RangeSetTest, SpecialSets) {
  EXPECT_TRUE(RangeSet::All().unrestricted());
  EXPECT_FALSE(RangeSet::All().DefinitelyEmpty());
  EXPECT_TRUE(RangeSet::Empty().DefinitelyEmpty());
  EXPECT_FALSE(RangeSet::Empty().unrestricted());
  EncodedRange dead;
  dead.lo = "z";
  dead.hi = "a";
  EXPECT_TRUE(RangeSet::Of(dead).DefinitelyEmpty());
}

TEST(RangeSetTest, NormalizationMergesAndSorts) {
  auto set = RangeSet::FromRanges(
      {IntRange(50, 60), IntRange(10, 20), IntRange(15, 30),
       IntRange(90, 80) /*empty*/});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.ranges()[0], IntRange(10, 30));  // overlap merged
  EXPECT_EQ(set.ranges()[1], IntRange(50, 60));
}

TEST(RangeSetTest, AdjacentRangesMerge) {
  // [10, 20] and [21, 30] abut in encoded space (hi of first == lo of
  // second after PrefixSuccessor).
  auto set = RangeSet::FromRanges({IntRange(10, 20), IntRange(21, 30)});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.ranges()[0], IntRange(10, 30));
}

TEST(RangeSetTest, ContainsMatchesPerRangeCheck) {
  auto set = RangeSet::FromRanges({IntRange(10, 20), IntRange(40, 45)});
  for (int64_t v = 0; v < 60; ++v) {
    bool expect = (v >= 10 && v <= 20) || (v >= 40 && v <= 45);
    EXPECT_EQ(set.Contains(IntKey(v)), expect) << v;
  }
}

TEST(RangeSetTest, HullSpansEverything) {
  auto set = RangeSet::FromRanges({IntRange(10, 20), IntRange(40, 45)});
  EXPECT_EQ(set.Hull(), IntRange(10, 45));
  EXPECT_TRUE(RangeSet::Empty().Hull().DefinitelyEmpty());
  EXPECT_TRUE(RangeSet::All().Hull().IsAll());
}

TEST(RangeSetTest, ComplementBasics) {
  auto set = RangeSet::Of(IntRange(10, 20));
  auto comp = set.Complement();
  for (int64_t v = 0; v < 40; ++v) {
    EXPECT_EQ(comp.Contains(IntKey(v)), !(v >= 10 && v <= 20)) << v;
  }
  EXPECT_TRUE(RangeSet::All().Complement().DefinitelyEmpty());
  EXPECT_TRUE(RangeSet::Empty().Complement().unrestricted());
}

class RangeSetAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeSetAlgebraTest, OperationsMatchBruteForceMembership) {
  Rng rng(GetParam());
  auto random_set = [&]() {
    std::vector<EncodedRange> ranges;
    int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < n; ++i) {
      int64_t lo = rng.NextInt(0, 100);
      ranges.push_back(IntRange(lo, lo + rng.NextInt(0, 30)));
    }
    return RangeSet::FromRanges(std::move(ranges));
  };
  for (int trial = 0; trial < 50; ++trial) {
    RangeSet a = random_set();
    RangeSet b = random_set();
    RangeSet inter = a.IntersectWith(b);
    RangeSet uni = a.UnionWith(b);
    RangeSet comp = a.Complement();
    for (int64_t v = -5; v <= 140; ++v) {
      std::string k = IntKey(v);
      EXPECT_EQ(inter.Contains(k), a.Contains(k) && b.Contains(k))
          << "intersect v=" << v;
      EXPECT_EQ(uni.Contains(k), a.Contains(k) || b.Contains(k))
          << "union v=" << v;
      EXPECT_EQ(comp.Contains(k), !a.Contains(k)) << "complement v=" << v;
    }
    // Results stay normalized: disjoint ascending ranges.
    for (size_t i = 1; i < uni.ranges().size(); ++i) {
      EXPECT_LT(uni.ranges()[i - 1].hi, uni.ranges()[i].lo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetAlgebraTest,
                         ::testing::Values(3, 13, 23));

// ------------------------------------------------------ ExtractRangeSet

constexpr uint32_t kAge = 1, kName = 2;

TEST(ExtractRangeSetTest, InListCompilesToMultipleRanges) {
  ParamMap params;
  auto p = Predicate::Or(
      {Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{5}))),
       Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{30}))),
       Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{70})))});
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 3u);
  EXPECT_TRUE(set->Contains(IntKey(30)));
  EXPECT_FALSE(set->Contains(IntKey(31)));
}

TEST(ExtractRangeSetTest, NotEqualsSplitsInTwo) {
  ParamMap params;
  auto p = Predicate::Compare(kAge, CompareOp::kNe,
                              Operand::Literal(Value(int64_t{10})));
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 2u);
  EXPECT_FALSE(set->Contains(IntKey(10)));
  EXPECT_TRUE(set->Contains(IntKey(9)));
  EXPECT_TRUE(set->Contains(IntKey(11)));
}

TEST(ExtractRangeSetTest, NotBetweenComplements) {
  ParamMap params;
  auto p = Predicate::Not(
      Predicate::Between(kAge, Operand::Literal(Value(int64_t{10})),
                         Operand::Literal(Value(int64_t{20}))));
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->Contains(IntKey(9)));
  EXPECT_FALSE(set->Contains(IntKey(15)));
  EXPECT_TRUE(set->Contains(IntKey(21)));
}

TEST(ExtractRangeSetTest, NotOverNonSargableStaysSound) {
  // NOT(Contains(...)) must NOT collapse to the empty set: the inner
  // predicate contributed an over-approximation, so its complement is
  // unknown — the extension stays unrestricted.
  ParamMap params;
  auto p = Predicate::Not(Predicate::Contains(kName, "x"));
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->unrestricted());
  // Same through a different column's predicate.
  auto q = Predicate::Not(Predicate::Compare(
      kName, CompareOp::kEq, Operand::Literal(Value("a"))));
  set = ExtractRangeSet(q, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->unrestricted());
}

TEST(ExtractRangeSetTest, AndOfOrsIntersectsSets) {
  // (age in {5, 30, 70}) AND age >= 20 -> {30, 70}.
  ParamMap params;
  auto in_list = Predicate::Or(
      {Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{5}))),
       Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{30}))),
       Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{70})))});
  auto p = Predicate::And(
      {in_list, Predicate::Compare(kAge, CompareOp::kGe,
                                   Operand::Literal(Value(int64_t{20})))});
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 2u);
  EXPECT_FALSE(set->Contains(IntKey(5)));
  EXPECT_TRUE(set->Contains(IntKey(30)));
  EXPECT_TRUE(set->Contains(IntKey(70)));
}

TEST(ExtractRangeSetTest, ProvableEmptiness) {
  ParamMap params;
  // age < 10 AND age > 50.
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{10}))),
       Predicate::Compare(kAge, CompareOp::kGt,
                          Operand::Literal(Value(int64_t{50})))});
  auto set = ExtractRangeSet(p, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->DefinitelyEmpty());
  // NOT TRUE is unsatisfiable on every column.
  auto q = Predicate::Not(Predicate::True());
  set = ExtractRangeSet(q, kAge, params);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->DefinitelyEmpty());
}

TEST(ExtractRangeSetTest, RandomPredicatesAreSoundSupersets) {
  // Property: for random predicates, every age value satisfying the
  // predicate (with other columns free) lies inside the extracted set.
  Rng rng(99);
  ParamMap params;
  for (int trial = 0; trial < 200; ++trial) {
    // Random 2-3 term boolean over age comparisons and a Contains.
    std::vector<PredicateRef> terms;
    int n = 2 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < n; ++i) {
      switch (rng.NextBounded(4)) {
        case 0:
          terms.push_back(Predicate::Compare(
              kAge, static_cast<CompareOp>(rng.NextBounded(6)),
              Operand::Literal(Value(rng.NextInt(0, 99)))));
          break;
        case 1: {
          int64_t lo = rng.NextInt(0, 99);
          terms.push_back(
              Predicate::Between(kAge, Operand::Literal(Value(lo)),
                                 Operand::Literal(Value(lo + 10))));
          break;
        }
        case 2:
          terms.push_back(Predicate::Not(Predicate::Compare(
              kAge, static_cast<CompareOp>(rng.NextBounded(6)),
              Operand::Literal(Value(rng.NextInt(0, 99))))));
          break;
        case 3:
          terms.push_back(Predicate::Contains(kName, "q"));
          break;
      }
    }
    PredicateRef p = rng.NextBool() ? Predicate::And(terms)
                                    : Predicate::Or(terms);
    if (rng.NextBool(0.3)) p = Predicate::Not(p);
    auto set = ExtractRangeSet(p, kAge, params);
    ASSERT_TRUE(set.ok());
    for (int64_t age = -2; age <= 102; ++age) {
      // Evaluate with a name that contains "q" and one that doesn't: if
      // either satisfies, age must be in the set.
      for (const char* name : {"qqq", "zzz"}) {
        Record rec{int64_t{0}, age, std::string(name)};
        RowView view(&rec);
        auto sat = p->Eval(view, params);
        ASSERT_TRUE(sat.ok());
        if (*sat) {
          EXPECT_TRUE(set->Contains(IntKey(age)))
              << "age " << age << " name " << name << " escapes set in trial "
              << trial << " for " << p->ShapeString();
        }
      }
    }
  }
}

// ---------------------------------------------------- MultiRangeCursor

struct TreeFixture {
  MemPageStore store;
  BufferPool pool{&store, 256};
  std::unique_ptr<BTree> tree;

  explicit TreeFixture(int64_t n) {
    tree = std::move(*BTree::Create(&pool));
    for (int64_t v = 0; v < n; ++v) {
      EXPECT_TRUE(
          tree->Insert(IntKey(v), Rid{static_cast<PageId>(v), 0}).ok());
    }
  }
};

/// Every entry `cursor` yields, `chunk` entries per NextBatch call, so
/// calls straddle range boundaries.
RidBatch DrainEntries(MultiRangeCursor* cursor, size_t chunk = 4) {
  RidBatch out;
  for (;;) {
    auto more = cursor->NextBatch(out.size() + chunk, &out);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) return out;
  }
}

TEST(MultiRangeCursorTest, VisitsAllRangesInOrder) {
  TreeFixture f(1000);
  auto set = RangeSet::FromRanges(
      {IntRange(800, 810), IntRange(5, 10), IntRange(400, 402)});
  MultiRangeCursor cursor(f.tree.get(), &set);
  std::vector<int64_t> got;
  RidBatch entries = DrainEntries(&cursor);
  for (size_t i = 0; i < entries.size(); ++i) {
    std::string_view sv(entries.key(i));
    int64_t v;
    ASSERT_TRUE(DecodeInt64(&sv, &v).ok());
    got.push_back(v);
  }
  std::vector<int64_t> expect;
  for (int64_t v = 5; v <= 10; ++v) expect.push_back(v);
  for (int64_t v = 400; v <= 402; ++v) expect.push_back(v);
  for (int64_t v = 800; v <= 810; ++v) expect.push_back(v);
  EXPECT_EQ(got, expect);
}

TEST(MultiRangeCursorTest, EmptySetAndEmptyRanges) {
  TreeFixture f(100);
  auto empty = RangeSet::Empty();
  MultiRangeCursor cursor(f.tree.get(), &empty);
  RidBatch entries;
  auto more = cursor.NextBatch(1, &entries);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_TRUE(entries.empty());

  auto beyond = RangeSet::Of(IntRange(500, 600));  // past all data
  MultiRangeCursor cursor2(f.tree.get(), &beyond);
  more = cursor2.NextBatch(1, &entries);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_TRUE(entries.empty());
}

TEST(MultiRangeCursorTest, UnrestrictedScansEverything) {
  TreeFixture f(500);
  auto all = RangeSet::All();
  MultiRangeCursor cursor(f.tree.get(), &all);
  EXPECT_EQ(DrainEntries(&cursor, 64).size(), 500u);
}

}  // namespace
}  // namespace dynopt
