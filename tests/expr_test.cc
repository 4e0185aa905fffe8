#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expr/predicate.h"
#include "expr/value.h"
#include "util/key_codec.h"

namespace dynopt {
namespace {

// -------------------------------------------------------------- Value

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value(int64_t{1}).is_int64());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_EQ(ValueTypeName(Value("x").type()), "STRING");
}

TEST(ValueTest, CompareSameType) {
  auto c = Value(int64_t{1}).Compare(Value(int64_t{2}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, -1);
  c = Value("b").Compare(Value("a"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 1);
  c = Value(2.0).Compare(Value(2.0));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0);
}

TEST(ValueTest, CompareTypeMismatchFails) {
  EXPECT_TRUE(
      Value(int64_t{1}).Compare(Value(1.0)).status().IsInvalidArgument());
}

TEST(ValueTest, EncodeKeyMatchesCodec) {
  std::string via_value, via_codec;
  Value(int64_t{42}).EncodeKey(&via_value);
  EncodeInt64(42, &via_codec);
  EXPECT_EQ(via_value, via_codec);
}

// -------------------------------------------------------------- Schema

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"age", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

TEST(SchemaTest, ColumnLookup) {
  Schema s = TestSchema();
  auto idx = s.ColumnIndex("age");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(s.ColumnIndex("nope").status().IsNotFound());
}

TEST(RecordTest, SerializeRoundTrip) {
  Schema s = TestSchema();
  Record r{int64_t{7}, int64_t{34}, std::string("ann"), 2.5};
  std::string bytes;
  ASSERT_TRUE(SerializeRecord(s, r, &bytes).ok());
  Record back;
  ASSERT_TRUE(DeserializeRecord(s, bytes, &back).ok());
  EXPECT_EQ(back, r);
}

TEST(RecordTest, ArityAndTypeValidated) {
  Schema s = TestSchema();
  std::string bytes;
  Record short_rec{int64_t{7}};
  EXPECT_TRUE(SerializeRecord(s, short_rec, &bytes).IsInvalidArgument());
  Record bad_type{int64_t{7}, 2.0, std::string("x"), 1.0};
  EXPECT_TRUE(SerializeRecord(s, bad_type, &bytes).IsInvalidArgument());
}

TEST(RecordTest, DeserializeDetectsTruncation) {
  Schema s = TestSchema();
  Record r{int64_t{7}, int64_t{34}, std::string("ann"), 2.5};
  std::string bytes;
  ASSERT_TRUE(SerializeRecord(s, r, &bytes).ok());
  Record back;
  EXPECT_TRUE(
      DeserializeRecord(s, std::string_view(bytes).substr(0, 10), &back)
          .IsCorruption());
  EXPECT_TRUE(DeserializeRecord(s, bytes + "x", &back).IsCorruption());
}

// ----------------------------------------------------------- Predicate

constexpr uint32_t kId = 0, kAge = 1, kName = 2, kScore = 3;

Record Row(int64_t id, int64_t age, std::string name, double score) {
  return Record{id, age, std::move(name), score};
}

TEST(PredicateTest, CompareOpsAgainstLiteral) {
  Record r = Row(1, 30, "bob", 0.5);
  RowView view(&r);
  ParamMap params;
  struct Case {
    CompareOp op;
    int64_t v;
    bool expect;
  };
  for (const Case& c : std::vector<Case>{{CompareOp::kEq, 30, true},
                                         {CompareOp::kEq, 31, false},
                                         {CompareOp::kNe, 31, true},
                                         {CompareOp::kLt, 31, true},
                                         {CompareOp::kLt, 30, false},
                                         {CompareOp::kLe, 30, true},
                                         {CompareOp::kGt, 29, true},
                                         {CompareOp::kGe, 30, true},
                                         {CompareOp::kGe, 31, false}}) {
    auto p = Predicate::Compare(kAge, c.op, Operand::Literal(Value(c.v)));
    auto res = p->Eval(view, params);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(*res, c.expect) << CompareOpName(c.op) << " " << c.v;
  }
}

TEST(PredicateTest, HostVariableBindsPerExecution) {
  // The paper's motivating example: AGE >= :A1 flips between all and none.
  auto p = Predicate::Compare(kAge, CompareOp::kGe, Operand::HostVar("A1"));
  Record r = Row(1, 30, "bob", 0.5);
  RowView view(&r);
  ParamMap run1{{"A1", Value(int64_t{0})}};
  ParamMap run2{{"A1", Value(int64_t{200})}};
  EXPECT_TRUE(*p->Eval(view, run1));
  EXPECT_FALSE(*p->Eval(view, run2));
}

TEST(PredicateTest, UnboundHostVariableIsError) {
  auto p = Predicate::Compare(kAge, CompareOp::kGe, Operand::HostVar("A1"));
  Record r = Row(1, 30, "bob", 0.5);
  RowView view(&r);
  ParamMap empty;
  EXPECT_TRUE(p->Eval(view, empty).status().IsInvalidArgument());
}

TEST(PredicateTest, BetweenInclusive) {
  auto p = Predicate::Between(kAge, Operand::Literal(Value(int64_t{30})),
                              Operand::Literal(Value(int64_t{32})));
  ParamMap params;
  for (auto [age, expect] : std::vector<std::pair<int64_t, bool>>{
           {29, false}, {30, true}, {31, true}, {32, true}, {33, false}}) {
    Record r = Row(1, age, "x", 0.0);
    RowView view(&r);
    EXPECT_EQ(*p->Eval(view, params), expect) << age;
  }
}

TEST(PredicateTest, ContainsAndMod) {
  ParamMap params;
  auto contains = Predicate::Contains(kName, "ob");
  Record r1 = Row(1, 30, "bob", 0.5);
  Record r2 = Row(1, 30, "eve", 0.5);
  RowView v1(&r1), v2(&r2);
  EXPECT_TRUE(*contains->Eval(v1, params));
  EXPECT_FALSE(*contains->Eval(v2, params));

  auto mod = Predicate::Mod(kId, 3, 1);
  Record r3 = Row(7, 0, "", 0.0);
  RowView v3(&r3);
  EXPECT_TRUE(*mod->Eval(v3, params));
  Record r4 = Row(9, 0, "", 0.0);
  RowView v4(&r4);
  EXPECT_FALSE(*mod->Eval(v4, params));
}

TEST(PredicateTest, ModOfNegativeValueIsNonNegativeResidue) {
  ParamMap params;
  auto mod = Predicate::Mod(kId, 3, 2);
  Record r = Row(-1, 0, "", 0.0);  // -1 mod 3 == 2
  RowView v(&r);
  EXPECT_TRUE(*mod->Eval(v, params));
}

TEST(PredicateTest, BooleanCombinators) {
  ParamMap params;
  auto young = Predicate::Compare(kAge, CompareOp::kLt,
                                  Operand::Literal(Value(int64_t{40})));
  auto named_bob = Predicate::Contains(kName, "bob");
  auto both = Predicate::And({young, named_bob});
  auto either = Predicate::Or({young, named_bob});
  auto not_young = Predicate::Not(young);

  Record r = Row(1, 50, "bob", 0.0);
  RowView v(&r);
  EXPECT_FALSE(*both->Eval(v, params));
  EXPECT_TRUE(*either->Eval(v, params));
  EXPECT_TRUE(*not_young->Eval(v, params));
}

TEST(PredicateTest, CollectColumnsWalksTree) {
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{1}))),
       Predicate::Or({Predicate::Contains(kName, "x"),
                      Predicate::Mod(kId, 2, 0)})});
  std::set<uint32_t> cols;
  p->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<uint32_t>{kId, kAge, kName}));
  EXPECT_TRUE(PredicateCoveredBy(p, {kId, kAge, kName, kScore}));
  EXPECT_FALSE(PredicateCoveredBy(p, {kAge, kName}));
}

TEST(PredicateTest, SparseRowViewAnswersCoveredColumns) {
  std::vector<std::optional<Value>> sparse(4);
  sparse[kAge] = Value(int64_t{33});
  RowView view(&sparse);
  ParamMap params;
  auto p = Predicate::Compare(kAge, CompareOp::kEq,
                              Operand::Literal(Value(int64_t{33})));
  EXPECT_TRUE(*p->Eval(view, params));
  auto q = Predicate::Contains(kName, "x");
  EXPECT_TRUE(q->Eval(view, params).status().IsInternal());
}

// -------------------------------------------------------- ExtractRange

std::string IntKey(int64_t v) {
  std::string k;
  EncodeInt64(v, &k);
  return k;
}

TEST(ExtractRangeTest, SingleComparisons) {
  ParamMap params;
  auto ge = Predicate::Compare(kAge, CompareOp::kGe,
                               Operand::Literal(Value(int64_t{30})));
  auto r = ExtractRange(ge, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lo, IntKey(30));
  EXPECT_TRUE(r->hi.empty());

  auto lt = Predicate::Compare(kAge, CompareOp::kLt,
                               Operand::Literal(Value(int64_t{30})));
  r = ExtractRange(lt, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->lo.empty());
  EXPECT_EQ(r->hi, IntKey(30));

  auto eq = Predicate::Compare(kAge, CompareOp::kEq,
                               Operand::Literal(Value(int64_t{30})));
  r = ExtractRange(eq, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lo, IntKey(30));
  EXPECT_EQ(r->hi, PrefixSuccessor(IntKey(30)));
  EXPECT_EQ(r->hi, IntKey(31));  // int encodings are dense
}

TEST(ExtractRangeTest, ConjunctionIntersects) {
  ParamMap params;
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{30}))),
       Predicate::Compare(kAge, CompareOp::kLe,
                          Operand::Literal(Value(int64_t{32}))),
       Predicate::Contains(kName, "whatever")});
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lo, IntKey(30));
  EXPECT_EQ(r->hi, IntKey(33));
  EXPECT_FALSE(r->DefinitelyEmpty());
}

TEST(ExtractRangeTest, ContradictionIsProvablyEmpty) {
  ParamMap params;
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kGt,
                          Operand::Literal(Value(int64_t{50}))),
       Predicate::Compare(kAge, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{10})))});
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->DefinitelyEmpty());
}

TEST(ExtractRangeTest, HostVariablesResolveAtBindTime) {
  auto p = Predicate::Compare(kAge, CompareOp::kGe, Operand::HostVar("A1"));
  ParamMap run1{{"A1", Value(int64_t{0})}};
  ParamMap run2{{"A1", Value(int64_t{200})}};
  auto r1 = ExtractRange(p, kAge, run1);
  auto r2 = ExtractRange(p, kAge, run2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(r1->lo, r2->lo);
  ParamMap unbound;
  EXPECT_FALSE(ExtractRange(p, kAge, unbound).ok());
}

TEST(ExtractRangeTest, OrProducesBoundingHull) {
  // The single-range API returns the hull of the OR's range set (the
  // multi-range view is ExtractRangeSet, tested separately).
  ParamMap params;
  auto p = Predicate::Or(
      {Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{1}))),
       Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{5})))});
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lo, IntKey(1));
  EXPECT_EQ(r->hi, IntKey(6));
}

TEST(ExtractRangeTest, OrOfSargableAndNonSargableIsUnrestricted) {
  ParamMap params;
  auto p = Predicate::Or(
      {Predicate::Compare(kAge, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{1}))),
       Predicate::Contains(kName, "x")});
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAll());
}

TEST(ExtractRangeTest, OtherColumnsIgnored) {
  ParamMap params;
  auto p = Predicate::Compare(kId, CompareOp::kEq,
                              Operand::Literal(Value(int64_t{5})));
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsAll());
}

TEST(ExtractRangeTest, BetweenProducesInclusiveRange) {
  ParamMap params;
  auto p = Predicate::Between(kScore, Operand::Literal(Value(1.0)),
                              Operand::Literal(Value(2.0)));
  auto r = ExtractRange(p, kScore, params);
  ASSERT_TRUE(r.ok());
  std::string lo, hi;
  EncodeDouble(1.0, &lo);
  EncodeDouble(2.0, &hi);
  EXPECT_EQ(r->lo, lo);
  EXPECT_EQ(r->hi, PrefixSuccessor(hi));
}

TEST(ExtractRangeTest, GtMaxIntIsProvablyEmpty) {
  ParamMap params;
  auto p = Predicate::Compare(
      kAge, CompareOp::kGt,
      Operand::Literal(Value(std::numeric_limits<int64_t>::max())));
  auto r = ExtractRange(p, kAge, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->DefinitelyEmpty());
}

}  // namespace
}  // namespace dynopt
