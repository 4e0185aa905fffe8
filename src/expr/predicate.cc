#include "expr/predicate.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <sstream>

#include "util/key_codec.h"

namespace dynopt {

Result<Value> Operand::Bind(const ParamMap& params) const {
  if (!is_host_var()) return literal_;
  auto it = params.find(var_name_);
  if (it == params.end()) {
    return Status::InvalidArgument("unbound host variable :" + var_name_);
  }
  return it->second;
}

std::string Operand::ShapeString() const {
  if (is_host_var()) return ":" + var_name_;
  return "?";
}

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<const Value*> RowView::Get(uint32_t col) const {
  if (full_ != nullptr) {
    if (col >= full_->size()) {
      return Status::Internal("column index out of record range");
    }
    return &(*full_)[col];
  }
  if (sparse_ != nullptr) {
    if (col >= sparse_->size() || !(*sparse_)[col].has_value()) {
      return Status::Internal(
          "predicate evaluated on sparse row lacking column " +
          std::to_string(col));
    }
    return &*(*sparse_)[col];
  }
  return Status::Internal("empty row view");
}

namespace {

bool OpHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Branch-free comparison over a flat typed column: the op dispatch happens
/// once per batch, the inner loops compile to straight-line compares.
template <typename T>
void TypedCompareLoop(CompareOp op, const T* data, const uint32_t* sel,
                      size_t n, T bound, uint8_t* mask) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] == bound;
      return;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] != bound;
      return;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] < bound;
      return;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] <= bound;
      return;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] > bound;
      return;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) mask[i] = data[sel[i]] >= bound;
      return;
  }
}

class TruePredicate final : public Predicate {
 public:
  TruePredicate() : Predicate(Kind::kTrue) {}
  Result<bool> Eval(const RowView&, const ParamMap&) const override {
    return true;
  }
  Status EvalBatch(const BatchView&, const ParamMap&, const uint32_t*,
                   size_t n, uint8_t* mask) const override {
    std::memset(mask, 1, n);
    return Status::OK();
  }
  void CollectColumns(std::set<uint32_t>*) const override {}
  std::string ShapeString() const override { return "TRUE"; }
};

class ComparePredicate final : public Predicate {
 public:
  ComparePredicate(uint32_t col, CompareOp op, Operand operand)
      : Predicate(Kind::kCompare),
        col_(col),
        op_(op),
        operand_(std::move(operand)) {}

  Result<bool> Eval(const RowView& row, const ParamMap& params) const override {
    DYNOPT_ASSIGN_OR_RETURN(const Value* v, row.Get(col_));
    DYNOPT_ASSIGN_OR_RETURN(Value bound, operand_.Bind(params));
    DYNOPT_ASSIGN_OR_RETURN(int c, v->Compare(bound));
    switch (op_) {
      case CompareOp::kEq:
        return c == 0;
      case CompareOp::kNe:
        return c != 0;
      case CompareOp::kLt:
        return c < 0;
      case CompareOp::kLe:
        return c <= 0;
      case CompareOp::kGt:
        return c > 0;
      case CompareOp::kGe:
        return c >= 0;
    }
    return Status::Internal("unreachable compare op");
  }

  Status EvalBatch(const BatchView& view, const ParamMap& params,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    if (n == 0) return Status::OK();
    DYNOPT_ASSIGN_OR_RETURN(const ColumnVector* cv, view.Get(col_));
    DYNOPT_ASSIGN_OR_RETURN(Value bound, operand_.Bind(params));
    switch (cv->mode()) {
      case ColumnVector::Mode::kInt64:
        if (!bound.is_int64()) break;
        TypedCompareLoop(op_, cv->i64_data(), sel, n, bound.AsInt64(), mask);
        return Status::OK();
      case ColumnVector::Mode::kDouble:
        if (!bound.is_double()) break;
        TypedCompareLoop(op_, cv->f64_data(), sel, n, bound.AsDouble(), mask);
        return Status::OK();
      case ColumnVector::Mode::kString: {
        if (!bound.is_string()) break;
        const std::string& b = bound.AsString();
        for (size_t i = 0; i < n; ++i) {
          mask[i] = OpHolds(op_, cv->StringAt(sel[i]).compare(b));
        }
        return Status::OK();
      }
      case ColumnVector::Mode::kMixed:
        for (size_t i = 0; i < n; ++i) {
          DYNOPT_ASSIGN_OR_RETURN(int c, cv->ValueAt(sel[i]).Compare(bound));
          mask[i] = OpHolds(op_, c);
        }
        return Status::OK();
      case ColumnVector::Mode::kEmpty:
        break;
    }
    return Status::InvalidArgument("comparing mismatched value types");
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    cols->insert(col_);
  }


  std::string ShapeString() const override {
    std::ostringstream os;
    os << "c" << col_ << " " << CompareOpName(op_) << " "
       << operand_.ShapeString();
    return os.str();
  }

  uint32_t col() const { return col_; }
  CompareOp op() const { return op_; }
  const Operand& operand() const { return operand_; }

 private:
  uint32_t col_;
  CompareOp op_;
  Operand operand_;
};

class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(uint32_t col, Operand lo, Operand hi)
      : Predicate(Kind::kBetween),
        col_(col),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  Result<bool> Eval(const RowView& row, const ParamMap& params) const override {
    DYNOPT_ASSIGN_OR_RETURN(const Value* v, row.Get(col_));
    DYNOPT_ASSIGN_OR_RETURN(Value lo, lo_.Bind(params));
    DYNOPT_ASSIGN_OR_RETURN(Value hi, hi_.Bind(params));
    DYNOPT_ASSIGN_OR_RETURN(int cl, v->Compare(lo));
    if (cl < 0) return false;
    DYNOPT_ASSIGN_OR_RETURN(int ch, v->Compare(hi));
    return ch <= 0;
  }

  Status EvalBatch(const BatchView& view, const ParamMap& params,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    if (n == 0) return Status::OK();
    DYNOPT_ASSIGN_OR_RETURN(const ColumnVector* cv, view.Get(col_));
    DYNOPT_ASSIGN_OR_RETURN(Value lo, lo_.Bind(params));
    DYNOPT_ASSIGN_OR_RETURN(Value hi, hi_.Bind(params));
    switch (cv->mode()) {
      case ColumnVector::Mode::kInt64:
        if (lo.is_int64()) {
          return TypedBetween(cv->i64_data(), sel, n, lo.AsInt64(),
                              hi.is_int64(),
                              hi.is_int64() ? hi.AsInt64() : int64_t{0}, mask);
        }
        break;
      case ColumnVector::Mode::kDouble:
        if (lo.is_double()) {
          return TypedBetween(cv->f64_data(), sel, n, lo.AsDouble(),
                              hi.is_double(),
                              hi.is_double() ? hi.AsDouble() : 0.0, mask);
        }
        break;
      case ColumnVector::Mode::kString:
      case ColumnVector::Mode::kMixed:
        // Per-element path: string compares are not branch-free anyway, and
        // mixed columns need per-row type checks.
        for (size_t i = 0; i < n; ++i) {
          Value v = cv->ValueAt(sel[i]);
          DYNOPT_ASSIGN_OR_RETURN(int cl, v.Compare(lo));
          if (cl < 0) {
            mask[i] = 0;
            continue;
          }
          DYNOPT_ASSIGN_OR_RETURN(int ch, v.Compare(hi));
          mask[i] = ch <= 0;
        }
        return Status::OK();
      case ColumnVector::Mode::kEmpty:
        break;
    }
    return Status::InvalidArgument("comparing mismatched value types");
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    cols->insert(col_);
  }


  std::string ShapeString() const override {
    std::ostringstream os;
    os << "c" << col_ << " BETWEEN " << lo_.ShapeString() << " AND "
       << hi_.ShapeString();
    return os.str();
  }

  uint32_t col() const { return col_; }
  const Operand& lo() const { return lo_; }
  const Operand& hi() const { return hi_; }

 private:
  /// Row semantics per element: a hi-bound type mismatch only surfaces on
  /// rows that pass the lo bound (the row path short-circuits `v < lo`
  /// before ever comparing hi), so a batch errors iff some selected row
  /// reaches the hi compare.
  template <typename T>
  static Status TypedBetween(const T* data, const uint32_t* sel, size_t n,
                             T lo, bool hi_matches, T hi, uint8_t* mask) {
    if (hi_matches) {
      for (size_t i = 0; i < n; ++i) {
        T v = data[sel[i]];
        mask[i] = static_cast<uint8_t>(v >= lo) & static_cast<uint8_t>(v <= hi);
      }
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      if (data[sel[i]] >= lo) {
        return Status::InvalidArgument("comparing mismatched value types");
      }
    }
    std::memset(mask, 0, n);
    return Status::OK();
  }

  uint32_t col_;
  Operand lo_;
  Operand hi_;
};

class ContainsPredicate final : public Predicate {
 public:
  ContainsPredicate(uint32_t col, std::string needle)
      : Predicate(Kind::kContains), col_(col), needle_(std::move(needle)) {}

  Result<bool> Eval(const RowView& row, const ParamMap&) const override {
    DYNOPT_ASSIGN_OR_RETURN(const Value* v, row.Get(col_));
    if (!v->is_string()) {
      return Status::InvalidArgument("CONTAINS on non-string column");
    }
    return v->AsString().find(needle_) != std::string::npos;
  }

  Status EvalBatch(const BatchView& view, const ParamMap&,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    if (n == 0) return Status::OK();
    DYNOPT_ASSIGN_OR_RETURN(const ColumnVector* cv, view.Get(col_));
    switch (cv->mode()) {
      case ColumnVector::Mode::kString:
        for (size_t i = 0; i < n; ++i) {
          mask[i] = cv->StringAt(sel[i]).find(needle_) != std::string::npos;
        }
        return Status::OK();
      case ColumnVector::Mode::kMixed:
        for (size_t i = 0; i < n; ++i) {
          Value v = cv->ValueAt(sel[i]);
          if (!v.is_string()) {
            return Status::InvalidArgument("CONTAINS on non-string column");
          }
          mask[i] = v.AsString().find(needle_) != std::string::npos;
        }
        return Status::OK();
      default:
        return Status::InvalidArgument("CONTAINS on non-string column");
    }
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    cols->insert(col_);
  }


  std::string ShapeString() const override {
    return "c" + std::to_string(col_) + " CONTAINS ?";
  }

 private:
  uint32_t col_;
  std::string needle_;
};

class ModPredicate final : public Predicate {
 public:
  ModPredicate(uint32_t col, int64_t modulus, int64_t residue)
      : Predicate(Kind::kMod), col_(col), modulus_(modulus), residue_(residue) {
    assert(modulus != 0);
  }

  Result<bool> Eval(const RowView& row, const ParamMap&) const override {
    DYNOPT_ASSIGN_OR_RETURN(const Value* v, row.Get(col_));
    if (!v->is_int64()) {
      return Status::InvalidArgument("MOD on non-int column");
    }
    if (modulus_ == 0) return Status::InvalidArgument("MOD by zero");
    int64_t m = v->AsInt64() % modulus_;
    if (m < 0) m += modulus_ < 0 ? -modulus_ : modulus_;
    return m == residue_;
  }

  Status EvalBatch(const BatchView& view, const ParamMap&,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    if (n == 0) return Status::OK();
    if (modulus_ == 0) return Status::InvalidArgument("MOD by zero");
    DYNOPT_ASSIGN_OR_RETURN(const ColumnVector* cv, view.Get(col_));
    int64_t adjust = modulus_ < 0 ? -modulus_ : modulus_;
    switch (cv->mode()) {
      case ColumnVector::Mode::kInt64: {
        const int64_t* data = cv->i64_data();
        for (size_t i = 0; i < n; ++i) {
          int64_t m = data[sel[i]] % modulus_;
          m += adjust & -static_cast<int64_t>(m < 0);  // branch-free fixup
          mask[i] = m == residue_;
        }
        return Status::OK();
      }
      case ColumnVector::Mode::kMixed:
        for (size_t i = 0; i < n; ++i) {
          Value v = cv->ValueAt(sel[i]);
          if (!v.is_int64()) {
            return Status::InvalidArgument("MOD on non-int column");
          }
          int64_t m = v.AsInt64() % modulus_;
          if (m < 0) m += adjust;
          mask[i] = m == residue_;
        }
        return Status::OK();
      default:
        return Status::InvalidArgument("MOD on non-int column");
    }
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    cols->insert(col_);
  }

  // Modulus/residue are structural (never host-bound), so they stay in the
  // shape: c0 % 2 = 0 and c0 % 7 = 3 are genuinely different queries.
  std::string ShapeString() const override {
    std::ostringstream os;
    os << "c" << col_ << " % " << modulus_ << " = " << residue_;
    return os.str();
  }

 private:
  uint32_t col_;
  int64_t modulus_;
  int64_t residue_;
};

class NaryPredicate final : public Predicate {
 public:
  NaryPredicate(Kind kind, std::vector<PredicateRef> children)
      : Predicate(kind), children_(std::move(children)) {
    assert(kind == Kind::kAnd || kind == Kind::kOr);
  }

  Result<bool> Eval(const RowView& row, const ParamMap& params) const override {
    bool is_and = kind() == Kind::kAnd;
    for (const auto& child : children_) {
      DYNOPT_ASSIGN_OR_RETURN(bool v, child->Eval(row, params));
      if (is_and && !v) return false;
      if (!is_and && v) return true;
    }
    return is_and;
  }

  Status EvalBatch(const BatchView& view, const ParamMap& params,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    if (n == 0) return Status::OK();
    bool is_and = kind() == Kind::kAnd;
    // Every row starts at the identity; children progressively decide rows
    // and the undecided set narrows, so a later child never evaluates a row
    // an earlier one already settled — exactly the row path's
    // short-circuit, batched.
    std::memset(mask, is_and ? 1 : 0, n);
    std::vector<uint32_t> live(n);
    for (size_t i = 0; i < n; ++i) live[i] = static_cast<uint32_t>(i);
    std::vector<uint32_t> sub_sel;
    std::vector<uint8_t> sub_mask;
    for (const auto& child : children_) {
      if (live.empty()) break;
      sub_sel.resize(live.size());
      sub_mask.resize(live.size());
      for (size_t j = 0; j < live.size(); ++j) sub_sel[j] = sel[live[j]];
      DYNOPT_RETURN_IF_ERROR(child->EvalBatch(
          view, params, sub_sel.data(), sub_sel.size(), sub_mask.data()));
      size_t m = 0;
      for (size_t j = 0; j < live.size(); ++j) {
        bool v = sub_mask[j] != 0;
        if (is_and ? !v : v) {
          mask[live[j]] = is_and ? 0 : 1;  // decided now
        } else {
          live[m++] = live[j];  // still undecided
        }
      }
      live.resize(m);
    }
    return Status::OK();
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    for (const auto& child : children_) child->CollectColumns(cols);
  }

  std::string ShapeString() const override {
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) os << (kind() == Kind::kAnd ? " AND " : " OR ");
      os << children_[i]->ShapeString();
    }
    os << ")";
    return os.str();
  }

  const std::vector<PredicateRef>& children() const { return children_; }

 private:
  std::vector<PredicateRef> children_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicateRef child)
      : Predicate(Kind::kNot), child_(std::move(child)) {}

  Result<bool> Eval(const RowView& row, const ParamMap& params) const override {
    DYNOPT_ASSIGN_OR_RETURN(bool v, child_->Eval(row, params));
    return !v;
  }

  Status EvalBatch(const BatchView& view, const ParamMap& params,
                   const uint32_t* sel, size_t n,
                   uint8_t* mask) const override {
    DYNOPT_RETURN_IF_ERROR(child_->EvalBatch(view, params, sel, n, mask));
    for (size_t i = 0; i < n; ++i) mask[i] = mask[i] == 0;
    return Status::OK();
  }

  void CollectColumns(std::set<uint32_t>* cols) const override {
    child_->CollectColumns(cols);
  }

  std::string ShapeString() const override {
    return "NOT " + child_->ShapeString();
  }

  const PredicateRef& child() const { return child_; }

 private:
  PredicateRef child_;
};

/// Range implied by `v OP value` for the keyed column. A Gt past the top of
/// the key space yields a provably-empty range.
EncodedRange RangeForCompare(CompareOp op, const Value& v) {
  std::string enc;
  v.EncodeKey(&enc);
  EncodedRange r;
  switch (op) {
    case CompareOp::kEq:
      r.lo = enc;
      // Empty successor means the value owns the top of the key space; an
      // unbounded high end is then the correct (and tight) bound.
      r.hi = PrefixSuccessor(enc);
      break;
    case CompareOp::kGe:
      r.lo = enc;
      break;
    case CompareOp::kGt: {
      std::string succ = PrefixSuccessor(enc);
      if (succ.empty()) {
        // No key exceeds an all-0xff prefix: provably empty.
        r.lo = enc;
        r.hi = enc;
      } else {
        r.lo = succ;
      }
      break;
    }
    case CompareOp::kLt:
      r.hi = enc;
      break;
    case CompareOp::kLe: {
      std::string succ = PrefixSuccessor(enc);
      r.hi = succ;  // empty succ == +infinity: correct for <= max key
      break;
    }
    case CompareOp::kNe:
      break;  // not sargable as a single range
  }
  return r;
}

/// A derived set plus whether it *exactly* characterizes satisfaction as a
/// function of this column (needed for sound complementation under NOT —
/// the complement of a superset is not a superset of the complement).
struct DerivedSet {
  RangeSet set;
  bool exact = false;
};

Result<DerivedSet> DeriveSet(const Predicate* pred, uint32_t col,
                             const ParamMap& params) {
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return DerivedSet{RangeSet::All(), true};
    case Predicate::Kind::kCompare: {
      const auto* cmp = static_cast<const ComparePredicate*>(pred);
      if (cmp->col() != col) return DerivedSet{RangeSet::All(), false};
      DYNOPT_ASSIGN_OR_RETURN(Value v, cmp->operand().Bind(params));
      if (cmp->op() == CompareOp::kNe) {
        // col <> v: everything outside the equality range — two ranges.
        return DerivedSet{
            RangeSet::Of(RangeForCompare(CompareOp::kEq, v)).Complement(),
            true};
      }
      return DerivedSet{RangeSet::Of(RangeForCompare(cmp->op(), v)), true};
    }
    case Predicate::Kind::kBetween: {
      const auto* btw = static_cast<const BetweenPredicate*>(pred);
      if (btw->col() != col) return DerivedSet{RangeSet::All(), false};
      DYNOPT_ASSIGN_OR_RETURN(Value lo, btw->lo().Bind(params));
      DYNOPT_ASSIGN_OR_RETURN(Value hi, btw->hi().Bind(params));
      RangeSet set =
          RangeSet::Of(RangeForCompare(CompareOp::kGe, lo))
              .IntersectWith(RangeSet::Of(RangeForCompare(CompareOp::kLe, hi)));
      return DerivedSet{std::move(set), true};
    }
    case Predicate::Kind::kContains:
    case Predicate::Kind::kMod:
      // Not sargable: unconstrained on this column (and inexact, so a NOT
      // above cannot complement it into a false emptiness proof).
      return DerivedSet{RangeSet::All(), false};
    case Predicate::Kind::kAnd: {
      const auto* nary = static_cast<const NaryPredicate*>(pred);
      DerivedSet acc{RangeSet::All(), true};
      for (const auto& child : nary->children()) {
        DYNOPT_ASSIGN_OR_RETURN(DerivedSet d,
                                DeriveSet(child.get(), col, params));
        acc.set = acc.set.IntersectWith(d.set);
        acc.exact &= d.exact;
      }
      return acc;
    }
    case Predicate::Kind::kOr: {
      const auto* nary = static_cast<const NaryPredicate*>(pred);
      DerivedSet acc{RangeSet::Empty(), true};
      for (const auto& child : nary->children()) {
        DYNOPT_ASSIGN_OR_RETURN(DerivedSet d,
                                DeriveSet(child.get(), col, params));
        acc.set = acc.set.UnionWith(d.set);
        acc.exact &= d.exact;
      }
      return acc;
    }
    case Predicate::Kind::kNot: {
      const auto* neg = static_cast<const NotPredicate*>(pred);
      DYNOPT_ASSIGN_OR_RETURN(DerivedSet d,
                              DeriveSet(neg->child().get(), col, params));
      if (!d.exact) return DerivedSet{RangeSet::All(), false};
      return DerivedSet{d.set.Complement(), true};
    }
  }
  return Status::Internal("unreachable predicate kind");
}

}  // namespace

PredicateRef Predicate::True() { return std::make_shared<TruePredicate>(); }

PredicateRef Predicate::Compare(uint32_t col, CompareOp op, Operand operand) {
  return std::make_shared<ComparePredicate>(col, op, std::move(operand));
}

PredicateRef Predicate::Between(uint32_t col, Operand lo, Operand hi) {
  return std::make_shared<BetweenPredicate>(col, std::move(lo), std::move(hi));
}

PredicateRef Predicate::Contains(uint32_t col, std::string needle) {
  return std::make_shared<ContainsPredicate>(col, std::move(needle));
}

PredicateRef Predicate::Mod(uint32_t col, int64_t modulus, int64_t residue) {
  return std::make_shared<ModPredicate>(col, modulus, residue);
}

PredicateRef Predicate::And(std::vector<PredicateRef> children) {
  return std::make_shared<NaryPredicate>(Kind::kAnd, std::move(children));
}

PredicateRef Predicate::Or(std::vector<PredicateRef> children) {
  return std::make_shared<NaryPredicate>(Kind::kOr, std::move(children));
}

PredicateRef Predicate::Not(PredicateRef child) {
  return std::make_shared<NotPredicate>(std::move(child));
}

namespace {

/// Keeps only the selection entries whose mask bit is set.
void CompactSelection(const uint8_t* mask, std::vector<uint32_t>* sel) {
  size_t out = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    (*sel)[out] = (*sel)[i];
    out += mask[i] != 0;
  }
  sel->resize(out);
}

}  // namespace

Status FilterSelection(const Predicate& pred, const BatchView& view,
                       const ParamMap& params, BatchEvalScratch* scratch,
                       std::vector<uint32_t>* sel) {
  if (sel->empty()) return Status::OK();
  if (pred.kind() == Predicate::Kind::kAnd) {
    // Evaluate conjunct by conjunct, compacting between conjuncts so later
    // (typically more expensive) conjuncts only see surviving rows.
    const auto& nary = static_cast<const NaryPredicate&>(pred);
    for (const auto& child : nary.children()) {
      scratch->mask.resize(sel->size());
      DYNOPT_RETURN_IF_ERROR(child->EvalBatch(
          view, params, sel->data(), sel->size(), scratch->mask.data()));
      CompactSelection(scratch->mask.data(), sel);
      if (sel->empty()) return Status::OK();
    }
    return Status::OK();
  }
  scratch->mask.resize(sel->size());
  DYNOPT_RETURN_IF_ERROR(pred.EvalBatch(view, params, sel->data(),
                                        sel->size(), scratch->mask.data()));
  CompactSelection(scratch->mask.data(), sel);
  return Status::OK();
}

Result<EncodedRange> ExtractRange(const PredicateRef& pred, uint32_t col,
                                  const ParamMap& params) {
  DYNOPT_ASSIGN_OR_RETURN(RangeSet set, ExtractRangeSet(pred, col, params));
  return set.Hull();
}

Result<RangeSet> ExtractRangeSet(const PredicateRef& pred, uint32_t col,
                                 const ParamMap& params) {
  DYNOPT_ASSIGN_OR_RETURN(DerivedSet d, DeriveSet(pred.get(), col, params));
  return std::move(d.set);
}

namespace {

void SummarizeInto(const Predicate* pred, uint32_t col, SargSummary* out) {
  switch (pred->kind()) {
    case Predicate::Kind::kAnd: {
      const auto* nary = static_cast<const NaryPredicate*>(pred);
      for (const auto& child : nary->children()) {
        SummarizeInto(child.get(), col, out);
      }
      return;
    }
    case Predicate::Kind::kCompare: {
      const auto* cmp = static_cast<const ComparePredicate*>(pred);
      if (cmp->col() != col) return;
      out->any_host_var |= cmp->operand().is_host_var();
      if (cmp->op() == CompareOp::kEq) {
        out->eq_conjuncts++;
      } else if (cmp->op() != CompareOp::kNe) {
        out->range_conjuncts++;
      }
      return;
    }
    case Predicate::Kind::kBetween: {
      const auto* btw = static_cast<const BetweenPredicate*>(pred);
      if (btw->col() != col) return;
      out->any_host_var |=
          btw->lo().is_host_var() || btw->hi().is_host_var();
      out->range_conjuncts += 2;
      return;
    }
    default:
      return;
  }
}

}  // namespace

SargSummary SummarizeSargs(const PredicateRef& pred, uint32_t col) {
  SargSummary out;
  SummarizeInto(pred.get(), col, &out);
  return out;
}

bool PredicateCoveredBy(const PredicateRef& pred,
                        const std::set<uint32_t>& available) {
  std::set<uint32_t> cols;
  pred->CollectColumns(&cols);
  for (uint32_t c : cols) {
    if (available.find(c) == available.end()) return false;
  }
  return true;
}

namespace {

/// True for plain comparisons/BETWEENs on `col` — conjuncts fully
/// expressible as key ranges.
bool IsPlainSargOn(const PredicateRef& pred, uint32_t col) {
  if (pred->kind() == Predicate::Kind::kCompare) {
    return static_cast<const ComparePredicate*>(pred.get())->col() == col;
  }
  if (pred->kind() == Predicate::Kind::kBetween) {
    return static_cast<const BetweenPredicate*>(pred.get())->col() == col;
  }
  return false;
}

PredicateRef FilterConjuncts(
    const PredicateRef& pred,
    const std::function<bool(const PredicateRef&)>& keep) {
  if (pred->kind() == Predicate::Kind::kAnd) {
    const auto* nary = static_cast<const NaryPredicate*>(pred.get());
    std::vector<PredicateRef> kept;
    for (const auto& child : nary->children()) {
      if (keep(child)) kept.push_back(child);
    }
    if (kept.empty()) return nullptr;
    if (kept.size() == 1) return kept[0];
    return Predicate::And(std::move(kept));
  }
  return keep(pred) ? pred : nullptr;
}

}  // namespace

PredicateRef CoveredConjunction(const PredicateRef& pred,
                                const std::set<uint32_t>& available) {
  return FilterConjuncts(pred, [&](const PredicateRef& p) {
    return PredicateCoveredBy(p, available);
  });
}

PredicateRef ScreeningConjunction(const PredicateRef& pred,
                                  const std::set<uint32_t>& available,
                                  uint32_t sarg_col) {
  return FilterConjuncts(pred, [&](const PredicateRef& p) {
    return PredicateCoveredBy(p, available) && !IsPlainSargOn(p, sarg_col);
  });
}

}  // namespace dynopt
