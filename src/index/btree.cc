#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dynopt {

namespace {

struct LeafEntryTmp {
  std::string key;
  Rid rid;
};

struct InternalEntryTmp {
  std::string key;
  PageId child;
  uint64_t count;
};

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(BufferPool* pool) {
  std::unique_ptr<BTree> tree(new BTree(pool));
  if (MetricsRegistry* r = pool->metrics()) {
    tree->m_descents_ = r->counter("btree.descents");
    tree->m_node_reads_ = r->counter("btree.node_reads");
    tree->m_estimates_ = r->counter("btree.estimates");
    tree->m_sample_probes_ = r->counter("btree.sample_probes");
  }
  DYNOPT_ASSIGN_OR_RETURN(PageGuard root, pool->NewPage());
  NodeRef n(root.mutable_data());
  n.Init(NodeType::kLeaf, 1);
  tree->root_ = root.id();
  tree->height_ = 1;
  tree->node_count_ = 1;
  tree->leaf_count_ = 1;
  return tree;
}

std::unique_ptr<BTree> BTree::Open(BufferPool* pool, const BTreeMeta& meta) {
  std::unique_ptr<BTree> tree(new BTree(pool));
  if (MetricsRegistry* r = pool->metrics()) {
    tree->m_descents_ = r->counter("btree.descents");
    tree->m_node_reads_ = r->counter("btree.node_reads");
    tree->m_estimates_ = r->counter("btree.estimates");
    tree->m_sample_probes_ = r->counter("btree.sample_probes");
  }
  tree->root_ = meta.root;
  tree->height_ = meta.height;
  tree->entry_count_ = meta.entry_count;
  tree->node_count_ = meta.node_count;
  tree->leaf_count_ = meta.leaf_count;
  tree->slot_sum_ = meta.slot_sum;
  tree->max_fanout_seen_ = meta.max_fanout_seen;
  return tree;
}

BTreeMeta BTree::meta() const {
  BTreeMeta m;
  m.root = root_;
  m.height = height_;
  m.entry_count = entry_count_;
  m.node_count = node_count_;
  m.leaf_count = leaf_count_;
  m.slot_sum = slot_sum_;
  m.max_fanout_seen = max_fanout_seen_;
  return m;
}

double BTree::AvgFanout() const {
  if (node_count_ == 0) return 1.0;
  double f = static_cast<double>(slot_sum_) / static_cast<double>(node_count_);
  return std::max(f, 1.0);
}

Result<PageId> BTree::DescendToLeaf(std::string_view key,
                                    std::vector<PathStep>* path) {
  Bump(m_descents_);
  PageId cur = root_;
  // The depth guard turns a corrupt child pointer that loops back on
  // itself into a typed error instead of an infinite descent.
  for (uint32_t depth = 0;; ++depth) {
    if (depth >= height_) {
      return Status::Corruption("descent exceeded tree height at page " +
                                std::to_string(cur));
    }
    Bump(m_node_reads_);
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(cur));
    DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(page.data(), cur));
    NodeRef n(const_cast<uint8_t*>(page.data()));
    if (n.is_leaf()) return cur;
    uint16_t idx = n.ChildIndexFor(key, &pool_->meter_ptr()->key_compares);
    if (path != nullptr) path->push_back({cur, idx});
    cur = n.ChildId(idx);
  }
}

Status BTree::Insert(std::string_view key, Rid rid) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("index key exceeds kMaxKeySize");
  }
  std::vector<PathStep> path;
  DYNOPT_ASSIGN_OR_RETURN(PageId leaf, DescendToLeaf(key, &path));
  DYNOPT_ASSIGN_OR_RETURN(SplitResult sr, InsertIntoLeaf(leaf, key, rid));
  entry_count_++;
  for (size_t i = path.size(); i-- > 0;) {
    const PathStep& step = path[i];
    if (sr.split) {
      {
        DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(step.page));
        NodeRef n(page.mutable_data());
        n.SetChildCount(step.child_idx, sr.left_count);
      }
      DYNOPT_ASSIGN_OR_RETURN(
          sr, InsertSeparator(step.page,
                              static_cast<uint16_t>(step.child_idx + 1),
                              sr.separator, sr.right_page, sr.right_count));
    } else {
      DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(step.page));
      NodeRef n(page.mutable_data());
      n.SetChildCount(step.child_idx, n.ChildCount(step.child_idx) + 1);
    }
  }
  if (sr.split) {
    DYNOPT_RETURN_IF_ERROR(GrowRoot(sr));
  }
  return Status::OK();
}

Result<BTree::SplitResult> BTree::InsertIntoLeaf(PageId leaf_id,
                                                 std::string_view key,
                                                 Rid rid) {
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(leaf_id));
  NodeRef n(page.mutable_data());
  uint16_t pos = n.LowerBound(key, &pool_->meter_ptr()->key_compares);
  if (pos < n.count() && n.Key(pos) == key) {
    return Status::InvalidArgument("duplicate index key");
  }
  Status st = n.InsertLeafEntry(pos, key, rid);
  if (st.ok()) {
    slot_sum_++;
    max_fanout_seen_ = std::max<uint64_t>(max_fanout_seen_, n.count());
    return SplitResult{};
  }
  if (!st.IsResourceExhausted()) return st;

  // Split: materialize entries (with the pending one), redistribute halves.
  std::vector<LeafEntryTmp> all;
  all.reserve(n.count() + 1);
  for (uint16_t i = 0; i < n.count(); ++i) {
    all.push_back({std::string(n.Key(i)), n.LeafRid(i)});
  }
  all.insert(all.begin() + pos, {std::string(key), rid});
  size_t left_n = all.size() / 2;

  DYNOPT_ASSIGN_OR_RETURN(PageGuard right_page, pool_->NewPage());
  NodeRef r(right_page.mutable_data());
  r.Init(NodeType::kLeaf, 1);
  node_count_++;
  leaf_count_++;

  PageId old_next = n.next_leaf();
  n.Init(NodeType::kLeaf, 1);
  for (size_t i = 0; i < left_n; ++i) {
    DYNOPT_RETURN_IF_ERROR(n.InsertLeafEntry(static_cast<uint16_t>(i),
                                             all[i].key, all[i].rid));
  }
  for (size_t i = left_n; i < all.size(); ++i) {
    DYNOPT_RETURN_IF_ERROR(r.InsertLeafEntry(
        static_cast<uint16_t>(i - left_n), all[i].key, all[i].rid));
  }
  n.set_next_leaf(right_page.id());
  r.set_next_leaf(old_next);
  page.MarkDirty();
  slot_sum_++;  // the pending entry; redistribution preserves the rest

  SplitResult sr;
  sr.split = true;
  sr.separator = all[left_n].key;
  sr.right_page = right_page.id();
  sr.left_count = left_n;
  sr.right_count = all.size() - left_n;
  return sr;
}

Result<BTree::SplitResult> BTree::InsertSeparator(PageId node_id, uint16_t pos,
                                                  std::string_view sep,
                                                  PageId child,
                                                  uint64_t child_count) {
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(node_id));
  NodeRef n(page.mutable_data());
  Status st = n.InsertInternalEntry(pos, sep, child, child_count);
  if (st.ok()) {
    slot_sum_++;
    max_fanout_seen_ = std::max<uint64_t>(max_fanout_seen_, n.count());
    return SplitResult{};
  }
  if (!st.IsResourceExhausted()) return st;

  std::vector<InternalEntryTmp> all;
  all.reserve(n.count() + 1);
  for (uint16_t i = 0; i < n.count(); ++i) {
    all.push_back({std::string(n.Key(i)), n.ChildId(i), n.ChildCount(i)});
  }
  all.insert(all.begin() + pos, {std::string(sep), child, child_count});
  size_t left_n = all.size() / 2;
  assert(left_n >= 1 && left_n < all.size());

  // The separator at the split point moves *up*; the right node's first
  // entry becomes the -infinity sentinel of its subrange.
  std::string pushed_up = all[left_n].key;
  all[left_n].key.clear();

  uint8_t level = n.level();
  DYNOPT_ASSIGN_OR_RETURN(PageGuard right_page, pool_->NewPage());
  NodeRef r(right_page.mutable_data());
  r.Init(NodeType::kInternal, level);
  node_count_++;

  n.Init(NodeType::kInternal, level);
  uint64_t left_count = 0, right_count = 0;
  for (size_t i = 0; i < left_n; ++i) {
    DYNOPT_RETURN_IF_ERROR(n.InsertInternalEntry(
        static_cast<uint16_t>(i), all[i].key, all[i].child, all[i].count));
    left_count += all[i].count;
  }
  for (size_t i = left_n; i < all.size(); ++i) {
    DYNOPT_RETURN_IF_ERROR(
        r.InsertInternalEntry(static_cast<uint16_t>(i - left_n), all[i].key,
                              all[i].child, all[i].count));
    right_count += all[i].count;
  }
  page.MarkDirty();
  slot_sum_++;  // the pending entry (pushed_up key is re-counted by caller)

  SplitResult sr;
  sr.split = true;
  sr.separator = pushed_up;
  sr.right_page = right_page.id();
  sr.left_count = left_count;
  sr.right_count = right_count;
  return sr;
}

Status BTree::GrowRoot(const SplitResult& sr) {
  DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  NodeRef n(page.mutable_data());
  n.Init(NodeType::kInternal, static_cast<uint8_t>(height_ + 1));
  DYNOPT_RETURN_IF_ERROR(
      n.InsertInternalEntry(0, std::string_view(), root_, sr.left_count));
  DYNOPT_RETURN_IF_ERROR(
      n.InsertInternalEntry(1, sr.separator, sr.right_page, sr.right_count));
  root_ = page.id();
  height_++;
  node_count_++;
  slot_sum_ += 2;
  return Status::OK();
}

Status BTree::Delete(std::string_view key) {
  std::vector<PathStep> path;
  DYNOPT_ASSIGN_OR_RETURN(PageId leaf, DescendToLeaf(key, &path));
  {
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(leaf));
    NodeRef n(page.mutable_data());
    uint16_t pos = n.LowerBound(key, &pool_->meter_ptr()->key_compares);
    if (pos >= n.count() || n.Key(pos) != key) {
      return Status::NotFound("key not in index");
    }
    n.RemoveEntry(pos);
  }
  entry_count_--;
  slot_sum_--;
  for (size_t i = path.size(); i-- > 0;) {
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(path[i].page));
    NodeRef n(page.mutable_data());
    n.SetChildCount(path[i].child_idx,
                    n.ChildCount(path[i].child_idx) - 1);
  }
  return Status::OK();
}

Result<RangeEstimate> BTree::EstimateRange(const EncodedRange& range) {
  RangeEstimate est;
  est.fanout_used = AvgFanout();
  if (range.DefinitelyEmpty()) {
    est.exact = true;
    return est;
  }
  Bump(m_estimates_);
  PageId cur = root_;
  uint32_t level = height_;
  for (;;) {
    Bump(m_node_reads_);
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(cur));
    DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(page.data(), cur));
    est.descent_pages++;
    NodeRef n(const_cast<uint8_t*>(page.data()));
    RelaxedCounter* cmp = &pool_->meter_ptr()->key_compares;
    if (n.is_leaf()) {
      uint16_t lo_pos = n.LowerBound(range.lo, cmp);
      uint16_t hi_pos =
          range.hi.empty() ? n.count() : n.LowerBound(range.hi, cmp);
      est.k = hi_pos > lo_pos ? hi_pos - lo_pos : 0;
      est.split_level = 1;
      est.estimated_rids = static_cast<double>(est.k);
      est.exact = true;
      return est;
    }
    uint16_t c_lo = n.ChildIndexFor(range.lo, cmp);
    uint16_t c_hi = range.hi.empty()
                        ? static_cast<uint16_t>(n.count() - 1)
                        : n.ChildIndexFor(range.hi, cmp);
    if (c_lo == c_hi) {
      cur = n.ChildId(c_lo);
      level--;
      continue;
    }
    // Split node found at `level`: k+1 children span the range; the paper
    // counts the two extreme children as one.
    est.k = c_hi - c_lo;
    est.split_level = level;
    est.estimated_rids =
        static_cast<double>(est.k) *
        std::pow(est.fanout_used, static_cast<double>(level - 1));
    est.exact = false;
    return est;
  }
}

Result<RangeEstimate> BTree::EstimateRanges(const RangeSet& set) {
  RangeEstimate total;
  total.exact = true;
  total.fanout_used = AvgFanout();
  total.split_level = 1;
  for (const EncodedRange& r : set.ranges()) {
    DYNOPT_ASSIGN_OR_RETURN(RangeEstimate est, EstimateRange(r));
    total.estimated_rids += est.estimated_rids;
    total.k += est.k;
    total.exact &= est.exact;
    total.split_level = std::max(total.split_level, est.split_level);
    total.descent_pages += est.descent_pages;
  }
  return total;
}

Result<uint64_t> BTree::RankOfKey(std::string_view key) {
  Bump(m_descents_);
  PageId cur = root_;
  uint64_t rank = 0;
  for (;;) {
    Bump(m_node_reads_);
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(cur));
    DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(page.data(), cur));
    NodeRef n(const_cast<uint8_t*>(page.data()));
    RelaxedCounter* cmp = &pool_->meter_ptr()->key_compares;
    if (n.is_leaf()) {
      rank += n.LowerBound(key, cmp);
      return rank;
    }
    uint16_t idx = n.ChildIndexFor(key, cmp);
    for (uint16_t j = 0; j < idx; ++j) rank += n.ChildCount(j);
    cur = n.ChildId(idx);
  }
}

Result<uint64_t> BTree::CountRange(const EncodedRange& range) {
  if (range.DefinitelyEmpty()) return static_cast<uint64_t>(0);
  uint64_t hi_rank = entry_count_;
  if (!range.hi.empty()) {
    DYNOPT_ASSIGN_OR_RETURN(hi_rank, RankOfKey(range.hi));
  }
  uint64_t lo_rank = 0;
  if (!range.lo.empty()) {
    DYNOPT_ASSIGN_OR_RETURN(lo_rank, RankOfKey(range.lo));
  }
  return hi_rank > lo_rank ? hi_rank - lo_rank : 0;
}

Result<std::optional<IndexEntry>> BTree::SampleRange(const EncodedRange& range,
                                                     Rng& rng) {
  DYNOPT_ASSIGN_OR_RETURN(uint64_t count, CountRange(range));
  if (count == 0) return std::optional<IndexEntry>();
  uint64_t lo_rank = 0;
  if (!range.lo.empty()) {
    DYNOPT_ASSIGN_OR_RETURN(lo_rank, RankOfKey(range.lo));
  }
  uint64_t target = lo_rank + rng.NextBounded(count);
  Bump(m_sample_probes_);
  // Ranked selection: descend by subtree counts.
  PageId cur = root_;
  uint64_t rem = target;
  for (;;) {
    Bump(m_node_reads_);
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(cur));
    DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(page.data(), cur));
    NodeRef n(const_cast<uint8_t*>(page.data()));
    if (n.is_leaf()) {
      if (rem >= n.count()) {
        return Status::Corruption("rank selection fell off a leaf");
      }
      IndexEntry e;
      e.key = std::string(n.Key(static_cast<uint16_t>(rem)));
      e.rid = n.LeafRid(static_cast<uint16_t>(rem));
      return std::optional<IndexEntry>(std::move(e));
    }
    bool descended = false;
    for (uint16_t j = 0; j < n.count(); ++j) {
      uint64_t c = n.ChildCount(j);
      if (rem < c) {
        cur = n.ChildId(j);
        descended = true;
        break;
      }
      rem -= c;
    }
    if (!descended) {
      return Status::Corruption("rank selection exceeded subtree counts");
    }
  }
}

Result<std::optional<IndexEntry>> BTree::SampleAcceptReject(Rng& rng) {
  if (entry_count_ == 0) return std::optional<IndexEntry>();
  Bump(m_sample_probes_);
  PageId cur = root_;
  for (;;) {
    Bump(m_node_reads_);
    DYNOPT_ASSIGN_OR_RETURN(PageGuard page, pool_->Pin(cur));
    DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(page.data(), cur));
    NodeRef n(const_cast<uint8_t*>(page.data()));
    uint64_t slot = rng.NextBounded(max_fanout_seen_);
    if (slot >= n.count()) {
      return std::optional<IndexEntry>();  // rejected trial
    }
    if (n.is_leaf()) {
      IndexEntry e;
      e.key = std::string(n.Key(static_cast<uint16_t>(slot)));
      e.rid = n.LeafRid(static_cast<uint16_t>(slot));
      return std::optional<IndexEntry>(std::move(e));
    }
    cur = n.ChildId(static_cast<uint16_t>(slot));
  }
}

Status BTree::Cursor::Seek(std::string_view key) {
  guard_.Release();
  DYNOPT_ASSIGN_OR_RETURN(leaf_, tree_->DescendToLeaf(key, nullptr));
  DYNOPT_ASSIGN_OR_RETURN(guard_, tree_->pool_->Pin(leaf_));
  NodeRef n(const_cast<uint8_t*>(guard_.data()));
  pos_ = n.LowerBound(key, &tree_->pool_->meter_ptr()->key_compares);
  exhausted_ = false;
  return Status::OK();
}

Result<bool> BTree::Cursor::NextBatch(std::string_view hi, size_t max,
                                      RidBatch* out, bool* bound_hit) {
  *bound_hit = false;
  if (exhausted_) return false;
  // One key compare per entry touched, charged once per call on every
  // return path (the meter is read only between steps).
  struct ChargeCompares {
    RelaxedCounter* meter;
    uint64_t n = 0;
    ~ChargeCompares() {
      if (n != 0) meter->Add(n);
    }
  } compares{&tree_->pool_->meter_ptr()->key_compares};
  size_t n = 0;
  for (;;) {
    if (!guard_.valid() || guard_.id() != leaf_) {
      DYNOPT_ASSIGN_OR_RETURN(guard_, tree_->pool_->Pin(leaf_));
      DYNOPT_RETURN_IF_ERROR(NodeRef::CheckHeader(guard_.data(), leaf_));
      if (!NodeRef(const_cast<uint8_t*>(guard_.data())).is_leaf()) {
        return Status::Corruption("leaf chain points at non-leaf page " +
                                  std::to_string(leaf_));
      }
    }
    NodeRef node(const_cast<uint8_t*>(guard_.data()));
    uint16_t count = node.count();
    // Room for what this leaf can still give, not for all of `max`: the
    // range, not the caller's batch size, sizes the allocation.
    if (pos_ < count) {
      out->Reserve(out->size() + std::min<size_t>(count - pos_, max - n));
    }
    while (pos_ < count && n < max) {
      std::string_view key = node.Key(pos_);
      compares.n++;  // per-entry CPU touch
      if (!hi.empty() && key >= hi) {
        // Leave the cursor parked on the bounding entry; the caller
        // either reseeks for the next range or closes.
        *bound_hit = true;
        return false;
      }
      out->Append(key, node.LeafRid(pos_));
      pos_++;
      n++;
    }
    if (n >= max) return true;
    leaf_ = node.next_leaf();
    pos_ = 0;
    if (leaf_ == kInvalidPageId) {
      guard_.Release();
      exhausted_ = true;
      return false;
    }
  }
}

}  // namespace dynopt
