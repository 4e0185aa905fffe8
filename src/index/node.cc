#include "index/node.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace dynopt {

namespace {

Status NodeCorruption(PageId id, const std::string& what) {
  return Status::Corruption("node page " + std::to_string(id) + ": " + what);
}

/// Bounds-checks slot `i`'s entry against a header-sane `free_off`.
Status CheckEntryAt(const uint8_t* p, PageId id, uint16_t i, bool leaf,
                    uint16_t free_off) {
  uint16_t off = PageRead<uint16_t>(p, kPageSize - 2 * (i + 1));
  if (off < kNodeHeaderSize || static_cast<size_t>(off) + 2 > free_off) {
    return NodeCorruption(id, "slot " + std::to_string(i) +
                                  " offset out of bounds");
  }
  uint16_t klen = PageRead<uint16_t>(p, off);
  size_t payload = leaf ? 8 : 12;
  if (klen > kMaxKeySize ||
      static_cast<size_t>(off) + 2 + klen + payload > free_off) {
    return NodeCorruption(id, "entry " + std::to_string(i) +
                                  " overruns the entry area");
  }
  return Status::OK();
}

}  // namespace

Status NodeRef::CheckHeader(const uint8_t* p, PageId id) {
  uint8_t type = p[0];
  if (type != static_cast<uint8_t>(NodeType::kLeaf) &&
      type != static_cast<uint8_t>(NodeType::kInternal)) {
    return NodeCorruption(id, "unrecognized node type " + std::to_string(type));
  }
  bool leaf = type == static_cast<uint8_t>(NodeType::kLeaf);
  uint8_t level = p[1];
  if (leaf ? level != 1 : level < 2) {
    return NodeCorruption(id, "level " + std::to_string(level) +
                                  " inconsistent with node type");
  }
  uint16_t n = PageRead<uint16_t>(p, 2);
  uint16_t free_off = PageRead<uint16_t>(p, 4);
  uint16_t dead = PageRead<uint16_t>(p, 6);
  if (free_off < kNodeHeaderSize || free_off > kPageSize) {
    return NodeCorruption(id, "free_off " + std::to_string(free_off) +
                                  " out of bounds");
  }
  if (static_cast<size_t>(n) * 2 > kPageSize - free_off) {
    return NodeCorruption(id, "slot directory (count " + std::to_string(n) +
                                  ") overlaps the entry area");
  }
  if (dead > free_off - kNodeHeaderSize) {
    return NodeCorruption(id, "dead_bytes exceeds the entry area");
  }
  if (!leaf) {
    if (n == 0) return NodeCorruption(id, "internal node with no entries");
    DYNOPT_RETURN_IF_ERROR(CheckEntryAt(p, id, 0, false, free_off));
    uint16_t off0 = PageRead<uint16_t>(p, kPageSize - 2);
    if (PageRead<uint16_t>(p, off0) != 0) {
      return NodeCorruption(id, "missing -infinity sentinel entry");
    }
  }
  return Status::OK();
}

Status NodeRef::CheckBytes(const uint8_t* p, PageId id) {
  DYNOPT_RETURN_IF_ERROR(CheckHeader(p, id));
  bool leaf = p[0] == static_cast<uint8_t>(NodeType::kLeaf);
  uint16_t n = PageRead<uint16_t>(p, 2);
  uint16_t free_off = PageRead<uint16_t>(p, 4);
  for (uint16_t i = 0; i < n; ++i) {
    DYNOPT_RETURN_IF_ERROR(CheckEntryAt(p, id, i, leaf, free_off));
  }
  return Status::OK();
}

void NodeRef::Init(NodeType type, uint8_t level) {
  std::memset(p_, 0, kNodeHeaderSize);
  p_[0] = static_cast<uint8_t>(type);
  p_[1] = level;
  set_count(0);
  set_free_off(kNodeHeaderSize);
  set_dead_bytes(0);
  set_next_leaf(kInvalidPageId);
}

std::string_view NodeRef::Key(uint16_t i) const {
  assert(i < count());
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  return std::string_view(reinterpret_cast<const char*>(p_) + off + 2, klen);
}

Rid NodeRef::LeafRid(uint16_t i) const {
  assert(is_leaf() && i < count());
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  return Rid::FromU64(PageRead<uint64_t>(p_, off + 2 + klen));
}

PageId NodeRef::ChildId(uint16_t i) const {
  assert(!is_leaf() && i < count());
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  return PageRead<PageId>(p_, off + 2 + klen);
}

uint64_t NodeRef::ChildCount(uint16_t i) const {
  assert(!is_leaf() && i < count());
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  return PageRead<uint64_t>(p_, off + 2 + klen + 4);
}

void NodeRef::SetChildCount(uint16_t i, uint64_t c) {
  assert(!is_leaf() && i < count());
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  PageWrite<uint64_t>(p_, off + 2 + klen + 4, c);
}

uint16_t NodeRef::LowerBound(std::string_view key,
                             RelaxedCounter* compares) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = lo + (hi - lo) / 2;
    if (compares != nullptr) (*compares)++;
    if (Key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t NodeRef::UpperBound(std::string_view key,
                             RelaxedCounter* compares) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = lo + (hi - lo) / 2;
    if (compares != nullptr) (*compares)++;
    if (Key(mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t NodeRef::ChildIndexFor(std::string_view key,
                                RelaxedCounter* compares) const {
  uint16_t ub = UpperBound(key, compares);
  // Store-sourced pages without the sentinel are rejected by CheckHeader
  // before descent gets here; the assert guards in-memory invariants.
  // Clamp regardless so a release build never indexes slot 65535.
  assert(ub > 0 && "internal node missing -infinity sentinel entry");
  if (ub == 0) return 0;
  return static_cast<uint16_t>(ub - 1);
}

size_t NodeRef::EntrySize(uint16_t i) const {
  uint16_t off = SlotOffset(i);
  uint16_t klen = PageRead<uint16_t>(p_, off);
  return 2 + klen + PayloadSize();
}

size_t NodeRef::FreeSpace() const {
  size_t slots_start = kPageSize - 2 * count();
  size_t fo = free_off();
  assert(slots_start >= fo);
  return slots_start - fo;
}

bool NodeRef::Fits(size_t key_len) const {
  return FreeSpace() >= 2 + key_len + PayloadSize() + 2;
}

bool NodeRef::FitsAfterCompaction(size_t key_len) const {
  return FreeSpace() + dead_bytes() >= 2 + key_len + PayloadSize() + 2;
}

Status NodeRef::InsertRaw(uint16_t pos, std::string_view key,
                          const uint8_t* payload, size_t payload_size) {
  assert(pos <= count());
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("index key exceeds kMaxKeySize");
  }
  size_t need = 2 + key.size() + payload_size;
  if (FreeSpace() < need + 2) {
    if (FreeSpace() + dead_bytes() < need + 2) {
      return Status::ResourceExhausted("node full");  // caller must split
    }
    Compact();
  }
  uint16_t off = free_off();
  PageWrite<uint16_t>(p_, off, static_cast<uint16_t>(key.size()));
  // The internal node's −∞ sentinel is an empty key whose data() is null.
  if (!key.empty()) std::memcpy(p_ + off + 2, key.data(), key.size());
  std::memcpy(p_ + off + 2 + key.size(), payload, payload_size);
  // Open slot `pos`: shift slots [pos, count) one position further down.
  uint16_t n = count();
  if (pos < n) {
    // Slot i lives at kPageSize - 2(i+1); moving logical slots pos..n-1 to
    // pos+1..n means moving bytes [kPageSize-2n, kPageSize-2pos) down 2.
    std::memmove(p_ + kPageSize - 2 * (n + 1), p_ + kPageSize - 2 * n,
                 2 * (n - pos));
  }
  set_count(static_cast<uint16_t>(n + 1));
  SetSlotOffset(pos, off);
  set_free_off(static_cast<uint16_t>(off + need));
  return Status::OK();
}

Status NodeRef::InsertLeafEntry(uint16_t pos, std::string_view key, Rid rid) {
  assert(is_leaf());
  uint8_t payload[8];
  uint64_t v = rid.ToU64();
  std::memcpy(payload, &v, 8);
  return InsertRaw(pos, key, payload, 8);
}

Status NodeRef::InsertInternalEntry(uint16_t pos, std::string_view key,
                                    PageId child, uint64_t cnt) {
  assert(!is_leaf());
  uint8_t payload[12];
  std::memcpy(payload, &child, 4);
  std::memcpy(payload + 4, &cnt, 8);
  return InsertRaw(pos, key, payload, 12);
}

void NodeRef::RemoveEntry(uint16_t pos) {
  uint16_t n = count();
  assert(pos < n);
  set_dead_bytes(static_cast<uint16_t>(dead_bytes() + EntrySize(pos)));
  // Close slot `pos`: shift slots (pos, n) one position up.
  if (pos + 1 < n) {
    std::memmove(p_ + kPageSize - 2 * n + 2, p_ + kPageSize - 2 * n,
                 2 * (n - pos - 1));
  }
  set_count(static_cast<uint16_t>(n - 1));
}

void NodeRef::Compact() {
  uint16_t n = count();
  std::vector<uint8_t> area;
  area.reserve(free_off());
  std::vector<uint16_t> new_offsets(n);
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off = SlotOffset(i);
    size_t sz = EntrySize(i);
    new_offsets[i] = static_cast<uint16_t>(kNodeHeaderSize + area.size());
    area.insert(area.end(), p_ + off, p_ + off + sz);
  }
  std::memcpy(p_ + kNodeHeaderSize, area.data(), area.size());
  for (uint16_t i = 0; i < n; ++i) SetSlotOffset(i, new_offsets[i]);
  set_free_off(static_cast<uint16_t>(kNodeHeaderSize + area.size()));
  set_dead_bytes(0);
}

uint64_t NodeRef::SubtreeCount() const {
  if (is_leaf()) return count();
  uint64_t total = 0;
  for (uint16_t i = 0; i < count(); ++i) total += ChildCount(i);
  return total;
}

}  // namespace dynopt
