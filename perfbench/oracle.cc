#include "oracle.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

using dynopt::Value;
using dynopt::ValueType;

namespace {

constexpr uint64_t kRowHashSeed = 0x9ae16a3b2f90404fULL;

const std::array<std::string, kCities>& CityNames() {
  static const std::array<std::string, kCities> names = [] {
    std::array<std::string, kCities> n;
    for (int c = 0; c < kCities; ++c) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "city-%02d", c);
      n[static_cast<size_t>(c)] = buf;
    }
    return n;
  }();
  return names;
}

int64_t IntField(const Row& row, uint32_t col) {
  switch (col) {
    case kId:
      return row.id;
    case kAge:
      return row.age;
    case kIncome:
      return row.income;
    default:
      return 0;
  }
}

}  // namespace

dynopt::Schema FamiliesSchema() {
  return dynopt::Schema({{"id", ValueType::kInt64},
                         {"age", ValueType::kInt64},
                         {"income", ValueType::kInt64},
                         {"city", ValueType::kString},
                         {"payload", ValueType::kString}});
}

std::string CityName(int city) { return CityNames()[static_cast<size_t>(city)]; }

std::string Payload(int64_t id) {
  std::string s(kPayloadBytes, 'a');
  for (size_t i = 0; i < kPayloadBytes; ++i) {
    s[i] = static_cast<char>(
        'a' + (static_cast<uint64_t>(id) * 131 + i * 17) % 26);
  }
  return s;
}

dynopt::Record ToRecord(const Row& row) {
  return {Value(row.id), Value(row.age), Value(row.income),
          Value(CityName(row.city)), Value(Payload(row.id))};
}

Row RandomRow(int64_t id, Rng& rng) {
  Row r;
  r.id = id;
  r.age = static_cast<int64_t>(rng.Below(kAges));
  r.income = static_cast<int64_t>(rng.Below(kIncomes));
  r.city = static_cast<int>(rng.Below(kCities));
  return r;
}

uint64_t UserBytes(const Row& row) {
  return 3 * sizeof(int64_t) + CityNames()[static_cast<size_t>(row.city)].size() +
         kPayloadBytes;
}

uint64_t HashValues(const std::vector<Value>& values) {
  uint64_t h = kRowHashSeed;
  for (const Value& v : values) {
    switch (v.type()) {
      case ValueType::kInt64:
        h = HashInt(h, v.AsInt64());
        break;
      case ValueType::kDouble:
        h = HashInt(h, std::llround(v.AsDouble()));
        break;
      case ValueType::kString:
        h = HashString(h, v.AsString());
        break;
    }
  }
  return h;
}

uint64_t Oracle::HashRow(const Row& row, const std::vector<uint32_t>& proj) {
  uint64_t h = kRowHashSeed;
  for (uint32_t c : proj) {
    if (c == kCity) {
      h = HashString(h, CityNames()[static_cast<size_t>(row.city)]);
    } else if (c == kPayload) {
      h = HashString(h, Payload(row.id));
    } else {
      h = HashInt(h, IntField(row, c));
    }
  }
  return h;
}

void Oracle::Add(const Row& row) {
  rows_.push_back(row);
  alive_.push_back(1);
}

uint64_t Oracle::LiveUserBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (alive_[i] != 0) total += UserBytes(rows_[i]);
  }
  return total;
}

void Oracle::Freeze() {
  by_city_.assign(kCities, {});
  std::vector<size_t> count(kAges + 1, 0);
  for (const Row& r : rows_) {
    by_city_[static_cast<size_t>(r.city)].push_back(static_cast<uint32_t>(r.id));
    count[static_cast<size_t>(r.age) + 1]++;
  }
  age_start_.assign(kAges + 1, 0);
  for (size_t a = 1; a <= static_cast<size_t>(kAges); ++a) {
    age_start_[a] = age_start_[a - 1] + count[a];
  }
  by_age_.assign(rows_.size(), 0);
  std::vector<size_t> next(age_start_.begin(), age_start_.end() - 1);
  for (const Row& r : rows_) {
    by_age_[next[static_cast<size_t>(r.age)]++] = static_cast<uint32_t>(r.id);
  }
  frozen_ = true;
}

bool Oracle::Matches(Restriction r, const Params& p, const Row& row) {
  switch (r) {
    case Restriction::kId:
      return row.id == p.id;
    case Restriction::kConj:
      return row.age >= p.alo && row.age <= p.ahi && row.income >= p.ilo &&
             row.income <= p.ihi && row.city == p.city;
    case Restriction::kAgeIncome:
      return row.age >= p.alo && row.age <= p.ahi && row.income >= p.ilo &&
             row.income <= p.ihi;
    case Restriction::kAnalytic:
      return row.age >= p.alo && row.age <= p.ahi && row.income <= p.imax;
    case Restriction::kIncome:
      return row.income >= p.ilo && row.income <= p.ihi;
    case Restriction::kAll:
      return true;
  }
  return false;
}

template <typename Fn>
void Oracle::ForEachMatch(Restriction r, const Params& p, Fn&& fn) const {
  auto visit = [&](size_t id) {
    if (alive_[id] != 0 && Matches(r, p, rows_[id])) fn(rows_[id]);
  };
  if (r == Restriction::kId) {
    if (p.id >= 0 && static_cast<size_t>(p.id) < rows_.size()) {
      visit(static_cast<size_t>(p.id));
    }
    return;
  }
  if (frozen_ && r == Restriction::kConj) {
    for (uint32_t id : by_city_[static_cast<size_t>(p.city)]) visit(id);
    return;
  }
  if (frozen_ && (r == Restriction::kAgeIncome || r == Restriction::kAnalytic)) {
    int64_t lo = std::max<int64_t>(p.alo, 0);
    int64_t hi = std::min<int64_t>(p.ahi, kAges - 1);
    if (lo > hi) return;
    for (size_t i = age_start_[static_cast<size_t>(lo)];
         i < age_start_[static_cast<size_t>(hi) + 1]; ++i) {
      visit(by_age_[i]);
    }
    return;
  }
  for (size_t id = 0; id < rows_.size(); ++id) visit(id);
}

std::string Oracle::Check(const QueryShape& shape, const Params& p,
                          const Outcome& got) const {
  uint64_t matches = 0;
  uint64_t hash = 0;
  int64_t sum = 0;
  std::unordered_set<uint64_t> distinct;  // kDistinct row hashes
  bool hashed = shape.top == Top::kNone || shape.top == Top::kSort ||
                shape.top == Top::kDistinct;
  ForEachMatch(shape.restriction, p, [&](const Row& row) {
    matches++;
    if (shape.top == Top::kSum) {
      sum += IntField(row, shape.projection[shape.column]);
    }
    if (!hashed) return;
    uint64_t h = HashRow(row, shape.projection);
    hash += h;
    if (shape.top == Top::kDistinct) distinct.insert(h);
  });

  auto mismatch = [&](const char* what, double want, double have) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %s expected %.0f, got %.0f",
                  shape.name.c_str(), what, want, have);
    return std::string(buf);
  };
  switch (shape.top) {
    case Top::kNone:
    case Top::kSort:
      if (got.rows != matches) return mismatch("rows", matches, got.rows);
      if (got.set_hash != hash) return shape.name + ": row set differs";
      if ((shape.top == Top::kSort || shape.order_by.has_value()) &&
          !got.ordered) {
        return shape.name + ": rows out of order";
      }
      return {};
    case Top::kCount:
      if (got.value != static_cast<int64_t>(matches)) {
        return mismatch("count", matches, got.value);
      }
      return {};
    case Top::kSum:
      if (got.value != sum) return mismatch("sum", sum, got.value);
      return {};
    case Top::kExists:
      if (got.value != (matches > 0 ? 1 : 0)) {
        return mismatch("exists", matches > 0, got.value);
      }
      return {};
    case Top::kDistinct: {
      uint64_t dhash = 0;
      for (uint64_t h : distinct) dhash += h;
      if (got.rows != distinct.size()) {
        return mismatch("distinct rows", distinct.size(), got.rows);
      }
      if (got.set_hash != dhash) return shape.name + ": distinct set differs";
      return {};
    }
    case Top::kLimit: {
      uint64_t want = std::min<uint64_t>(shape.limit, matches);
      if (got.rows != want) return mismatch("rows", want, got.rows);
      std::unordered_set<int64_t> seen;
      for (const auto& [id, h] : got.kept) {
        if (!Alive(id) ||
            !Matches(shape.restriction, p, rows_[static_cast<size_t>(id)]) ||
            HashRow(rows_[static_cast<size_t>(id)], shape.projection) != h) {
          return shape.name + ": row " + std::to_string(id) + " does not qualify";
        }
        if (!seen.insert(id).second) return shape.name + ": duplicate row";
      }
      return {};
    }
  }
  return shape.name + ": unknown plan top";
}

}  // namespace perfbench
