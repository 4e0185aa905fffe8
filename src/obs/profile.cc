#include "obs/profile.h"

#include <cstddef>
#include <cstdio>
#include <sstream>

namespace dynopt {

std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kCompetition:
      return "competition";
    case SpanKind::kStrategy:
      return "strategy";
    case SpanKind::kOperator:
      return "operator";
  }
  return "?";
}

void QueryProfile::Begin(std::string_view name) {
  Clear();
  arena_.push_back(ProfileSpan{});
  root_ = &arena_.back();
  root_->kind = SpanKind::kQuery;
  root_->name = std::string(name);
}

void QueryProfile::Clear() {
  arena_.clear();
  root_ = nullptr;
  last_operator_ = nullptr;
  consumption_ = ProfileConsumption{};
}

ProfileSpan* QueryProfile::AddSpan(ProfileSpan* parent, SpanKind kind,
                                   std::string_view name) {
  if (root_ == nullptr || parent == nullptr) return nullptr;
  arena_.push_back(ProfileSpan{});
  ProfileSpan* span = &arena_.back();
  span->kind = kind;
  span->name = std::string(name);
  parent->children.push_back(span);
  return span;
}

ProfileSpan* QueryProfile::AddOperatorSpan(std::string_view name) {
  if (root_ == nullptr) return nullptr;
  ProfileSpan* span = AddSpan(root_, SpanKind::kOperator, name);
  if (last_operator_ != nullptr) {
    // The previous (inner) operator moves under the new (outer) one, so
    // leaf-to-root registration yields the executed-plan nesting.
    auto& siblings = root_->children;
    for (size_t i = 0; i < siblings.size(); ++i) {
      if (siblings[i] == last_operator_) {
        siblings.erase(siblings.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    span->children.push_back(last_operator_);
  }
  last_operator_ = span;
  return span;
}

namespace {

void AppendSpanLine(const ProfileSpan& s, const std::string& prefix,
                    bool last, bool is_root, std::ostringstream* out) {
  if (!is_root) *out << prefix << (last ? "`- " : "|- ");
  *out << SpanKindName(s.kind) << " " << s.name;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %.1fus", s.elapsed_micros);
  *out << buf;
  *out << " rows=" << s.actual_rows;
  if (s.estimated_rows >= 0) {
    std::snprintf(buf, sizeof(buf), " est_rows=%.0f", s.estimated_rows);
    *out << buf;
  }
  if (s.actual_cost > 0) {
    std::snprintf(buf, sizeof(buf), " cost=%.1f", s.actual_cost);
    *out << buf;
  }
  if (s.estimated_cost >= 0) {
    std::snprintf(buf, sizeof(buf), " est_cost=%.1f", s.estimated_cost);
    *out << buf;
  }
  *out << "\n";
  std::string child_prefix =
      is_root ? std::string() : prefix + (last ? "   " : "|  ");
  for (size_t i = 0; i < s.children.size(); ++i) {
    AppendSpanLine(*s.children[i], child_prefix, i + 1 == s.children.size(),
                   false, out);
  }
}

void WriteSpan(JsonWriter* w, const ProfileSpan& s) {
  w->BeginObject();
  w->KV("kind", SpanKindName(s.kind));
  w->KV("name", s.name);
  w->KV("elapsed_micros", s.elapsed_micros);
  if (s.estimated_rows >= 0) w->KV("estimated_rows", s.estimated_rows);
  if (s.estimated_cost >= 0) w->KV("estimated_cost", s.estimated_cost);
  w->KV("actual_rows", s.actual_rows);
  w->KV("actual_cost", s.actual_cost);
  if (!s.children.empty()) {
    w->Key("children").BeginArray();
    for (const ProfileSpan* c : s.children) WriteSpan(w, *c);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

std::string QueryProfile::RenderTree() const {
  std::ostringstream out;
  if (root_ == nullptr) {
    out << "(profiling disabled)\n";
    return out.str();
  }
  AppendSpanLine(*root_, "", true, true, &out);
  const ProfileConsumption& c = consumption_;
  out << "consumption:";
  if (c.governed) {
    out << " pages_read=" << c.pages_read
        << " rid_list_bytes=" << c.rid_list_bytes
        << " spill_bytes=" << c.spill_bytes << " polls=" << c.polls;
  } else {
    out << " ungoverned";
  }
  if (c.pages_repaired > 0) out << " pages_repaired=" << c.pages_repaired;
  out << "\n";
  return out.str();
}

void WriteProfile(JsonWriter* w, const QueryProfile& profile) {
  w->BeginObject();
  w->KV("active", profile.active());
  if (profile.active()) {
    w->Key("spans");
    WriteSpan(w, *profile.root());
    const ProfileConsumption& c = profile.consumption();
    w->Key("consumption").BeginObject();
    w->KV("governed", c.governed);
    w->KV("pages_read", c.pages_read);
    w->KV("rid_list_bytes", c.rid_list_bytes);
    w->KV("spill_bytes", c.spill_bytes);
    w->KV("polls", c.polls);
    w->KV("pages_repaired", c.pages_repaired);
    w->EndObject();
  }
  w->EndObject();
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  WriteProfile(&w, *this);
  return w.str();
}

}  // namespace dynopt
