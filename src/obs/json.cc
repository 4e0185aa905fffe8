#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace dynopt {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted its comma and colon
  }
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!has_value_.empty()) {
    if (has_value_.back()) out_ += ',';
    has_value_.back() = true;
  }
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  // Integral doubles print without a fraction so counters stay exact.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    out_ += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out_ += buf;
  }
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

}  // namespace dynopt
