// Hand-rolled JSON emission (no third-party deps).
//
// All observability exports — typed traces, metrics snapshots, query-class
// profiles, EXPLAIN reports, bench results — render through this writer so
// machines can consume what used to be free-form text. The writer tracks
// nesting and comma placement; values are escaped per RFC 8259 and numbers
// are printed deterministically (no locale, no scientific surprises for
// integral values).

#ifndef DYNOPT_OBS_JSON_H_
#define DYNOPT_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dynopt {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view s);

/// Streaming JSON builder. Begin/End calls must balance; Key() is required
/// before any value inside an object. Misuse is a programming error and is
/// kept cheap to check (no exceptions, no allocation beyond the output).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);   // non-finite values render as null
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value);
  /// Splices pre-rendered JSON (e.g. a document built by another writer)
  /// in value position. The caller vouches for its validity.
  JsonWriter& Raw(std::string_view json);

  /// Convenience: Key(key) + value.
  JsonWriter& KV(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, double value) {
    return Key(key).Number(value);
  }
  JsonWriter& KV(std::string_view key, uint64_t value) {
    return Key(key).Uint(value);
  }
  JsonWriter& KV(std::string_view key, bool value) {
    return Key(key).Bool(value);
  }

  const std::string& str() const { return out_; }

 private:
  /// Emits the separating comma when a container already holds a value.
  void Separate();

  std::string out_;
  std::vector<bool> has_value_;  // per open container
  bool pending_key_ = false;
};

}  // namespace dynopt

#endif  // DYNOPT_OBS_JSON_H_
