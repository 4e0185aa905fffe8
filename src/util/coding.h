// Little-endian fixed-width encoding shared by every durable format: the
// WAL and its archive segments and MANIFEST, the catalog blob, and the
// profile-store and learned-selectivity blobs the catalog embeds.
//
// The Put* appenders write to a std::string. ByteReader reads the same
// encoding back from untrusted bytes: every read fails (returns false and
// consumes nothing) on short input, and no read sizes an allocation from a
// count found in the input. Callers decode a counted sequence element by
// element, so a corrupt count fails on the bytes actually present.

#ifndef DYNOPT_UTIL_CODING_H_
#define DYNOPT_UTIL_CODING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dynopt {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// The IEEE-754 bit pattern, as PutU64.
void PutF64(std::string* out, double v);
/// A u32 byte length, then the bytes.
void PutStr(std::string* out, std::string_view s);

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool U8(uint8_t* v);
  [[nodiscard]] bool U32(uint32_t* v);
  [[nodiscard]] bool U64(uint64_t* v);
  [[nodiscard]] bool F64(double* v);
  /// A PutStr string. A length prefix that runs past the end fails before
  /// anything is allocated.
  [[nodiscard]] bool Str(std::string* v);

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  bool Fixed(T* v);

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_UTIL_CODING_H_
