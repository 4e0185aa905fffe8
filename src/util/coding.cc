#include "util/coding.h"

#include <bit>

namespace dynopt {

namespace {

template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<char>(v >> (8 * i));
  }
  out->append(buf, sizeof(T));
}

}  // namespace

void PutU8(std::string* out, uint8_t v) { PutFixed(out, v); }
void PutU32(std::string* out, uint32_t v) { PutFixed(out, v); }
void PutU64(std::string* out, uint64_t v) { PutFixed(out, v); }

void PutF64(std::string* out, double v) {
  PutFixed(out, std::bit_cast<uint64_t>(v));
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

template <typename T>
bool ByteReader::Fixed(T* v) {
  if (bytes_.size() - pos_ < sizeof(T)) return false;
  T x = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    x |= static_cast<T>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  *v = x;
  pos_ += sizeof(T);
  return true;
}

bool ByteReader::U8(uint8_t* v) { return Fixed(v); }
bool ByteReader::U32(uint32_t* v) { return Fixed(v); }
bool ByteReader::U64(uint64_t* v) { return Fixed(v); }

bool ByteReader::F64(double* v) {
  uint64_t bits = 0;
  if (!Fixed(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::Str(std::string* v) {
  const size_t start = pos_;
  uint32_t n = 0;
  if (!Fixed(&n)) return false;
  if (bytes_.size() - pos_ < n) {
    pos_ = start;
    return false;
  }
  v->assign(bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

}  // namespace dynopt
