#include "expr/value.h"

#include <cstring>
#include <sstream>

#include "util/key_codec.h"

namespace dynopt {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Result<int> Value::Compare(const Value& other) const {
  if (type() != other.type()) {
    return Status::InvalidArgument("comparing mismatched value types");
  }
  switch (type()) {
    case ValueType::kInt64: {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return Status::Internal("unreachable value type");
}

void Value::EncodeKey(std::string* out) const {
  switch (type()) {
    case ValueType::kInt64:
      EncodeInt64(AsInt64(), out);
      return;
    case ValueType::kDouble:
      EncodeDouble(AsDouble(), out);
      return;
    case ValueType::kString:
      EncodeString(AsString(), out);
      return;
  }
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kInt64:
      os << AsInt64();
      break;
    case ValueType::kDouble:
      os << AsDouble();
      break;
    case ValueType::kString:
      os << '"' << AsString() << '"';
      break;
  }
  return os.str();
}

void ColumnVector::Reserve(size_t n) {
  switch (mode_) {
    case Mode::kEmpty:
    case Mode::kInt64:
      i64_.reserve(n);
      break;
    case Mode::kDouble:
      f64_.reserve(n);
      break;
    case Mode::kString:
      str_.reserve(n);
      break;
    case Mode::kMixed:
      mixed_.reserve(n);
      break;
  }
}

void ColumnVector::DemoteToMixed() {
  mixed_.clear();
  mixed_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) mixed_.push_back(ValueAt(i));
  mode_ = Mode::kMixed;
}

void ColumnVector::AppendInt64(int64_t v) {
  if (mode_ == Mode::kEmpty) mode_ = Mode::kInt64;
  if (mode_ == Mode::kInt64) {
    i64_.push_back(v);
    size_++;
    return;
  }
  Append(Value(v));
}

void ColumnVector::AppendDouble(double v) {
  if (mode_ == Mode::kEmpty) mode_ = Mode::kDouble;
  if (mode_ == Mode::kDouble) {
    f64_.push_back(v);
    size_++;
    return;
  }
  Append(Value(v));
}

void ColumnVector::AppendString(std::string_view v) {
  if (mode_ == Mode::kEmpty) mode_ = Mode::kString;
  if (mode_ == Mode::kString) {
    if (size_ < str_.size()) {
      str_[size_].assign(v);  // recycle the slot's allocation
    } else {
      str_.emplace_back(v);
    }
    size_++;
    return;
  }
  Append(Value(std::string(v)));
}

Status ColumnVector::Extend(ValueType type, size_t n) {
  Mode want = type == ValueType::kInt64    ? Mode::kInt64
               : type == ValueType::kDouble ? Mode::kDouble
                                            : Mode::kString;
  if (mode_ == Mode::kEmpty) mode_ = want;
  if (mode_ != want) {
    return Status::InvalidArgument("column vector holds another type");
  }
  if (want == Mode::kInt64) {
    i64_.resize(size_ + n);
  } else if (want == Mode::kDouble) {
    f64_.resize(size_ + n);
  } else if (str_.size() < size_ + n) {
    str_.resize(size_ + n);
  }
  size_ += n;
  return Status::OK();
}

void ColumnVector::Append(const Value& v) {
  switch (mode_) {
    case Mode::kEmpty:
    case Mode::kInt64:
      if (v.is_int64()) {
        AppendInt64(v.AsInt64());
        return;
      }
      break;
    case Mode::kDouble:
      if (v.is_double()) {
        AppendDouble(v.AsDouble());
        return;
      }
      break;
    case Mode::kString:
      if (v.is_string()) {
        AppendString(v.AsString());
        return;
      }
      break;
    case Mode::kMixed:
      mixed_.push_back(v);
      size_++;
      return;
  }
  DemoteToMixed();
  mixed_.push_back(v);
  size_++;
}

void ColumnVector::AppendFrom(const ColumnVector& src, const uint32_t* rows,
                              size_t n) {
  if (n == 0) return;
  if (mode_ == Mode::kEmpty) mode_ = src.mode_;
  if (mode_ != src.mode_) {
    for (size_t i = 0; i < n; ++i) Append(src.ValueAt(rows[i]));
    return;
  }
  switch (mode_) {
    case Mode::kInt64: {
      i64_.resize(size_ + n);
      int64_t* out = i64_.data() + size_;
      for (size_t i = 0; i < n; ++i) out[i] = src.i64_[rows[i]];
      size_ += n;
      return;
    }
    case Mode::kDouble: {
      f64_.resize(size_ + n);
      double* out = f64_.data() + size_;
      for (size_t i = 0; i < n; ++i) out[i] = src.f64_[rows[i]];
      size_ += n;
      return;
    }
    case Mode::kString:
      for (size_t i = 0; i < n; ++i) AppendString(src.str_[rows[i]]);
      return;
    case Mode::kMixed:
      for (size_t i = 0; i < n; ++i) mixed_.push_back(src.mixed_[rows[i]]);
      size_ += n;
      return;
    case Mode::kEmpty:
      break;
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  switch (mode_) {
    case Mode::kInt64:
      return Value(i64_[i]);
    case Mode::kDouble:
      return Value(f64_[i]);
    case Mode::kString:
      return Value(str_[i]);
    case Mode::kMixed:
      return mixed_[i];
    case Mode::kEmpty:
      break;
  }
  return Value();
}

Result<uint32_t> Schema::ColumnIndex(std::string_view name) const {
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + std::string(name));
}

namespace {

void AppendU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

Status ReadU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return Status::Corruption("record truncated");
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return Status::OK();
}

}  // namespace

Status SerializeRecord(const Schema& schema, const Record& record,
                       std::string* out) {
  if (record.size() != schema.num_columns()) {
    return Status::InvalidArgument("record arity does not match schema");
  }
  for (size_t i = 0; i < record.size(); ++i) {
    if (record[i].type() != schema.column(i).type) {
      return Status::InvalidArgument(
          "column " + schema.column(i).name + " expects " +
          std::string(ValueTypeName(schema.column(i).type)));
    }
    switch (record[i].type()) {
      case ValueType::kInt64: {
        int64_t v = record[i].AsInt64();
        out->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
      case ValueType::kDouble: {
        double v = record[i].AsDouble();
        out->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
      case ValueType::kString: {
        const std::string& s = record[i].AsString();
        AppendU32(static_cast<uint32_t>(s.size()), out);
        out->append(s);
        break;
      }
    }
  }
  return Status::OK();
}

Status DeserializeRecord(const Schema& schema, std::string_view data,
                         Record* out) {
  out->clear();
  out->reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    switch (schema.column(i).type) {
      case ValueType::kInt64: {
        if (data.size() < 8) return Status::Corruption("record truncated");
        int64_t v;
        std::memcpy(&v, data.data(), 8);
        data.remove_prefix(8);
        out->emplace_back(v);
        break;
      }
      case ValueType::kDouble: {
        if (data.size() < 8) return Status::Corruption("record truncated");
        double v;
        std::memcpy(&v, data.data(), 8);
        data.remove_prefix(8);
        out->emplace_back(v);
        break;
      }
      case ValueType::kString: {
        uint32_t len;
        DYNOPT_RETURN_IF_ERROR(ReadU32(&data, &len));
        if (data.size() < len) return Status::Corruption("record truncated");
        out->emplace_back(std::string(data.substr(0, len)));
        data.remove_prefix(len);
        break;
      }
    }
  }
  if (!data.empty()) return Status::Corruption("trailing bytes in record");
  return Status::OK();
}

Status DecodeRecords(const Schema& schema,
                     std::span<const std::string_view> records,
                     ColumnVector* const* dests) {
  const size_t n = records.size();
  const size_t columns = schema.num_columns();
  for (size_t c = 0; c < columns; ++c) {
    if (dests[c] != nullptr) {
      DYNOPT_RETURN_IF_ERROR(dests[c]->Extend(schema.column(c).type, n));
    }
  }
  for (size_t r = 0; r < n; ++r) {
    std::string_view data = records[r];
    for (size_t c = 0; c < columns; ++c) {
      ColumnVector* dest = dests[c];
      // Record r's slot in an active column (each grew by n above).
      size_t at = dest == nullptr ? 0 : dest->size() - n + r;
      switch (schema.column(c).type) {
        case ValueType::kInt64: {
          if (data.size() < 8) return Status::Corruption("record truncated");
          if (dest != nullptr) {
            int64_t v;
            std::memcpy(&v, data.data(), 8);
            dest->mutable_i64_data()[at] = v;
          }
          data.remove_prefix(8);
          break;
        }
        case ValueType::kDouble: {
          if (data.size() < 8) return Status::Corruption("record truncated");
          if (dest != nullptr) {
            double v;
            std::memcpy(&v, data.data(), 8);
            dest->mutable_f64_data()[at] = v;
          }
          data.remove_prefix(8);
          break;
        }
        case ValueType::kString: {
          uint32_t len;
          if (data.size() < 4) return Status::Corruption("record truncated");
          std::memcpy(&len, data.data(), 4);
          data.remove_prefix(4);
          if (data.size() < len) return Status::Corruption("record truncated");
          if (dest != nullptr) {
            dest->mutable_str_data()[at].assign(data.data(), len);
          }
          data.remove_prefix(len);
          break;
        }
      }
    }
    if (!data.empty()) return Status::Corruption("trailing bytes in record");
  }
  return Status::OK();
}

}  // namespace dynopt
