#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace cyclestream {
namespace obs {

bool Json::AsBool() const {
  CYCLESTREAM_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double Json::AsDouble() const {
  switch (kind_) {
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kDouble: return double_;
    default: CYCLESTREAM_CHECK(false && "Json::AsDouble on non-number");
  }
  return 0.0;
}

std::uint64_t Json::AsUint64() const {
  if (kind_ == Kind::kInt) {
    CYCLESTREAM_CHECK_GE(int_, 0);
    return static_cast<std::uint64_t>(int_);
  }
  CYCLESTREAM_CHECK(kind_ == Kind::kUint);
  return uint_;
}

std::int64_t Json::AsInt64() const {
  if (kind_ == Kind::kUint) {
    CYCLESTREAM_CHECK_LE(uint_, static_cast<std::uint64_t>(INT64_MAX));
    return static_cast<std::int64_t>(uint_);
  }
  CYCLESTREAM_CHECK(kind_ == Kind::kInt);
  return int_;
}

const std::string& Json::AsString() const {
  CYCLESTREAM_CHECK(kind_ == Kind::kString);
  return string_;
}

Json& Json::Set(std::string key, Json value) {
  CYCLESTREAM_CHECK(kind_ == Kind::kObject);
  for (auto& entry : object_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& entry : object_) {
    if (entry.first == key) return &entry.second;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  CYCLESTREAM_CHECK(kind_ == Kind::kObject);
  return object_;
}

Json& Json::Push(Json value) {
  CYCLESTREAM_CHECK(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kArray: return array_.size();
    case Kind::kObject: return object_.size();
    case Kind::kString: return string_.size();
    default: return 0;
  }
}

const Json& Json::at(std::size_t index) const {
  CYCLESTREAM_CHECK(kind_ == Kind::kArray);
  CYCLESTREAM_CHECK_LT(index, array_.size());
  return array_[index];
}

namespace {

void EscapeStringTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kUint: {
      char buf[24];
      auto res = std::to_chars(buf, buf + sizeof(buf), uint_);
      out->append(buf, res.ptr);
      break;
    }
    case Kind::kInt: {
      char buf[24];
      auto res = std::to_chars(buf, buf + sizeof(buf), int_);
      out->append(buf, res.ptr);
      break;
    }
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        *out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buf[32];
      auto res = std::to_chars(buf, buf + sizeof(buf), double_);
      std::string_view text(buf, static_cast<std::size_t>(res.ptr - buf));
      out->append(text);
      // Keep doubles distinguishable from integers on re-parse.
      if (text.find('.') == std::string_view::npos &&
          text.find('e') == std::string_view::npos &&
          text.find('E') == std::string_view::npos) {
        *out += ".0";
      }
      break;
    }
    case Kind::kString:
      EscapeStringTo(string_, out);
      break;
    case Kind::kArray: {
      out->push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        EscapeStringTo(object_[i].first, out);
        out->push_back(':');
        object_[i].second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

bool Json::operator==(const Json& other) const {
  // Integer kinds unify: Json(5) == parsed "5" regardless of signedness.
  const bool this_int = kind_ == Kind::kUint || kind_ == Kind::kInt;
  const bool other_int = other.kind_ == Kind::kUint || other.kind_ == Kind::kInt;
  if (this_int && other_int) {
    const bool this_neg = kind_ == Kind::kInt && int_ < 0;
    const bool other_neg = other.kind_ == Kind::kInt && other.int_ < 0;
    if (this_neg != other_neg) return false;
    if (this_neg) return int_ == other.int_;
    return AsUint64() == other.AsUint64();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kDouble: return double_ == other.double_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
    default: return false;  // unreachable; integer kinds handled above
  }
}

}  // namespace obs
}  // namespace cyclestream
