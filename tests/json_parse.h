// JSON parsing for tests: the library writes JSON (obs::Json::Dump) and
// never reads it back, so the parser that checks its output lives here.
// ParseJson(Dump(v)) == v structurally (tests/obs_test.cc), and the
// manifest and flight-dump tests read what the library wrote through it.

#ifndef CYCLESTREAM_TESTS_JSON_PARSE_H_
#define CYCLESTREAM_TESTS_JSON_PARSE_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "obs/json.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace testing_util {
namespace internal {

// Recursive-descent parser. Positions reported in error messages are byte
// offsets into the input.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<obs::Json> ParseDocument() {
    SkipWhitespace();
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<obs::Json> ParseValue() {
    if (depth_ > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return obs::Json(std::move(s).value());
    }
    if (ConsumeLiteral("null")) return obs::Json();
    if (ConsumeLiteral("true")) return obs::Json(true);
    if (ConsumeLiteral("false")) return obs::Json(false);
    return ParseNumber();
  }

  StatusOr<obs::Json> ParseObject() {
    ++depth_;
    CYCLESTREAM_CHECK(Consume('{'));
    obs::Json object = obs::Json::Object();
    SkipWhitespace();
    if (Consume('}')) { --depth_; return object; }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      SkipWhitespace();
      auto value = ParseValue();
      if (!value.ok()) return value;
      object.Set(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) { --depth_; return object; }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<obs::Json> ParseArray() {
    ++depth_;
    CYCLESTREAM_CHECK(Consume('['));
    obs::Json array = obs::Json::Array();
    SkipWhitespace();
    if (Consume(']')) { --depth_; return array; }
    while (true) {
      SkipWhitespace();
      auto value = ParseValue();
      if (!value.ok()) return value;
      array.Push(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) { --depth_; return array; }
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // UTF-8 encode (BMP only; manifests are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<obs::Json> ParseNumber() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // '-'/'+' only legal inside an exponent, but strtod re-validates.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    // JSON forbids leading zeros ("01") and a leading '+'.
    std::size_t digits = token[0] == '-' || token[0] == '+' ? 1 : 0;
    if (token[0] == '+' || (token.size() > digits + 1 &&
                            token[digits] == '0' &&
                            token[digits + 1] >= '0' &&
                            token[digits + 1] <= '9')) {
      return Error("malformed number");
    }
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      if (token[0] == '-') {
        long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          return obs::Json(static_cast<std::int64_t>(v));
        }
      } else {
        unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          return obs::Json(static_cast<std::uint64_t>(v));
        }
      }
      // Out-of-range integer: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("malformed number");
    return obs::Json(v);
  }

  static constexpr int kMaxDepth = 128;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace internal

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// garbage is an error). InvalidArgument with offset on malformed input.
inline StatusOr<obs::Json> ParseJson(std::string_view text) {
  return internal::Parser(text).ParseDocument();
}

}  // namespace testing_util
}  // namespace cyclestream

#endif  // CYCLESTREAM_TESTS_JSON_PARSE_H_
