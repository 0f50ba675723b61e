// Minimal JSON value for the observability layer: building and serializing
// the JSONL run manifests that benches emit (`--metrics-out`) and that
// tests/scripts consume. The library only writes JSON; the tests' parser
// (tests/json_parse.h) reads it back.
//
// Deliberately small — no external dependency — but strict about the one
// property manifests need: **round-trip fidelity**. Unsigned 64-bit
// integers (seeds, byte counts) are stored and printed exactly, never
// through double; doubles print shortest-round-trip (std::to_chars), so a
// conforming parser reads Dump(v) back as v structurally. Object keys keep
// insertion order, making Dump deterministic for fixed construction order.

#ifndef CYCLESTREAM_OBS_JSON_H_
#define CYCLESTREAM_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cyclestream {
namespace obs {

/// A JSON value: null, bool, integer (signed/unsigned 64-bit, exact),
/// double, string, array, or object (insertion-ordered).
class Json {
 public:
  enum class Kind { kNull, kBool, kUint, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}                   // NOLINT
  Json(double v) : kind_(Kind::kDouble), double_(v) {}             // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}        // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT

  /// Any integral type; non-negative values normalize to kUint (matching
  /// what a parser produces for them, so round-trips compare equal).
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T v) {  // NOLINT
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) {
        kind_ = Kind::kInt;
        int_ = static_cast<std::int64_t>(v);
        return;
      }
    }
    kind_ = Kind::kUint;
    uint_ = static_cast<std::uint64_t>(v);
  }

  static Json Array() { Json j; j.kind_ = Kind::kArray; return j; }
  static Json Object() { Json j; j.kind_ = Kind::kObject; return j; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const;
  /// Numeric value as double (converts integer kinds).
  double AsDouble() const;
  /// Exact unsigned value; CHECKs the kind is kUint (or kInt >= 0).
  std::uint64_t AsUint64() const;
  std::int64_t AsInt64() const;
  const std::string& AsString() const;

  /// Object: sets `key` (replacing an existing entry); returns *this so
  /// record-building chains. CHECKs kind.
  Json& Set(std::string key, Json value);
  /// Object: the value at `key`, or nullptr.
  const Json* Find(std::string_view key) const;
  /// Object entries in insertion order.
  const std::vector<std::pair<std::string, Json>>& items() const;

  /// Array: appends; returns *this. CHECKs kind.
  Json& Push(Json value);
  /// Array/object element count, string length; 0 for scalars.
  std::size_t size() const;
  /// Array element. CHECKs kind and bounds.
  const Json& at(std::size_t index) const;

  /// Compact serialization (no whitespace). NaN/Inf doubles emit null
  /// (JSON has no representation for them).
  std::string Dump() const;

  /// Structural equality. kUint/kInt compare by value; doubles exactly.
  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_JSON_H_
