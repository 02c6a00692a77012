// Minimal JSON document model (no external dependencies): a variant value
// type with order-preserving objects, a writer with shortest-round-trip
// number formatting (std::to_chars), and a strict recursive-descent parser.
//
// The batch runtime and the lrsizer CLI serialize reports through this;
// objects preserve insertion order so report files are byte-deterministic
// and diffable across runs and worker counts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace lrsizer::runtime {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& message)
      : std::runtime_error("json parse error at offset " + std::to_string(offset) +
                           ": " + message),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;  ///< insertion order

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  /// Non-finite doubles normalize to null at construction (JSON cannot
  /// represent inf/nan), so dump/parse round-trips are exact fixed points.
  Json(double d) : value_(nullptr) {
    if (d == d && d <= 1.7976931348623157e308 && d >= -1.7976931348623157e308) {
      value_ = d;
    }
  }
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }

  /// Array append (value must be an array).
  void push_back(Json v) { std::get<Array>(value_).push_back(std::move(v)); }

  /// Object set: overwrites an existing key in place, appends otherwise.
  void set(const std::string& key, Json v);

  /// Object lookup; nullptr when absent (value must be an object).
  const Json* find(const std::string& key) const;
  /// Object lookup; throws std::out_of_range when absent.
  const Json& at(const std::string& key) const;

  std::size_t size() const;

  /// Structural equality; numbers compare bit-exact (via ==).
  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize. indent <= 0 yields compact one-line output; indent > 0
  /// pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;
  /// Append dump(indent) to `out` as it renders nested `depth` levels deep
  /// (the indentation of a value inside an enclosing document).
  void dump_to(std::string& out, int indent = 0, int depth = 0) const;

  /// Parse a complete JSON document (trailing non-space input is an error).
  static Json parse(const std::string& text);

 private:
  explicit Json(Array a) : value_(std::move(a)) {}
  explicit Json(Object o) : value_(std::move(o)) {}

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

// ---- writer primitives ------------------------------------------------------
//
// The pieces Json::dump is made of, for writers that append a document
// straight into one string instead of building a Json tree first (large
// arrays in response lines and cache files). Output is byte-identical to
// dump() of the equivalent tree.

/// A JSON string literal, quotes included.
void append_escaped(std::string& out, std::string_view s);
/// A number as dump() writes it: integers below 1e15 without exponent or
/// fraction, other finite values shortest-round-trip, non-finite as null.
void append_number(std::string& out, double d);
/// `pairs` as the array of [first, second] arrays dump(indent) renders at
/// nesting `depth` — e.g. `[[3,1.5],[4,2]]` compact.
void append_pairs(std::string& out,
                  const std::vector<std::pair<std::int32_t, double>>& pairs,
                  int indent = 0, int depth = 0);

}  // namespace lrsizer::runtime
