// Minimal strict JSON reader: the inverse of obs::JsonWriter.
//
// Every artifact this repo emits — registry snapshots, Chrome traces,
// matrix reports, bench JSONs — is produced by JsonWriter, so the reader
// only has to cover that dialect of JSON faithfully: objects, arrays,
// strings with the writer's escapes, integers, fixed-format doubles,
// booleans and null. It parses into a small immutable DOM (JsonValue) used
// by the trace-analytics layer and the bench regression tool.
//
// The parser is strict where it matters for tooling honesty — trailing
// garbage, unterminated containers and malformed escapes all throw
// JsonParseError with a byte offset — and deliberately does NOT implement
// the full RFC zoo (surrogate pairs decode to '?', numbers outside
// uint64/int64/double are an error).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace idgka::obs::json {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Object keys keep insertion order irrelevance: a sorted map matches the
/// writer's deterministic output and gives O(log n) field lookup.
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kUint, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  explicit JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  explicit JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a) : kind_(Kind::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o) : kind_(Kind::kObject), object_(std::make_shared<JsonObject>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kUint || kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors throw std::logic_error on kind mismatch — tooling
  /// reading an unexpected shape should fail loudly, not misreport.
  [[nodiscard]] bool as_bool() const;
  /// Any numeric kind, converted. Throws on non-numbers.
  [[nodiscard]] double as_double() const;
  /// Integral value; doubles are rejected (a "wall_ms":1.5 is not a count).
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object field access; null-kind reference when absent (never throws).
  [[nodiscard]] const JsonValue& operator[](std::string_view key) const;
  /// Object field that must exist; throws std::out_of_range otherwise.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  // shared_ptr keeps JsonValue copyable and cheap to pass around while the
  // DOM stays immutable after parse.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, anything
/// else throws JsonParseError).
[[nodiscard]] JsonValue parse(std::string_view text);

/// Flattens every leaf (number, bool, string or null) into "a.b.0.c" ->
/// value (array indices are path segments). bench_compare diffs two
/// flattened maps.
[[nodiscard]] std::map<std::string, JsonValue> flatten(const JsonValue& root);

}  // namespace idgka::obs::json
