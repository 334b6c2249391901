#pragma once
// Minimal JSON document model with parser and serializer.
//
// Used for three things in this repository: the miniBP engine's
// profiling.json output (Fig 8), the document parse_toml builds (the
// [adios2] engine config), and machine-readable benchmark reports.  It supports the full JSON grammar
// except for \u escapes beyond the BMP surrogate pairs (which never occur in
// our own output).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace bitio {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps key order deterministic, which makes tests and golden
// files stable.
using JsonObject = std::map<std::string, Json>;

/// A JSON value: null / bool / number / string / array / object.
class Json {
public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(double(i)) {}
  Json(unsigned int i) : value_(double(i)) {}
  Json(std::int64_t i) : value_(double(i)) {}
  Json(std::uint64_t i) : value_(double(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object access; creates the key (as null) on mutable access.
  Json& operator[](const std::string& key);
  /// Const object access; throws UsageError if missing.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// at(key) if present, otherwise `fallback`.
  Json get_or(const std::string& key, Json fallback) const;

  /// Array element access.
  Json& operator[](std::size_t i);
  const Json& at(std::size_t i) const;
  std::size_t size() const;

  void push_back(Json v);

  /// Serialize; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document.  Throws FormatError on bad input.
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const { return value_ == other.value_; }

private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace bitio
