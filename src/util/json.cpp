#include "util/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace bitio {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw UsageError(std::string("Json: value is not a ") + want);
}

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null like most lenient writers do.
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      fail("trailing characters after JSON document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& msg) {
    throw FormatError("Json parse error at offset " + std::to_string(pos_) +
                      ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  void expect_word(std::string_view w) {
    for (char c : w) {
      if (pos_ >= text_.size() || text_[pos_] != c) fail("bad literal");
      ++pos_;
    }
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') { ++pos_; return Json(std::move(obj)); }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') { ++pos_; return Json(std::move(arr)); }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char e = next();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += char(code);
            } else if (code < 0x800) {
              out += char(0xC0 | (code >> 6));
              out += char(0x80 | (code & 0x3F));
            } else {
              out += char(0xE0 | (code >> 12));
              out += char(0x80 | ((code >> 6) & 0x3F));
              out += char(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    try {
      return Json(std::stod(std::string(text_.substr(start, pos_ - start))));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(value_);
}

// A number converts only when it is a whole value inside the target's
// range: a cast would truncate 1.5 to 1 and is undefined past the range.
// 2^63 and 2^64 are exact doubles, so the upper bounds are exclusive.
std::int64_t Json::as_int() const {
  const double d = as_number();
  if (!(d >= -0x1p63 && d < 0x1p63) || std::trunc(d) != d)
    type_error("integer");
  return static_cast<std::int64_t>(d);
}

std::uint64_t Json::as_uint() const {
  const double d = as_number();
  if (!(d >= 0 && d < 0x1p64) || std::trunc(d) != d)
    type_error("unsigned number");
  return static_cast<std::uint64_t>(d);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  if (!is_array()) type_error("array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) type_error("object");
  return std::get<JsonObject>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  if (!is_object()) type_error("object");
  return std::get<JsonObject>(value_)[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw UsageError("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

Json Json::get_or(const std::string& key, Json fallback) const {
  if (contains(key)) return at(key);
  return fallback;
}

Json& Json::operator[](std::size_t i) { return as_array().at(i); }

const Json& Json::at(std::size_t i) const { return as_array().at(i); }

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw UsageError("Json: size() on non-container");
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto pad = [&](int d) {
    if (indent >= 0) {
      out += '\n';
      out.append(std::size_t(indent) * std::size_t(d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, as_number());
  } else if (is_string()) {
    dump_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) { out += "[]"; return; }
    out += '[';
    bool first = true;
    for (const auto& v : arr) {
      if (!first) out += ',';
      first = false;
      pad(depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    pad(depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) { out += "{}"; return; }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      pad(depth + 1);
      dump_string(out, k);
      out += indent >= 0 ? ": " : ":";
      v.dump_to(out, indent, depth + 1);
    }
    pad(depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace bitio
