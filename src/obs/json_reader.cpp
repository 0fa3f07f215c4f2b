#include "obs/json_reader.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace idgka::obs::json {

// ----------------------------------------------------------------- accessors

namespace {
[[noreturn]] void kind_error(const char* wanted) {
  throw std::logic_error(std::string("JsonValue: not a ") + wanted);
}
const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}
}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}

double JsonValue::as_double() const {
  switch (kind_) {
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kDouble: return double_;
    default: kind_error("number");
  }
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ == Kind::kInt && int_ >= 0) return static_cast<std::uint64_t>(int_);
  kind_error("unsigned integer");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return *object_;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  if (kind_ != Kind::kObject) return null_value();
  const auto it = object_->find(key);
  return it == object_->end() ? null_value() : it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (kind_ != Kind::kObject) kind_error("object");
  const auto it = object_->find(key);
  if (it == object_->end()) throw std::out_of_range("JsonValue: no field " + std::string(key));
  return it->second;
}

bool JsonValue::has(std::string_view key) const {
  return kind_ == Kind::kObject && object_->contains(key);
}

// -------------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const { throw JsonParseError(what, pos_); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(obj));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(arr));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u00XX control escapes; anything wider
          // (incl. surrogate pairs) degrades to '?' rather than lying.
          if (code < 0x80) out.push_back(static_cast<char>(code));
          else out.push_back('?');
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if ((std::isdigit(static_cast<unsigned char>(c)) == 0) && c != '.' && c != 'e' &&
            c != 'E' && c != '+' && c != '-') {
          break;
        }
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      if (token[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
        if (ec != std::errc() || p != token.data() + token.size()) fail("integer out of range");
        return JsonValue(v);
      }
      std::uint64_t v = 0;
      const auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc() || p != token.data() + token.size()) fail("integer out of range");
      return JsonValue(v);
    }
    errno = 0;
    char* end = nullptr;
    const std::string owned(token);
    const double v = std::strtod(owned.c_str(), &end);
    if (errno == ERANGE || end != owned.c_str() + owned.size()) fail("bad double");
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void flatten_into(const JsonValue& v, std::string& path, std::map<std::string, JsonValue>& out) {
  const auto descend = [&](const std::string& segment, const JsonValue& child) {
    const std::size_t mark = path.size();
    if (!path.empty()) path.push_back('.');
    path += segment;
    flatten_into(child, path, out);
    path.resize(mark);
  };
  if (v.is_array()) {
    const JsonArray& arr = v.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) descend(std::to_string(i), arr[i]);
  } else if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) descend(key, child);
  } else {
    out.emplace(path, v);
  }
}

}  // namespace

JsonValue parse(std::string_view text) { return Parser(text).parse_document(); }

std::map<std::string, JsonValue> flatten(const JsonValue& root) {
  std::map<std::string, JsonValue> out;
  std::string path;
  flatten_into(root, path, out);
  return out;
}

}  // namespace idgka::obs::json
