#include "obs/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace pamo::obs::json {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double d) {
  PAMO_CHECK(std::isfinite(d), "JSON export requires finite numbers");
  std::array<char, 32> buf{};
  // Shortest round-trip representation: locale-independent and fixed for a
  // given bit pattern, which is what makes exports byte-stable.
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  out.append(buf.data(), result.ptr);
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos) + ": " +
                what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (std::size_t i = 0; i < 4; ++i) {
            const char h = text[pos + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          pos += 4;
          // Exports only ever escape control characters; reject the rest
          // rather than implementing UTF-16 surrogate handling.
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    const std::string token = text.substr(start, pos - start);
    if (token.empty() || token == "-") fail("bad number");
    if (integral && token[0] != '-') {
      std::uint64_t u = 0;
      const auto result =
          std::from_chars(token.data(), token.data() + token.size(), u);
      if (result.ec == std::errc() &&
          result.ptr == token.data() + token.size()) {
        return Value(u);
      }
    }
    double d = 0.0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (result.ec != std::errc() ||
        result.ptr != token.data() + token.size()) {
      fail("bad number '" + token + "'");
    }
    return Value(d);
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Value obj = Value::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        // Strict grammar: a repeated key is a malformed document, not a
        // last-wins overwrite — silent overwrites would let a corrupted
        // (e.g. torn-and-reconcatenated) checkpoint parse cleanly.
        if (obj.find(key) != nullptr) {
          fail("duplicate object key '" + key + "'");
        }
        obj.set(key, parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos;
      Value arr = Value::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      while (true) {
        arr.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value();
    return parse_number();
  }
};

}  // namespace

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Value::as_bool() const {
  PAMO_CHECK(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

std::uint64_t Value::as_uint() const {
  if (kind_ == Kind::kUint) return uint_;
  PAMO_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  PAMO_CHECK(num_ >= 0.0 && std::floor(num_) == num_ && num_ < 1.9e19,  // pamo-analyze: allow(float-eq)
             "JSON number is not an unsigned integer");
  return static_cast<std::uint64_t>(num_);
}

double Value::as_double() const {
  if (kind_ == Kind::kUint) return static_cast<double>(uint_);
  PAMO_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return num_;
}

const std::string& Value::as_string() const {
  PAMO_CHECK(kind_ == Kind::kString, "JSON value is not a string");
  return str_;
}

const std::vector<Value>& Value::items() const {
  PAMO_CHECK(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  PAMO_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

void Value::push_back(Value v) {
  PAMO_CHECK(kind_ == Kind::kArray, "push_back on a non-array JSON value");
  array_.push_back(std::move(v));
}

void Value::set(const std::string& key, Value v) {
  PAMO_CHECK(kind_ == Kind::kObject, "set on a non-object JSON value");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  PAMO_CHECK(v != nullptr, "JSON object is missing key '" + key + "'");
  return *v;
}

std::string Value::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kUint:
      out = std::to_string(uint_);
      break;
    case Kind::kNumber:
      append_double(out, num_);
      break;
    case Kind::kString:
      append_escaped(out, str_);
      break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += array_[i].dump();
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_escaped(out, object_[i].first);
        out.push_back(':');
        out += object_[i].second.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

Value Value::parse(const std::string& text) {
  Parser parser{text};
  Value v = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing characters");
  return v;
}

}  // namespace pamo::obs::json
