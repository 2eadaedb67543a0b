#include "common/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace privbasis::json {

namespace {

/// Shortest decimal form of `d` that strtod parses back to the identical
/// bits. %.15g..%.17g: 17 significant digits always round-trip an IEEE
/// double; fewer are preferred when exact so goldens stay readable.
std::string CanonicalDouble(double d) {
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  // JSON has no distinct integer syntax requirement, but "1e+20" style
  // exponents and "inf"/"nan" must not leak: non-finite handled by the
  // caller, exponents are legal JSON.
  return buf;
}

void DumpArray(const Value::Array& arr, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < arr.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += arr[i].Dump();
  }
  out->push_back(']');
}

void DumpObject(const Value::Object& obj, std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < obj.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += EscapeString(obj[i].first);
    out->push_back(':');
    *out += obj[i].second.Dump();
  }
  out->push_back('}');
}

}  // namespace

Result<bool> Value::GetBool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  return Status::InvalidArgument("JSON value is not a bool");
}

Result<double> Value::GetDouble() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  if (const uint64_t* u = std::get_if<uint64_t>(&data_)) {
    return static_cast<double>(*u);
  }
  return Status::InvalidArgument("JSON value is not a number");
}

Result<uint64_t> Value::GetUint() const {
  if (const uint64_t* u = std::get_if<uint64_t>(&data_)) return *u;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    if (*i < 0) {
      return Status::InvalidArgument("JSON value is negative");
    }
    return static_cast<uint64_t>(*i);
  }
  if (const double* d = std::get_if<double>(&data_)) {
    if (*d < 0 || !std::isfinite(*d) || *d != std::floor(*d) ||
        *d >= 18446744073709551616.0) {
      return Status::InvalidArgument(
          "JSON value is not a non-negative integer");
    }
    return static_cast<uint64_t>(*d);
  }
  return Status::InvalidArgument("JSON value is not a number");
}

Result<std::string> Value::GetString() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  return Status::InvalidArgument("JSON value is not a string");
}

Result<const Value::Array*> Value::GetArray() const {
  if (const Array* a = std::get_if<Array>(&data_)) return a;
  return Status::InvalidArgument("JSON value is not an array");
}

Result<const Value::Object*> Value::GetObject() const {
  if (const Object* o = std::get_if<Object>(&data_)) return o;
  return Status::InvalidArgument("JSON value is not an object");
}

const Value* Value::Find(std::string_view key) const {
  const Object* obj = std::get_if<Object>(&data_);
  if (obj == nullptr) return nullptr;
  for (const auto& [name, value] : *obj) {
    if (name == key) return &value;
  }
  return nullptr;
}

void Value::Set(std::string key, Value value) {
  if (is_null()) data_ = Object{};
  std::get<Object>(data_).emplace_back(std::move(key), std::move(value));
}

std::string EscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Value::Dump() const {
  std::string out;
  switch (data_.index()) {
    case 0:
      out = "null";
      break;
    case 1:
      out = std::get<bool>(data_) ? "true" : "false";
      break;
    case 2:
      out = std::to_string(std::get<int64_t>(data_));
      break;
    case 3:
      out = std::to_string(std::get<uint64_t>(data_));
      break;
    case 4: {
      const double d = std::get<double>(data_);
      // JSON has no spelling for non-finite values; `null` is the
      // documented encoding (an unlimited budget's remaining ε).
      out = std::isfinite(d) ? CanonicalDouble(d) : "null";
      break;
    }
    case 5:
      out = EscapeString(std::get<std::string>(data_));
      break;
    case 6:
      DumpArray(std::get<Array>(data_), &out);
      break;
    default:
      DumpObject(std::get<Object>(data_), &out);
  }
  return out;
}

// ----------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<Value> ParseDocument() {
    SkipWhitespace();
    PRIVBASIS_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    if (depth_ > max_depth_) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        PRIVBASIS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Value(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject() {
    ++depth_;
    ++pos_;  // '{'
    Value::Object members;
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return Value(std::move(members));
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      PRIVBASIS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      PRIVBASIS_ASSIGN_OR_RETURN(Value v, ParseValue());
      members.emplace_back(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    --depth_;
    return Value(std::move(members));
  }

  Result<Value> ParseArray() {
    ++depth_;
    ++pos_;  // '['
    Value::Array elements;
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return Value(std::move(elements));
    }
    for (;;) {
      SkipWhitespace();
      PRIVBASIS_ASSIGN_OR_RETURN(Value v, ParseValue());
      elements.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    --depth_;
    return Value(std::move(elements));
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            PRIVBASIS_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF.
              if (!ConsumeLiteral("\\u")) {
                return Error("unpaired surrogate");
              }
              PRIVBASIS_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Error("unpaired surrogate");
            }
            AppendUtf8(code, &out);
            break;
          }
          default:
            return Error("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return Error("unescaped control character in string");
      out.push_back(static_cast<char>(c));
      ++pos_;
    }
    return Error("unterminated string");
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    bool negative = false;
    if (Consume('-')) negative = true;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid number");
    }
    // Leading zero must not be followed by more digits (JSON grammar).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("leading zero in number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("expected digits after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("expected digits in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (negative) {
        const int64_t v = std::strtoll(token.c_str(), &end, 10);
        if (errno != ERANGE && end == token.c_str() + token.size()) {
          return Value(v);
        }
      } else {
        const uint64_t v = std::strtoull(token.c_str(), &end, 10);
        if (errno != ERANGE && end == token.c_str() + token.size()) {
          return Value(v);
        }
      }
      // Falls through to double on int64/uint64 overflow.
    }
    const double d = std::strtod(token.c_str(), nullptr);
    return Value(d);
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text, size_t max_depth) {
  return Parser(text, max_depth).ParseDocument();
}

}  // namespace privbasis::json
