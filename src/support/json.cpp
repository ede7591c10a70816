#include "support/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ap::json {

namespace {

// Nesting bound for the parser and serializer: deep enough for any real
// payload, shallow enough that hostile input cannot overflow the stack.
constexpr int kMaxDepth = 64;

std::string format_double(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";  // JSON has no NaN/Inf
  // "%g" writes negative zero as "-0", which parses back as the integer 0.
  if (v == 0 && std::signbit(v)) return "-0.0";
  char buf[40];
  // Shortest precision that round-trips: %.15g is exact for most values,
  // fall back to %.16g then %.17g (always exact for IEEE doubles).
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Value::push(Value v) {
  if (kind_ != Kind::Array) {
    *this = array();
  }
  items_.push_back(std::move(v));
}

size_t Value::size() const {
  if (kind_ == Kind::Array) return items_.size();
  if (kind_ == Kind::Object) return members_.size();
  return 0;
}

Value& Value::set(std::string_view key, Value v) {
  if (kind_ != Kind::Object) {
    *this = object();
  }
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  if (depth > kMaxDepth) {  // degrade instead of overflowing the stack
    out += "null";
    return;
  }
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Int: out += std::to_string(int_); break;
    case Kind::Double: out += format_double(double_); break;
    case Kind::String:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Kind::Array:
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out += indent < 0 ? ", " : ",";
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    case Kind::Object:
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out += indent < 0 ? ", " : ",";
        newline(depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += "\": ";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> run() {
    auto v = parse_value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (error_ && error_->empty())
      *error_ = why + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (literal("null")) return Value();
        break;
      case 't':
        if (literal("true")) return Value(true);
        break;
      case 'f':
        if (literal("false")) return Value(false);
        break;
      case '"': return parse_string();
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        break;
    }
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    size_t start = pos_;
    bool is_int = true;
    if (consume('-')) {}
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_int = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_int = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      fail("malformed number");
      return std::nullopt;
    }
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0')
        return Value(static_cast<int64_t>(v));
      // Fall through to double on int64 overflow.
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') {
      fail("malformed number");
      return std::nullopt;
    }
    return Value(d);
  }

  // Appends `cp` as UTF-8.
  static void append_utf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else return false;
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  std::optional<Value> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        return std::nullopt;
      }
      char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
        return std::nullopt;
      }
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!parse_hex4(&cp)) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          // Surrogate pair?
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            size_t save = pos_;
            pos_ += 2;
            uint32_t lo = 0;
            if (parse_hex4(&lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = save;  // lone high surrogate: emit replacement below
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
          append_utf8(out, cp);
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
  }

  std::optional<Value> parse_array(int depth) {
    ++pos_;  // '['
    Value v = Value::array();
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      auto item = parse_value(depth + 1);
      if (!item) return std::nullopt;
      v.push(std::move(*item));
      skip_ws();
      if (consume(']')) return v;
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Value> parse_object(int depth) {
    ++pos_;  // '{'
    Value v = Value::object();
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      auto val = parse_value(depth + 1);
      if (!val) return std::nullopt;
      v.set(key->as_string(), std::move(*val));
      skip_ws();
      if (consume('}')) return v;
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  if (error) error->clear();
  return Parser(text, error).run();
}

}  // namespace ap::json
