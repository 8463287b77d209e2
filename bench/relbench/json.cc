#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace relbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Document() {
    JsonValue value;
    if (!Value(&value, 0)) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  /// Nesting bound: both documents are a few levels deep, and the bound
  /// keeps a malformed spec file from recursing the stack away.
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"':
        case '\\':
        case '/':
          out->push_back(escaped);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // Names in both documents are ASCII; keep the code point only
          // when it is one, else a placeholder.
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Number(double* out) {
    const size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == begin) return false;
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        JsonValue member;
        if (!String(&key) || !Consume(':') || !Value(&member, depth + 1)) {
          return false;
        }
        out->keys.push_back(std::move(key));
        out->items.push_back(std::move(member));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      if (Consume(']')) return true;
      do {
        JsonValue element;
        if (!Value(&element, depth + 1)) return false;
        out->items.push_back(std::move(element));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = JsonValue::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    out->type = JsonValue::Type::kNumber;
    return Number(&out->number);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return &items[i];
  }
  return nullptr;
}

std::optional<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(std::optional<double> value) {
  if (!value.has_value() || !std::isfinite(*value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", *value);
  return buffer;
}

}  // namespace relbench
