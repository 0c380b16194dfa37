#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gnoc {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unescaped
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  // std::to_chars emits the shortest string that round-trips exactly.
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

JsonWriter::JsonWriter(std::ostream& out, int indent)
    : out_(out), indent_(indent) {}

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * indent_; ++i) out_ << ' ';
}

void JsonWriter::Lead() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (stack_.back().has_items) out_ << ',';
  stack_.back().has_items = true;
  NewlineIndent();
}

JsonWriter& JsonWriter::BeginObject() {
  Lead();
  out_ << '{';
  stack_.push_back({'}'});
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Lead();
  out_ << '[';
  stack_.push_back({']'});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  const Scope scope = stack_.back();
  stack_.pop_back();
  if (scope.has_items) NewlineIndent();
  out_ << scope.close;
  if (stack_.empty() && indent_ > 0) out_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::EndArray() { return EndObject(); }

JsonWriter& JsonWriter::Key(const std::string& key) {
  Lead();
  out_ << '"' << JsonEscape(key) << "\":";
  if (indent_ > 0) out_ << ' ';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  Lead();
  out_ << '"' << JsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) {
  return Value(std::string(v));
}

JsonWriter& JsonWriter::Value(double v) {
  Lead();
  out_ << JsonNumber(v);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t v) {
  Lead();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t v) {
  Lead();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::Value(int v) {
  return Value(static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::Value(bool v) {
  Lead();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Lead();
  out_ << "null";
  return *this;
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

/// Recursive-descent parser over a string; tracks the offset for error
/// messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + why);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool Consume(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = ParseString();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        if (Consume("true")) {
          v.bool_ = true;
        } else if (Consume("false")) {
          v.bool_ = false;
        } else {
          Fail("invalid literal");
        }
        return v;
      }
      case 'n': {
        if (!Consume("null")) Fail("invalid literal");
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      v.members_.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs not recombined;
          // the writers in this codebase never emit them).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          Fail("invalid escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t consumed = 0;
      JsonValue v;
      v.kind_ = JsonValue::Kind::kNumber;
      v.number_ = std::stod(token, &consumed);
      if (consumed != token.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      pos_ = start;
      Fail("invalid number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open around the current value
};

JsonValue JsonValue::Parse(const std::string& text) {
  return JsonParser(text).ParseDocument();
}

namespace {

[[noreturn]] void KindMismatch(const char* wanted) {
  throw std::invalid_argument(std::string("JSON value is not ") + wanted);
}

}  // namespace

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) KindMismatch("a bool");
  return bool_;
}

double JsonValue::AsNumber() const {
  if (kind_ != Kind::kNumber) KindMismatch("a number");
  return number_;
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) KindMismatch("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) KindMismatch("an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject()
    const {
  if (kind_ != Kind::kObject) KindMismatch("an object");
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) KindMismatch("an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    throw std::invalid_argument("JSON object has no member '" + key + "'");
  }
  return *v;
}

}  // namespace gnoc
