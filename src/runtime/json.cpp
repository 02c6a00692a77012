#include "runtime/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lrsizer::runtime {

void Json::set(const std::string& key, Json v) {
  auto& object = std::get<Object>(value_);
  for (auto& [k, existing] : object) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw std::out_of_range("json: missing key '" + key + "'");
  return *v;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; serialize as null like most writers do.
    out += "null";
    return;
  }
  // Integers that fit exactly print without an exponent or trailing ".0",
  // everything else uses shortest-round-trip formatting.
  char buf[32];
  const auto result =
      d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(d))
          : std::to_chars(buf, buf + sizeof(buf), d);
  out.append(buf, result.ptr);
}

namespace {

void append_newline_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void append_pairs(std::string& out,
                  const std::vector<std::pair<std::int32_t, double>>& pairs,
                  int indent, int depth) {
  if (pairs.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (indent > 0) append_newline_indent(out, indent, depth + 1);
    out.push_back('[');
    if (indent > 0) append_newline_indent(out, indent, depth + 2);
    append_number(out, pairs[i].first);
    out.push_back(',');
    if (indent > 0) append_newline_indent(out, indent, depth + 2);
    append_number(out, pairs[i].second);
    if (indent > 0) append_newline_indent(out, indent, depth + 1);
    out.push_back(']');
  }
  if (indent > 0) append_newline_indent(out, indent, depth);
  out.push_back(']');
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += as_bool() ? "true" : "false"; return;
    case Type::kNumber: append_number(out, as_number()); return;
    case Type::kString: append_escaped(out, as_string()); return;
    case Type::kArray: {
      const Array& a = as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent > 0) append_newline_indent(out, indent, depth + 1);
        a[i].dump_to(out, indent, depth + 1);
      }
      if (indent > 0) append_newline_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      const Object& o = as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent > 0) append_newline_indent(out, indent, depth + 1);
        append_escaped(out, o[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        o[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent > 0) append_newline_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Nesting cap for parse: the parser recurses once per container level, so
/// an attacker-supplied "[[[[…" line would otherwise overflow the stack
/// (the serve loop parses untrusted network input). 192 levels is far
/// beyond any schema this project speaks while keeping worst-case stack
/// use a few hundred KB.
constexpr int kMaxParseDepth = 192;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw JsonParseError(pos_, message);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("invalid literal");
      ++pos_;
    }
  }

  Json parse_value() {
    if (depth_ >= kMaxParseDepth) fail("nesting too deep");
    skip_space();
    switch (peek()) {
      case 'n': expect_word("null"); return Json();
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case '"': return Json(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // One append per run of plain characters (a request's inline .bench
      // text is one long run).
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out.append(text_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // Encode the code point as UTF-8 (surrogate pairs are passed through as
    // two 3-byte sequences; the reports this module serializes are ASCII).
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number '" + token + "'");
    return Json(value);
  }

  Json parse_array() {
    expect('[');
    ++depth_;
    Json array = Json::array();
    skip_space();
    if (consume(']')) {
      --depth_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      skip_space();
      if (consume(']')) {
        --depth_;
        return array;
      }
      expect(',');
    }
  }

  Json parse_object() {
    expect('{');
    ++depth_;
    Json object = Json::object();
    skip_space();
    if (consume('}')) {
      --depth_;
      return object;
    }
    for (;;) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      object.set(key, parse_value());
      skip_space();
      if (consume('}')) {
        --depth_;
        return object;
      }
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace lrsizer::runtime
