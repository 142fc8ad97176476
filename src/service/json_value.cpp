#include "service/json_value.hpp"

#include <cmath>
#include <cstring>

#include "util/str.hpp"

namespace janus::service {

const json_value* json_value::find(std::string_view name) const {
  const json_value* found = nullptr;
  for (const member& m : members) {
    if (m.first == name) {
      found = &m.second;
    }
  }
  return found;
}

std::optional<std::uint64_t> json_value::as_uint(std::uint64_t max) const {
  if (k != kind::number || !std::isfinite(number) || number < 0.0) {
    return std::nullopt;
  }
  if (number != std::floor(number)) {
    return std::nullopt;
  }
  // Doubles above 2^53 are not reliably integral; everything the protocol
  // accepts is far below that, and `max` caps tighter anyway.
  if (number > 9007199254740992.0 ||
      number > static_cast<double>(max)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

namespace {

class parser {
 public:
  parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  json_parse_result run() {
    json_parse_result result;
    json_value v;
    skip_ws();
    if (!parse_value(v, 0)) {
      result.error = error_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = at("trailing characters after the JSON value");
      return result;
    }
    result.value = std::move(v);
    return result;
  }

 private:
  [[nodiscard]] std::string at(const std::string& what) const {
    return what + " (offset " + std::to_string(pos_) + ")";
  }

  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = at(what);
    }
    return false;
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.size() - pos_ < len ||
        text_.compare(pos_, len, literal) != 0) {
      return fail(std::string("invalid literal; expected '") + literal + "'");
    }
    pos_ += len;
    return true;
  }

  bool parse_value(json_value& out, int depth) {
    if (depth > max_depth_) {
      return fail("nesting too deep");
    }
    if (eof()) {
      return fail("unexpected end of input");
    }
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        out.k = json_value::kind::string;
        return parse_string(out.string);
      }
      case 't':
        out.k = json_value::kind::boolean;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.k = json_value::kind::boolean;
        out.boolean = false;
        return consume_literal("false");
      case 'n':
        out.k = json_value::kind::null;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(json_value& out, int depth) {
    out.k = json_value::kind::object;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_ws();
      if (eof() || peek() != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      json_value v;
      if (!parse_value(v, depth + 1)) {
        return false;
      }
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) {
        return fail("unterminated object");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(json_value& out, int depth) {
    out.k = json_value::kind::array;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      json_value v;
      if (!parse_value(v, depth + 1)) {
        return false;
      }
      out.items.push_back(std::move(v));
      skip_ws();
      if (eof()) {
        return fail("unterminated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
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

  bool parse_hex4(std::uint32_t& out) {
    if (text_.size() - pos_ < 4) {
      return fail("truncated \\u escape");
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (eof()) {
        return fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) {
        return fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) {
            return false;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (text_.size() - pos_ < 2 || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("lone high surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) {
              return false;
            }
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("unknown escape character");
      }
    }
  }

  bool parse_number(json_value& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') {
      ++pos_;
    }
    // Integer part: one digit, or a nonzero digit followed by more.
    if (eof() || peek() < '0' || peek() > '9') {
      return fail("invalid number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        return fail("digits required after decimal point");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) {
        ++pos_;
      }
      if (eof() || peek() < '0' || peek() > '9') {
        return fail("digits required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
      }
    }
    // The grammar above already holds, so the only failure left is a
    // magnitude a double cannot hold; JSON itself has no infinities, so
    // reject rather than silently saturating.
    const std::optional<double> parsed =
        parse_decimal(text_.substr(start, pos_ - start));
    if (!parsed.has_value()) {
      return fail("number out of range");
    }
    out.k = json_value::kind::number;
    out.number = *parsed;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
  std::string error_;
};

}  // namespace

json_parse_result json_parse(std::string_view text, int max_depth) {
  return parser(text, max_depth).run();
}

}  // namespace janus::service
