#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace laminar::json {
namespace {

/// Locale-independent, allocation-free text -> double. from_chars reports
/// overflow and underflow instead of returning strtod's HUGE_VAL or
/// rounded-to-zero result; those rare tokens go through strtod so they keep
/// parsing exactly as they always have (1e999 -> inf, 1e-400 -> 0).
double ParseDouble(std::string_view token) {
  double d = 0.0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), d);
  if (ec == std::errc::result_out_of_range) {
    return std::strtod(std::string(token).c_str(), nullptr);
  }
  return d;
}

/// A token that matched the JSON number grammar. Integer tokens that fit
/// an int64 are kept as ints (as Value stores them); the rest are doubles.
struct NumberToken {
  std::string_view text;
  bool is_double = false;

  bool AsInt(int64_t* out) const {
    if (is_double) return false;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), *out);
    return ec == std::errc() && ptr == text.data() + text.size();
  }
  /// The number as Value::as_double reads it.
  double AsDouble() const {
    int64_t i = 0;
    return AsInt(&i) ? static_cast<double>(i) : ParseDouble(text);
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWs();
    Result<Value> v = ParseValue(0);
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

  /// The ParseNumberArray document: one array of numbers, surrounded only
  /// by whitespace, with the array loop of ParseArray and each element
  /// converted as Value::as_double would convert it.
  bool ParseNumberArrayDocument(std::vector<float>& out) {
    SkipWs();
    if (Eof() || Peek() != '[') return false;
    ++pos_;
    SkipWs();
    if (!Eof() && Peek() == ']') {
      ++pos_;
    } else {
      out.reserve(static_cast<size_t>(std::count(
                      text_.begin() + static_cast<ptrdiff_t>(pos_),
                      text_.end(), ',')) +
                  1);
      while (true) {
        SkipWs();
        NumberToken token;
        if (ScanNumber(&token) != nullptr) return false;
        out.push_back(static_cast<float>(token.AsDouble()));
        SkipWs();
        if (Eof()) return false;
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        if (Peek() != ']') return false;
        ++pos_;
        break;
      }
    }
    SkipWs();
    return Eof();
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status FailStatus(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }
  Result<Value> Fail(std::string msg) const { return FailStatus(std::move(msg)); }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (Eof()) return Fail("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        Result<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Value(std::move(s.value()));
      }
      case 't':
        if (Consume("true")) return Value(true);
        return Fail("invalid literal");
      case 'f':
        if (Consume("false")) return Value(false);
        return Fail("invalid literal");
      case 'n':
        if (Consume("null")) return Value(nullptr);
        return Fail("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Value obj = Value::MakeObject();
    SkipWs();
    if (!Eof() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWs();
      if (Eof() || Peek() != '"') return Fail("expected object key");
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (Eof() || Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      Result<Value> val = ParseValue(depth + 1);
      if (!val.ok()) return val;
      obj[key.value()] = std::move(val.value());
      SkipWs();
      if (Eof()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return obj;
      }
      return Fail("expected ',' or '}'");
    }
  }

  Result<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Value arr = Value::MakeArray();
    SkipWs();
    if (!Eof() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWs();
      Result<Value> val = ParseValue(depth + 1);
      if (!val.ok()) return val;
      arr.push_back(std::move(val.value()));
      SkipWs();
      if (Eof()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return arr;
      }
      return Fail("expected ',' or ']'");
    }
  }

  static void AppendUtf8(std::string& out, uint32_t cp) {
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

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return FailStatus("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return FailStatus("invalid hex digit in \\u escape");
    }
    pos_ += 4;
    return value;
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      // Append the verbatim run up to the next quote, backslash or control
      // character in one go.
      const size_t run = pos_;
      while (!Eof()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (Eof()) return FailStatus("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') return FailStatus("raw control character in string");
      if (Eof()) return FailStatus("unterminated escape");
      char esc = text_[pos_++];
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
          Result<uint32_t> cp = ParseHex4();
          if (!cp.ok()) return cp.status();
          uint32_t code = cp.value();
          if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              Result<uint32_t> lo = ParseHex4();
              if (!lo.ok()) return lo.status();
              if (lo.value() >= 0xDC00 && lo.value() <= 0xDFFF) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo.value() - 0xDC00);
              } else {
                return FailStatus("invalid low surrogate");
              }
            } else {
              return FailStatus("lone high surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return FailStatus("lone low surrogate");
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return FailStatus("invalid escape character");
      }
    }
  }

  Result<Value> ParseNumber() {
    NumberToken token;
    if (const char* error = ScanNumber(&token)) return Fail(error);
    int64_t i = 0;
    if (token.AsInt(&i)) return Value(i);
    return Value(ParseDouble(token.text));  // a double, or int64 overflow
  }

  /// Advances over one JSON number; returns the grammar error, or null.
  const char* ScanNumber(NumberToken* token) {
    size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    bool has_digits = false;
    while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
      has_digits = true;
    }
    if (!has_digits) return "invalid number";
    token->is_double = false;
    if (!Eof() && Peek() == '.') {
      token->is_double = true;
      ++pos_;
      bool frac = false;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        frac = true;
      }
      if (!frac) return "digits required after decimal point";
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      token->is_double = true;
      ++pos_;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) ++pos_;
      bool exp = false;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        exp = true;
      }
      if (!exp) return "digits required in exponent";
    }
    token->text = text_.substr(start, pos_ - start);
    return nullptr;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

bool ParseNumberArray(std::string_view text, std::vector<float>& out) {
  out.clear();
  return Parser(text).ParseNumberArrayDocument(out);
}

char* WriteNumber(char* p, double d) {
  // JSON has no NaN/Inf; match common serializer behaviour.
  if (!std::isfinite(d)) return std::copy_n("null", 4, p);
  // Zero is most of a sparse embedding; skip the formatting round trips.
  if (d == 0.0) {
    return std::signbit(d) ? std::copy_n("-0.0", 4, p)
                           : std::copy_n("0.0", 3, p);
  }
  // to_chars with a precision formats exactly as printf("%.*g"). No
  // precision below the shortest round-trip digit count can parse back to
  // `d`, so the search starts there; 17 digits always round-trip.
  char* const limit = p + kMaxNumberChars;
  char* const shortest_end =
      std::to_chars(p, limit, d, std::chars_format::scientific).ptr;
  const int shortest = static_cast<int>(std::count_if(
      p, std::find(p, shortest_end, 'e'),
      [](char c) { return c >= '0' && c <= '9'; }));
  char* end = p;
  for (int prec = std::max(15, shortest); prec <= 17; ++prec) {
    end = std::to_chars(p, limit, d, std::chars_format::general, prec).ptr;
    if (prec == 17 || ParseDouble(std::string_view(p, end - p)) == d) break;
  }
  // Whole values keep a ".0" so they re-parse as doubles, not ints —
  // type-preserving round trips matter for stored embeddings and specs.
  if (std::none_of(p, end, [](char c) { return c == '.' || c == 'e'; })) {
    end = std::copy_n(".0", 2, end);
  }
  return end;
}

}  // namespace laminar::json
