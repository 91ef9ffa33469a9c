#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/value.hpp"
#include "embed/embedding.hpp"
#include "embed/unixcoder_sim.hpp"
#include "spt/recommend.hpp"

namespace laminar {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToJson(), "null");
}

TEST(Value, ScalarAccessors) {
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(Value, CrossTypeCoercions) {
  EXPECT_EQ(Value(2.9).as_int(), 2);       // double -> int truncates
  EXPECT_DOUBLE_EQ(Value(3).as_double(), 3.0);
  EXPECT_TRUE(Value(1).as_bool());
  EXPECT_EQ(Value("nope").as_int(7), 7);   // fallback on mismatch
  EXPECT_EQ(Value(5).as_string(), "");     // strings never coerce
}

TEST(Value, ObjectInsertionOrderPreserved) {
  Value obj = Value::MakeObject();
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  obj["mid"] = 3;
  EXPECT_EQ(obj.ToJson(), R"({"zeta":1,"alpha":2,"mid":3})");
}

TEST(Value, ObjectFieldHelpers) {
  Value obj = Value::MakeObject();
  obj["name"] = "laminar";
  obj["count"] = 5;
  obj["ratio"] = 0.5;
  obj["on"] = true;
  EXPECT_EQ(obj.GetString("name"), "laminar");
  EXPECT_EQ(obj.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(obj.GetDouble("ratio"), 0.5);
  EXPECT_TRUE(obj.GetBool("on"));
  EXPECT_EQ(obj.GetString("missing", "fb"), "fb");
  EXPECT_EQ(obj.GetInt("name", -1), -1);  // wrong type -> fallback
  EXPECT_TRUE(obj.at("missing").is_null());
}

TEST(Value, ArrayOps) {
  Value arr = Value::MakeArray();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.as_array()[0].as_int(), 1);
  EXPECT_EQ(arr.ToJson(), R"([1,"two"])");
}

TEST(Value, NestedBuildAndEquality) {
  Value a = Value::MakeObject();
  a["list"].push_back(Value(1));
  a["list"].push_back(Value(2));
  a["obj"]["inner"] = "x";
  Value b = Value::MakeObject();
  b["list"].push_back(Value(1));
  b["list"].push_back(Value(2));
  b["obj"]["inner"] = "x";
  EXPECT_EQ(a, b);
  b["obj"]["inner"] = "y";
  EXPECT_FALSE(a == b);
}

TEST(Value, EraseField) {
  Value obj = Value::MakeObject();
  obj["a"] = 1;
  obj["b"] = 2;
  obj.mutable_object().erase("a");
  EXPECT_FALSE(obj.contains("a"));
  EXPECT_TRUE(obj.contains("b"));
}

TEST(JsonSerialize, EscapesSpecialCharacters) {
  Value v("line\n\"quote\"\t\\end");
  EXPECT_EQ(v.ToJson(), R"("line\n\"quote\"\t\\end")");
}

TEST(JsonSerialize, ControlCharactersAsUnicode) {
  Value v(std::string("\x01", 1));
  EXPECT_EQ(v.ToJson(), "\"\\u0001\"");
}

TEST(JsonSerialize, DoublesRoundTrip) {
  for (double d : {0.1, 1e-9, 12345.6789, -2.5e17, 3.0}) {
    Value v(d);
    Result<Value> back = json::Parse(v.ToJson());
    ASSERT_TRUE(back.ok()) << v.ToJson();
    EXPECT_DOUBLE_EQ(back->as_double(), d);
  }
}

TEST(JsonSerialize, NonFiniteBecomesNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToJson(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).ToJson(), "null");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::Parse("null")->is_null());
  EXPECT_EQ(json::Parse("true")->as_bool(), true);
  EXPECT_EQ(json::Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(json::Parse("2.5e2")->as_double(), 250.0);
  EXPECT_EQ(json::Parse(R"("s")")->as_string(), "s");
}

TEST(JsonParse, BigIntegerFallsBackToDouble) {
  Result<Value> v = json::Parse("99999999999999999999999999");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_double());
}

TEST(JsonParse, NestedDocument) {
  Result<Value> v = json::Parse(R"({"a":[1,{"b":null},"x"],"c":{"d":false}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->at("a").as_array()[2].as_string(), "x");
  EXPECT_TRUE(v->at("a").as_array()[1].at("b").is_null());
  EXPECT_FALSE(v->at("c").GetBool("d", true));
}

TEST(JsonParse, UnicodeEscapes) {
  Result<Value> v = json::Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairs) {
  Result<Value> v = json::Parse(R"("😀")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] trailing", "{\"a\":1,}", "\"\\q\"", "nan", "[1 2]"}) {
    EXPECT_FALSE(json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonParse, RejectsLoneSurrogate) {
  EXPECT_FALSE(json::Parse(R"("\ud800")").ok());
  EXPECT_FALSE(json::Parse(R"("\udc00")").ok());
}

TEST(JsonParse, RejectsRawControlInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(json::Parse(bad).ok());
}

TEST(JsonParse, DeepNestingBounded) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonRoundTrip, ComplexDocument) {
  Value doc = Value::MakeObject();
  doc["pes"] = Value::MakeArray();
  Value pe = Value::MakeObject();
  pe["name"] = "IsPrime";
  pe["params"]["seed"] = 42;
  doc["pes"].push_back(std::move(pe));
  doc["nested"]["arr"].push_back(Value(1.5));
  Result<Value> back = json::Parse(doc.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), doc);
  // Pretty form parses back to the same value too.
  Result<Value> pretty = json::Parse(doc.ToJsonPretty());
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty.value(), doc);
}

TEST(JsonParse, OutOfRangeNumbersMatchStrtod) {
  // from_chars reports these as out of range; the parser must still return
  // what strtod always did: ±inf on overflow, 0 or a subnormal below.
  for (const char* text : {"1e999", "-1e999", "1e-400", "-1e-400", "4.9e-324",
                           "2.4e-324", "1e-320", "2.2250738585072011e-308"}) {
    Result<Value> v = json::Parse(text);
    ASSERT_TRUE(v.ok()) << text;
    ASSERT_TRUE(v->is_double()) << text;
    const double want = std::strtod(text, nullptr);
    const double got = v->as_double();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0) << text;
  }
  EXPECT_EQ(json::Parse("1e999")->as_double(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(json::Parse("-1e999")->as_double(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(json::Parse("1e-400")->as_double(), 0.0);
  EXPECT_EQ(json::Parse("4.9e-324")->as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(json::Parse("-0.0")->as_double()));
}

// ---- Byte-identity of the JSON writers ----
//
// Stored columns (descriptionEmbedding, sptEmbedding), snapshots, WAL lines
// and replication frames are all written by json::WriteNumber and the
// string escaper behind Value::ToJson. The oracles below are the
// snprintf/sscanf writers those replaced; every stored byte must stay the
// same.

std::string OracleNumber(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  auto emit = [](const char* text) {
    std::string s = text;
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
  };
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  for (int prec = 15; prec <= 17; ++prec) {
    char trial[32];
    std::snprintf(trial, sizeof trial, "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(trial, "%lf", &back);
    if (back == d) return emit(trial);
  }
  return emit(buf);
}

std::string OracleString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

std::string Number(double d) {
  char buf[json::kMaxNumberChars];
  return std::string(buf, json::WriteNumber(buf, d));
}

std::vector<double> EdgeDoubles() {
  using Lim = std::numeric_limits<double>;
  std::vector<double> out = {
      0.0, -0.0, 1.0, -1.0, 3.0, 100.0, 0.1, 0.5, 1.0 / 3.0, 2.0 / 3.0,
      0.30000000000000004, 123456789012345678.0, 9007199254740993.0,
      Lim::denorm_min(), -Lim::denorm_min(), Lim::min(), -Lim::min(),
      2.2250738585072009e-308, Lim::max(), Lim::lowest(), Lim::epsilon(),
      Lim::infinity(), -Lim::infinity(), Lim::quiet_NaN(),
      -Lim::quiet_NaN(), Lim::signaling_NaN(),
      static_cast<double>(0.1f), static_cast<double>(1.0f / 3.0f),
      static_cast<double>(std::numeric_limits<float>::min()),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      static_cast<double>(std::numeric_limits<float>::max())};
  // The %g switch points (exponent < -4 or >= precision) and their
  // neighbours, for every precision the writer tries.
  for (double base : {1e-5, 1e-4, 1e-3, 1e14, 1e15, 1e16, 1e17, 1e18, 1e21,
                      1e22, 1e-300, 1e-310, 1e-320, 1e300, 1e308}) {
    for (double v : {base, -base, std::nextafter(base, 0.0),
                     std::nextafter(base, Lim::infinity()),
                     base - 1.0, base + 1.0, base + 2.0}) {
      out.push_back(v);
    }
  }
  for (int e = -324; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    out.push_back(p);
    out.push_back(std::nextafter(p, 0.0));
    out.push_back(static_cast<double>(static_cast<float>(p)));
  }
  return out;
}

TEST(JsonWriterParity, EdgeDoublesMatchTheOldWriter) {
  for (double d : EdgeDoubles()) {
    ASSERT_EQ(Number(d), OracleNumber(d)) << std::hexfloat << d;
  }
  EXPECT_EQ(Number(0.0), "0.0");
  EXPECT_EQ(Number(-0.0), "-0.0");
  EXPECT_EQ(Number(1e15), "1e+15");
  EXPECT_EQ(Number(1e-5), "1e-05");
  EXPECT_EQ(Number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(Number(1e-4), "0.0001");
  EXPECT_EQ(Number(100.0), "100.0");
  EXPECT_EQ(Number(std::numeric_limits<double>::denorm_min()),
            "4.94065645841247e-324");
  EXPECT_EQ(Number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriterParity, SeededSweepOfAMillionDoublesMatchesTheOldWriter) {
  std::mt19937_64 rng(20241117);
  constexpr int kPerKind = 1 << 19;  // 2^20 doubles in all
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  for (int i = 0; i < kPerKind; ++i) {
    // Random bit patterns: every exponent, subnormals, NaN payloads.
    const uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    ASSERT_EQ(Number(d), OracleNumber(d)) << std::hexfloat << d;
    // Float-cast values, the shape of every stored embedding component:
    // alternately raw float bit patterns and unit-range embedding weights.
    float f;
    if (i % 2 == 0) {
      const auto fbits = static_cast<uint32_t>(rng());
      std::memcpy(&f, &fbits, sizeof f);
    } else {
      f = unit(rng);
    }
    d = static_cast<double>(f);
    ASSERT_EQ(Number(d), OracleNumber(d)) << std::hexfloat << d;
  }
}

TEST(JsonWriterParity, EscapeGoldenStrings) {
  std::string all_controls;
  for (int c = 0; c < 0x20; ++c) all_controls += static_cast<char>(c);
  EXPECT_EQ(Value(all_controls).ToJson(),
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\"");
  // Escapes at the first and last position, around a verbatim run.
  EXPECT_EQ(Value(std::string("\x1f" "ab\"", 4)).ToJson(),
            "\"\\u001fab\\\"\"");
  EXPECT_EQ(Value("\\mid\x7f" "dle\n").ToJson(), "\"\\\\mid\x7f" "dle\\n\"");
  // UTF-8 multibyte sequences (2, 3 and 4 bytes) pass through verbatim.
  EXPECT_EQ(Value("\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80").ToJson(),
            "\"\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\"");
  EXPECT_EQ(Value("").ToJson(), "\"\"");
  // Object keys take the same path.
  Value obj = Value::MakeObject();
  obj["k\t\""] = 1;
  EXPECT_EQ(obj.ToJson(), "{\"k\\t\\\"\":1}");
}

TEST(JsonWriterParity, EveryByteInEveryPositionMatchesTheOldEscaper) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    for (const std::string& s :
         {std::string(1, ch), std::string(1, ch) + "xyz",
          "xyz" + std::string(1, ch), "x" + std::string(1, ch) + "yz",
          std::string(2, ch)}) {
      ASSERT_EQ(Value(s).ToJson(), OracleString(s)) << "byte " << c;
    }
  }
}

TEST(JsonWriterParity, FeatureBagToJsonGoldenBytes) {
  spt::FeatureBag bag;
  bag.counts = {{18446744073709551615ull, 1}, {0, 3}, {42, 7}, {1000, 12}};
  EXPECT_EQ(spt::FeatureBagToJson(bag),
            R"({"0":3,"42":7,"1000":12,"18446744073709551615":1})");
  EXPECT_EQ(spt::FeatureBagToJson(spt::FeatureBag{}), "{}");

  // A real featurized snippet: same bytes as the Value object the column
  // used to be serialized from, and it parses back to the same counts.
  spt::AromaEngine engine;
  Result<spt::FeatureBag> real = engine.Featurize(
      "class IsPrime:\n"
      "    def process(self, n):\n"
      "        for i in range(2, n):\n"
      "            if n % i == 0:\n"
      "                return None\n"
      "        return n\n");
  ASSERT_TRUE(real.ok());
  ASSERT_GT(real->counts.size(), 10u);
  std::vector<std::pair<uint64_t, uint32_t>> sorted(real->counts.begin(),
                                                    real->counts.end());
  std::sort(sorted.begin(), sorted.end());
  Value obj = Value::MakeObject();
  for (const auto& [h, c] : sorted) {
    obj[std::to_string(h)] = static_cast<int64_t>(c);
  }
  const std::string text = spt::FeatureBagToJson(*real);
  EXPECT_EQ(text, obj.ToJson());
  Result<spt::FeatureBag> back = spt::FeatureBagFromJson(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counts, real->counts);
}

TEST(JsonWriterParity, EmbeddingToJsonMatchesTheValueArrayPath) {
  embed::UnixcoderSim model;
  for (const char* text :
       {"reads tuples from a file and emits one line each",
        "filters prime numbers", "",
        "computes a sliding-window z-score over sensor readings and flags "
        "anomalies above three standard deviations"}) {
    const embed::Vector v = model.EncodeText(text);
    Value arr = Value::MakeArray();
    std::string oracle = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      arr.push_back(static_cast<double>(v[i]));
      if (i) oracle += ',';
      oracle += OracleNumber(static_cast<double>(v[i]));
    }
    oracle += ']';
    const std::string text_json = embed::ToJson(v);
    EXPECT_EQ(text_json, arr.ToJson()) << text;
    EXPECT_EQ(text_json, oracle) << text;
    EXPECT_EQ(embed::FromJson(text_json), v) << text;
  }
  EXPECT_EQ(embed::ToJson({}), "[]");
}

// ---- String decoding parity ----
//
// The reader appends each verbatim run of a string in one go. The oracle is
// the decoder it replaced, which appended one character at a time; decoded
// bytes, and the error and its offset for malformed strings, must match.

void OracleUtf8(std::string& out, uint32_t cp) {
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

/// Decodes the string literal that starts `doc` and must end it.
Result<std::string> OracleParseString(const std::string& doc) {
  size_t pos = 1;
  auto fail = [&](const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos));
  };
  auto hex4 = [&](uint32_t* value) -> Status {
    if (pos + 4 > doc.size()) return fail("truncated \\u escape");
    *value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = doc[pos + static_cast<size_t>(i)];
      *value <<= 4;
      if (c >= '0' && c <= '9') *value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') *value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') *value |= static_cast<uint32_t>(c - 'A' + 10);
      else return fail("invalid hex digit in \\u escape");
    }
    pos += 4;
    return Status::Ok();
  };
  std::string out;
  while (true) {
    if (pos >= doc.size()) return fail("unterminated string");
    const char c = doc[pos++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      return fail("raw control character in string");
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos >= doc.size()) return fail("unterminated escape");
    const char esc = doc[pos++];
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
        uint32_t code = 0;
        if (Status st = hex4(&code); !st.ok()) return st;
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (pos + 1 < doc.size() && doc[pos] == '\\' && doc[pos + 1] == 'u') {
            pos += 2;
            uint32_t lo = 0;
            if (Status st = hex4(&lo); !st.ok()) return st;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            return fail("lone high surrogate");
          }
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return fail("lone low surrogate");
        }
        OracleUtf8(out, code);
        break;
      }
      default:
        return fail("invalid escape character");
    }
  }
}

/// Parses `doc` (a string literal, possibly malformed) both ways.
void ExpectStringParity(const std::string& doc) {
  Result<std::string> want = OracleParseString(doc);
  Result<Value> got = json::Parse(doc);
  ASSERT_EQ(got.ok(), want.ok()) << doc;
  if (want.ok()) {
    ASSERT_TRUE(got->is_string()) << doc;
    ASSERT_EQ(got->as_string(), want.value()) << doc;
  } else {
    ASSERT_EQ(got.status().ToString(), want.status().ToString()) << doc;
  }
}

TEST(JsonReaderParity, EveryByteInEveryPositionMatchesTheOldDecoder) {
  for (int c = 0; c < 256; ++c) {
    if (c == '"') continue;  // would end the literal early
    const std::string ch(1, static_cast<char>(c));
    for (const std::string& body :
         {ch, ch + "xyz", "xyz" + ch, "x" + ch + "yz", ch + ch,
          "\\" + ch, "ab\\" + ch + "cd"}) {
      ASSERT_NO_FATAL_FAILURE(ExpectStringParity('"' + body + '"'));
      // Unterminated: the run reaches the end of the document.
      ASSERT_NO_FATAL_FAILURE(ExpectStringParity('"' + body));
    }
  }
}

TEST(JsonReaderParity, EscapesSurrogatesAndLongRuns) {
  const std::string run(20000, 'r');
  for (const std::string& body : std::vector<std::string>{
           "", "\\\"\\\\\\/\\b\\f\\n\\r\\t",
           "\\u0041\\u00e9\\u20ac\\uFFFF\\u0000",
           "\\ud83d\\ude00", "a\\uD83D\\uDE00b", "\\ud83d", "\\ud83dx",
           "\\ud83d\\u0041", "\\ude00", "\\u12", "\\u12G4", "\\ud83d\\u12",
           "\\x", "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80",
           run, run + "\\n" + run, "\\t" + run + "\\u00e9",
           run + "\\ud83d\\ude00" + run, run + "\x01" + run}) {
    ASSERT_NO_FATAL_FAILURE(ExpectStringParity('"' + body + '"'));
    ASSERT_NO_FATAL_FAILURE(ExpectStringParity('"' + body));
  }
  // A stored embedding column, as WAL records and snapshots carry it.
  embed::UnixcoderSim model;
  const std::string column =
      embed::ToJson(model.EncodeText("reads tuples from a file"));
  ASSERT_NO_FATAL_FAILURE(ExpectStringParity(Value(column).ToJson()));
  // Seeded random bodies over a small alphabet rich in escape starts.
  std::mt19937 rng(7);
  const std::string alphabet = "ab\\u0dDe\"nt/\x1f\xc3\xa9";
  for (int i = 0; i < 20000; ++i) {
    std::string body;
    const size_t len = rng() % 24;
    for (size_t j = 0; j < len; ++j) body += alphabet[rng() % alphabet.size()];
    const size_t quote = body.find('"');
    if (quote != std::string::npos) body.resize(quote);
    ASSERT_NO_FATAL_FAILURE(ExpectStringParity('"' + body + '"'));
  }
}

}  // namespace
}  // namespace laminar
