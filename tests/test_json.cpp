// JSON DOM parser/writer and the in-place field editor used inside enclaves.
#include <gtest/gtest.h>

#include "common/rand.hpp"
#include "json/json.hpp"

namespace pprox::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").value().is_null());
  EXPECT_EQ(parse("true").value().as_bool(), true);
  EXPECT_EQ(parse("false").value().as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").value().as_number(), 42);
  EXPECT_DOUBLE_EQ(parse("-3.5").value().as_number(), -3.5);
  EXPECT_DOUBLE_EQ(parse("1e3").value().as_number(), 1000);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").value().as_number(), 0.025);
  EXPECT_EQ(parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").value().as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("A")").value().as_string(), "A");
  EXPECT_EQ(parse(R"("é")").value().as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse(R"("€")").value().as_string(), "\xe2\x82\xac");  // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("😀")").value().as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, Structures) {
  const auto v = parse(R"({"user":"u1","items":[1,2,3],"nested":{"k":true}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().get_string("user"), "u1");
  EXPECT_EQ(v.value().find("items")->as_array().size(), 3u);
  EXPECT_TRUE(v.value().find("nested")->find("k")->as_bool());
  EXPECT_EQ(v.value().find("missing"), nullptr);
}

TEST(JsonParse, WhitespaceTolerated) {
  const auto v = parse("  {\n\t\"a\" :  [ 1 , 2 ]\r\n}  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().find("a")->as_array().size(), 2u);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("{}").value().as_object().empty());
  EXPECT_TRUE(parse("[]").value().as_array().empty());
}

TEST(JsonParse, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul", "01a",
        "\"unterminated", "{\"a\":1}x", "[1 2]", "{'a':1}", "\"\\q\"",
        "\"\\u12\"", "+5", "-", "1.", "1e", "[1,]2"}) {
    EXPECT_FALSE(parse(bad).ok()) << bad;
  }
}

TEST(JsonParse, RejectsLoneSurrogates) {
  EXPECT_FALSE(parse(R"("\ud83d")").ok());
  EXPECT_FALSE(parse(R"("\ude00")").ok());
  EXPECT_FALSE(parse(R"("\ud83dx")").ok());
}

TEST(JsonParse, RejectsControlCharInString) {
  const std::string s = std::string("\"a") + '\x01' + "b\"";
  EXPECT_FALSE(parse(s).ok());
}

TEST(JsonParse, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(parse(deep, 64).ok());
  EXPECT_TRUE(parse(deep, 128).ok());
}

/// `depth` nested arrays around one number: `[[...[1]...]]`.
std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "1" +
         std::string(static_cast<std::size_t>(depth), ']');
}

// The default bound: recursive descent stops at 64 levels, so an attacker
// cannot turn nesting into stack depth.
TEST(JsonParse, DefaultDepthBoundIs64) {
  EXPECT_TRUE(parse(nested_arrays(64)).ok());
  const auto too_deep = parse(nested_arrays(65));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.error().message.find("nesting too deep"),
            std::string::npos)
      << too_deep.error().message;
}

TEST(JsonParse, HugeNestingFailsClosedWithoutDeepRecursion) {
  const std::string opens(100000, '[');
  const auto result = parse(opens);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("nesting too deep"), std::string::npos)
      << result.error().message;
  EXPECT_FALSE(parse(nested_arrays(100000)).ok());
}

TEST(JsonDump, ScalarsAndEscaping) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
  EXPECT_EQ(JsonValue("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

TEST(JsonDump, PreservesObjectOrder) {
  JsonValue v{JsonObject{}};
  v.set("z", 1);
  v.set("a", 2);
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2})");
  v.set("z", 3);  // overwrite keeps position
  EXPECT_EQ(v.dump(), R"({"z":3,"a":2})");
}

class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, ParseDumpFixpoint) {
  const auto v = parse(GetParam());
  ASSERT_TRUE(v.ok()) << GetParam();
  const std::string once = v.value().dump();
  const auto v2 = parse(once);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().dump(), once);  // dump∘parse is a fixpoint
  EXPECT_EQ(v2.value(), v.value());
}

INSTANTIATE_TEST_SUITE_P(
    Docs, JsonRoundTrip,
    ::testing::Values(
        R"({"user":"enc-base64==","item":"abc123"})",
        R"({"items":["i1","i2","i3"],"count":3})",
        R"([{"a":[1,2,{"b":null}]},true,false,"x"])",
        R"({"nested":{"deep":{"deeper":{"deepest":[0.5,-1e9]}}}})",
        R"({"empty_obj":{},"empty_arr":[],"s":""})"));

namespace fuzz {

json::JsonValue random_value(SplitMix64& rng, int depth) {
  const auto kind = rng.next_below(depth > 3 ? 4 : 6);
  switch (kind) {
    case 0: return json::JsonValue(nullptr);
    case 1: return json::JsonValue(rng.next_below(2) == 0);
    case 2:
      return json::JsonValue(static_cast<double>(
                                 static_cast<std::int64_t>(rng.next())) /
                             static_cast<double>(1 + rng.next_below(1000)));
    case 3: {
      std::string s;
      const auto len = rng.next_below(12);
      for (std::size_t i = 0; i < len; ++i) {
        // Mix printable ASCII with escapes and multi-byte UTF-8.
        const auto roll = rng.next_below(8);
        if (roll == 0) s += '"';
        else if (roll == 1) s += '\\';
        else if (roll == 2) s += '\n';
        else if (roll == 3) s += "\xc3\xa9";
        else s += static_cast<char>('a' + rng.next_below(26));
      }
      return json::JsonValue(std::move(s));
    }
    case 4: {
      json::JsonArray arr;
      const auto len = rng.next_below(4);
      for (std::size_t i = 0; i < len; ++i) {
        arr.push_back(random_value(rng, depth + 1));
      }
      return json::JsonValue(std::move(arr));
    }
    default: {
      json::JsonObject obj;
      const auto len = rng.next_below(4);
      for (std::size_t i = 0; i < len; ++i) {
        obj.emplace_back("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return json::JsonValue(std::move(obj));
    }
  }
}

}  // namespace fuzz

TEST(JsonFuzz, RandomDocumentsRoundTrip) {
  SplitMix64 rng(4242);
  for (int i = 0; i < 500; ++i) {
    const json::JsonValue doc = fuzz::random_value(rng, 0);
    const std::string text = doc.dump();
    const auto back = parse(text);
    ASSERT_TRUE(back.ok()) << text;
    ASSERT_EQ(back.value().dump(), text) << text;
  }
}

TEST(JsonFuzz, MutatedDocumentsNeverCrash) {
  // Bit-flip valid documents; the parser must reject or accept without UB
  // (run under the normal test harness; ASan builds amplify this).
  SplitMix64 rng(515);
  const std::string base =
      R"({"user":"abc","items":["i1","i2",{"k":[1,2.5,null,true]}]})";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(rng.next());
    (void)parse(mutated);  // must not crash, leak, or hang
  }
}

TEST(InPlaceEditor, FindsTopLevelField) {
  const std::string doc = R"({"user":"alice","item":"movie-7"})";
  const auto span = find_string_field(doc, "user");
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(doc.substr(span->first, span->second - span->first), "alice");
  EXPECT_EQ(get_string_field(doc, "item"), "movie-7");
}

TEST(InPlaceEditor, DoesNotMatchKeyInsideValue) {
  const std::string doc = R"({"comment":"the key user: is fake","user":"bob"})";
  EXPECT_EQ(get_string_field(doc, "user"), "bob");
}

TEST(InPlaceEditor, FindsNestedField) {
  const std::string doc = R"({"outer":{"user":"carol"}})";
  EXPECT_EQ(get_string_field(doc, "user"), "carol");
}

TEST(InPlaceEditor, MissingFieldReturnsNullopt) {
  EXPECT_FALSE(get_string_field(R"({"a":"b"})", "user").has_value());
  EXPECT_FALSE(get_string_field(R"({"user":42})", "user").has_value());
}

TEST(InPlaceEditor, ToleratesSpacesAroundColon) {
  const std::string doc = "{\"user\" :\n \"dave\"}";
  EXPECT_EQ(get_string_field(doc, "user"), "dave");
}

TEST(InPlaceEditor, ReplaceGrowsAndShrinks) {
  std::string doc = R"({"user":"u","item":"i"})";
  EXPECT_TRUE(replace_string_field(doc, "user", "a-much-longer-ciphertext=="));
  EXPECT_EQ(get_string_field(doc, "user"), "a-much-longer-ciphertext==");
  EXPECT_EQ(get_string_field(doc, "item"), "i");  // neighbours untouched
  EXPECT_TRUE(replace_string_field(doc, "user", "x"));
  EXPECT_EQ(doc, R"({"user":"x","item":"i"})");
}

TEST(InPlaceEditor, ReplaceMissingReturnsFalse) {
  std::string doc = R"({"a":"b"})";
  EXPECT_FALSE(replace_string_field(doc, "user", "x"));
  EXPECT_EQ(doc, R"({"a":"b"})");
}

TEST(InPlaceEditor, ReplacedDocStillParses) {
  std::string doc = R"({"user":"alice","items":["i1","i2"]})";
  ASSERT_TRUE(replace_string_field(doc, "user", "ZW5jcnlwdGVkCg=="));
  const auto v = parse(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().get_string("user"), "ZW5jcnlwdGVkCg==");
}

TEST(InPlaceEditor, SkipsEscapedQuotesInValues) {
  const std::string doc = R"({"note":"he said \"user\":","user":"eve"})";
  EXPECT_EQ(get_string_field(doc, "user"), "eve");
}

}  // namespace
}  // namespace pprox::json
