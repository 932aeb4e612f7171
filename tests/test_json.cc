// Tests for common/json: the shared escaper/number renderer every
// exporter uses and the configuration parser behind the C API's
// params_json documents.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "common/json.hh"

namespace {

using swiftrl::json::JsonValue;
using swiftrl::json::jsonEscape;
using swiftrl::json::jsonNumber;
using swiftrl::json::parseJson;

// --- writing ---------------------------------------------------------

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, RendersControlCharactersAsU4Hex)
{
    // One canonical spelling — \u000a, never the short \n — so
    // tools that grep exports for labels see a fixed form.
    EXPECT_EQ(jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\u0009b");
    EXPECT_EQ(jsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonNumber, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(1.1), "1.1");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(-2.5), "-2.5");
    EXPECT_EQ(jsonNumber(1e100), "1e+100");
}

// --- parsing ---------------------------------------------------------

TEST(JsonParse, ScalarsAndNesting)
{
    const auto doc = parseJson(
        R"({"a": 1.5, "b": "two", "c": true, "d": null,
            "e": [1, 2, 3], "f": {"g": -4}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->numberOr("a", 0.0), 1.5);
    EXPECT_EQ(doc->stringOr("b", ""), "two");
    EXPECT_TRUE(doc->find("c")->boolean);
    ASSERT_NE(doc->find("d"), nullptr);
    EXPECT_TRUE(doc->find("d")->isNull());
    ASSERT_NE(doc->find("e"), nullptr);
    ASSERT_TRUE(doc->find("e")->isArray());
    ASSERT_EQ(doc->find("e")->elements.size(), 3u);
    EXPECT_DOUBLE_EQ(doc->find("e")->elements[1].number, 2.0);
    ASSERT_NE(doc->find("f"), nullptr);
    EXPECT_EQ(doc->find("f")->intOr("g", 0), -4);
}

TEST(JsonParse, StringEscapes)
{
    const auto doc =
        parseJson(R"({"s": "q\"b\\n\nu\u0041"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->stringOr("s", ""), "q\"b\\n\nuA");
}

TEST(JsonParse, EscaperOutputRoundTrips)
{
    const std::string original = "label \"x\"\n\tpath\\to";
    const auto doc =
        parseJson("{\"s\": \"" + jsonEscape(original) + "\"}");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->stringOr("s", ""), original);
}

TEST(JsonParse, NumberForms)
{
    const auto doc = parseJson(
        R"({"i": 42, "neg": -7, "frac": 0.25, "exp": 2e3})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->intOr("i", 0), 42);
    EXPECT_EQ(doc->intOr("neg", 0), -7);
    EXPECT_DOUBLE_EQ(doc->numberOr("frac", 0.0), 0.25);
    EXPECT_DOUBLE_EQ(doc->numberOr("exp", 0.0), 2000.0);
}

TEST(JsonParse, IntegersSaturateInsteadOfWrapping)
{
    using swiftrl::json::saturate;
    EXPECT_EQ(saturate<unsigned>(4294967297.0), UINT_MAX);
    EXPECT_EQ(saturate<int>(4294967298.0), INT_MAX);
    EXPECT_EQ(saturate<int>(-1e300), INT_MIN);
    EXPECT_EQ(saturate<int>(2.7), 2);
    EXPECT_EQ(saturate<std::uint64_t>(1e30), UINT64_MAX);
    const auto doc = parseJson(R"({"big": 1e300, "small": -1e300})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->intOr("big", 0), LONG_MAX);
    EXPECT_EQ(doc->intOr("small", 0), LONG_MIN);
}

TEST(JsonParse, DuplicateKeysLastWins)
{
    const auto doc = parseJson(R"({"k": 1, "k": 2})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->intOr("k", 0), 2);
    // Source order is preserved for iteration.
    EXPECT_EQ(doc->members.size(), 2u);
}

TEST(JsonParse, HelpersFallBackOnMissingOrMistyped)
{
    const auto doc = parseJson(R"({"s": "text", "n": 3})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->numberOr("absent", 1.5), 1.5);
    EXPECT_DOUBLE_EQ(doc->numberOr("s", 1.5), 1.5);
    EXPECT_EQ(doc->stringOr("n", "fb"), "fb");
    EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, RejectsMalformedDocumentsWithOffset)
{
    std::string error;
    EXPECT_FALSE(parseJson("not json", &error).has_value());
    EXPECT_NE(error.find("offset"), std::string::npos);

    EXPECT_FALSE(parseJson("{\"a\": }", &error).has_value());
    EXPECT_FALSE(parseJson("{\"a\": 1,}", &error).has_value());
    EXPECT_FALSE(parseJson("[1, 2", &error).has_value());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", &error)
                     .has_value());
    EXPECT_FALSE(parseJson("\"\\q\"", &error).has_value());
    EXPECT_FALSE(parseJson("{\"s\": \"\n\"}", &error).has_value());
    EXPECT_FALSE(parseJson("", &error).has_value());
}

TEST(JsonParse, TopLevelScalarsParse)
{
    const auto num = parseJson("3.5");
    ASSERT_TRUE(num.has_value());
    EXPECT_TRUE(num->isNumber());
    EXPECT_DOUBLE_EQ(num->number, 3.5);

    const auto str = parseJson("\"alone\"");
    ASSERT_TRUE(str.has_value());
    EXPECT_EQ(str->string, "alone");
}

} // namespace
