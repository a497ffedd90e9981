/**
 * @file
 * Unit tests for the flat JSONL parser's numeric edge cases (model
 * files and observation records round-trip doubles at 17 significant
 * digits, so exponents, signed zero, and overflow handling must be
 * exact and loud) and for the shared JSON string writer's bytes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/flatjson.hh"

namespace hetsim::json
{
namespace
{

double parseNumber(const std::string &token)
{
    std::string error;
    const auto obj = parseFlatObject("{\"x\":" + token + "}", error);
    EXPECT_TRUE(obj.has_value()) << error;
    if (!obj)
        return 0.0;
    const auto it = obj->find("x");
    EXPECT_NE(it, obj->end());
    EXPECT_EQ(it->second.kind, Value::Kind::Number);
    return it->second.number;
}

std::string parseError(const std::string &token)
{
    std::string error;
    const auto obj = parseFlatObject("{\"x\":" + token + "}", error);
    EXPECT_FALSE(obj.has_value()) << "accepted: " << token;
    return error;
}

TEST(FlatJson, ExponentForms)
{
    EXPECT_DOUBLE_EQ(parseNumber("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseNumber("1.5E-3"), 0.0015);
    EXPECT_DOUBLE_EQ(parseNumber("2.5e+2"), 250.0);
    EXPECT_DOUBLE_EQ(parseNumber("9.8813129168249309e-324"),
                     9.8813129168249309e-324); // denormal survives
}

TEST(FlatJson, NegativeZeroKeepsItsSign)
{
    const double z = parseNumber("-0.0");
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
}

TEST(FlatJson, SeventeenDigitRoundTrip)
{
    // The precision save() emits: parse must return the same bits.
    EXPECT_EQ(parseNumber("0.30000000000000004"), 0.1 + 0.2);
    EXPECT_EQ(parseNumber("2.2250738585072014e-308"),
              2.2250738585072014e-308);
}

TEST(FlatJson, OverflowIsALoudError)
{
    EXPECT_NE(parseError("1e999").find("number out of range"),
              std::string::npos);
    EXPECT_NE(parseError("-1e999").find("number out of range"),
              std::string::npos);
}

TEST(FlatJson, UnderflowIsAcceptedAsNearestRepresentable)
{
    // ERANGE with a tiny result is not an error: the nearest
    // representable value (possibly zero) is good enough.
    EXPECT_EQ(parseNumber("1e-999"), 0.0);
}

TEST(FlatJson, MalformedNumbersAreRejected)
{
    EXPECT_NE(parseError("1e").find("malformed number"),
              std::string::npos);
    EXPECT_NE(parseError("1.2.3").find("malformed number"),
              std::string::npos);
    // Hex stops the number scanner at 'x'; rejected, message aside.
    EXPECT_FALSE(parseError("0x10").empty());
}

std::string
written(std::string_view text)
{
    std::ostringstream os;
    writeString(os, text);
    return os.str();
}

TEST(FlatJson, WriteStringEscapesExactlyTheControlBytes)
{
    const char *hex = "0123456789abcdef";
    for (int byte = 0; byte < 0x20; ++byte) {
        std::string expect;
        switch (byte) {
          case '\n': expect = "\\n"; break;
          case '\r': expect = "\\r"; break;
          case '\t': expect = "\\t"; break;
          default:
            expect = std::string("\\u00") + hex[byte >> 4] +
                     hex[byte & 0xf];
        }
        EXPECT_EQ(written(std::string(1, static_cast<char>(byte))),
                  "\"" + expect + "\"")
            << "byte " << byte;
    }
    EXPECT_EQ(written("\""), "\"\\\"\"");
    EXPECT_EQ(written("\\"), "\"\\\\\"");
    EXPECT_EQ(written("\x7f"), "\"\x7f\"");
    EXPECT_EQ(written("\xc3\xa9"), "\"\xc3\xa9\""); // UTF-8 e-acute
    EXPECT_EQ(written("R9 280X/compute"), "\"R9 280X/compute\"");
}

TEST(FlatJson, WrittenStringsParseBack)
{
    std::string every;
    for (int byte = 0; byte < 0x80; ++byte)
        every += static_cast<char>(byte);
    every += "\xc3\xa9";
    std::string error;
    const auto obj =
        parseFlatObject("{\"k\":" + written(every) + "}", error);
    ASSERT_TRUE(obj.has_value()) << error;
    EXPECT_EQ(obj->at("k").text, every);

    EXPECT_FALSE(parseFlatObject("{\"k\":\"\\u00e9\"}", error));
    EXPECT_FALSE(parseFlatObject("{\"k\":\"\\u00\"}", error));
}

} // namespace
} // namespace hetsim::json
