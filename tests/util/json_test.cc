/**
 * @file
 * Unit tests for the JSON string escaper every serializer shares.
 */

#include "util/json.hh"

#include <gtest/gtest.h>

#include <string>

namespace iat::json {
namespace {

TEST(JsonEscape, ControlAndQuoteCharacters)
{
    EXPECT_EQ(escape("plain"), "plain");
    EXPECT_EQ(escape("a\"b"), "a\\\"b");
    EXPECT_EQ(escape("a\\b"), "a\\\\b");
    EXPECT_EQ(escape("a\nb"), "a\\nb");
    EXPECT_EQ(escape("a\rb"), "a\\rb");
    EXPECT_EQ(escape("a\tb"), "a\\tb");
    EXPECT_EQ(escape(std::string("a\x01") + "b"), "a\\u0001b");
    // The escaped text parses back to the original (the parser
    // validates unicode escapes without decoding them).
    const std::string raw = "q\"b\\n\nr\rt\t";
    const auto v = parse('"' + escape(raw) + '"');
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->string, raw);
}

} // namespace
} // namespace iat::json
