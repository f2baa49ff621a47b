#include "common/string_util.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace rdfdb {
namespace {

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_TRUE(StartsWith("hello", "hello"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilTest, EndsWith) {
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_TRUE(EndsWith("hello", ""));
  EXPECT_FALSE(EndsWith("hello", "he"));
  EXPECT_FALSE(EndsWith("o", "lo"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nochange"), "nochange");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a   b\tc \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"only"}, ","), "only");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1!"), "abc1!");
  EXPECT_EQ(ToUpper("AbC1!"), "ABC1!");
  EXPECT_EQ(ToUpper(""), "");
}

TEST(StringUtilTest, ParseInt64Valid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("+25", &v));
  EXPECT_EQ(v, 25);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(StringUtilTest, ParseInt64Invalid) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64(" 5", &v));
}

TEST(StringUtilTest, ParseDoubleValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_TRUE(ParseDouble("7", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(StringUtilTest, ParseDoubleInvalid) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringUtilTest, FindEscapableMatchesBytewiseScan) {
  // Bytes around every boundary the word-at-a-time test draws: below,
  // at and above 0x20, the two quoted characters and their neighbours,
  // DEL and high (UTF-8) bytes.
  const char alphabet[] = {'a', 'z', '\x00', '\x01', '\x1f', ' ', '!', '"',
                           '#', '[', '\\', ']', '\x7f', '\x80', '\xc3',
                           '\xff'};
  std::mt19937 rng(7);
  for (int round = 0; round < 4000; ++round) {
    std::string s(rng() % 40, 'x');
    // Mostly plain text, so long escape-free runs are common.
    for (char& c : s) {
      if (rng() % 6 == 0) c = alphabet[rng() % sizeof(alphabet)];
    }
    const size_t from = s.empty() ? 0 : rng() % (s.size() + 1);
    size_t want = from;
    while (want < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[want]);
      if (c < 0x20 || c == '"' || c == '\\') break;
      ++want;
    }
    ASSERT_EQ(FindEscapable(s, from), want)
        << "round " << round << " from " << from;
  }
}

}  // namespace
}  // namespace rdfdb
