#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace gridse {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a b c", ' '),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, DropsEmptyFieldsByDefault) {
  EXPECT_EQ(split("a   b", ' '), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split("  a  ", ' '), (std::vector<std::string>{"a"}));
}

TEST(Split, KeepsEmptyFieldsWhenAsked) {
  EXPECT_EQ(split("a,,b", ',', /*keep_empty=*/true),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(Split, EmptyInput) {
  EXPECT_TRUE(split("", ' ').empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("branch 1 2", "branch"));
  EXPECT_FALSE(starts_with("bra", "branch"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strfmt("%.3f", 2.0 / 3.0), "0.667");
  EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(FormatBytes, PicksHumanUnits) {
  EXPECT_EQ(format_bytes(100), "100 B");
  EXPECT_EQ(format_bytes(100 * 1024), "100 KB");
  EXPECT_EQ(format_bytes(100ull * 1024 * 1024), "100 MB");
  EXPECT_EQ(format_bytes(2ull * 1024 * 1024 * 1024), "2.0 GB");
}

TEST(ParseInteger, AcceptsWholeIntegersOnly) {
  EXPECT_EQ(parse_integer("--clusters", "3", "an integer"), 3);
  EXPECT_EQ(parse_integer("--clusters", "-12", "an integer"), -12);
  for (const char* bad : {"", "3x", "x3", "3.5", "3 ", " 3", "+3"}) {
    EXPECT_THROW(parse_integer("--clusters", bad, "an integer"), InvalidInput)
        << '"' << bad << '"';
  }
  EXPECT_THROW(parse_integer("--n", "99999999999999999999", "an integer"),
               InvalidInput);
}

TEST(ParseInteger, EnforcesBoundsAndNamesTheFlag) {
  EXPECT_EQ(parse_integer("--n", "7", "an integer", 0, 7), 7);
  EXPECT_THROW(parse_integer("--n", "8", "an integer", 0, 7), InvalidInput);
  EXPECT_THROW(parse_integer("--n", "-1", "an integer", 0, 7), InvalidInput);
  try {
    parse_integer("--clusters", "3x", "an integer");
    FAIL() << "no throw";
  } catch (const InvalidInput& e) {
    EXPECT_STREQ(e.what(), "--clusters: expected an integer, got \"3x\"");
  }
}

TEST(ParseDouble, AcceptsWholeFiniteNumbersOnly) {
  EXPECT_DOUBLE_EQ(parse_double("--noise", "1.5", "a number"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("--noise", "2e-3", "a number"), 2e-3);
  for (const char* bad : {"", "1.0abc", "abc", "nan", "inf", "1e999", " 1.5",
                          "+1.5"}) {
    EXPECT_THROW(parse_double("--noise", bad, "a number"), InvalidInput)
        << '"' << bad << '"';
  }
}

}  // namespace
}  // namespace gridse
