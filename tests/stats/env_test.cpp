#include "stats/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace vdbench::stats {
namespace {

TEST(NumberParserTest, AcceptsDigitsOnly) {
  EXPECT_EQ(parse_uint64("0"), 0u);
  EXPECT_EQ(parse_uint64("007"), 7u);
  EXPECT_EQ(parse_uint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const std::string bad :
       {"", "-1", "+1", " 1", "1 ", "3abc", "0x10", "1.0",
        "18446744073709551616", "99999999999999999999999"})
    EXPECT_FALSE(parse_uint64(bad).has_value()) << "'" << bad << "'";

  EXPECT_EQ(parse_finite("0"), 0.0);
  EXPECT_EQ(parse_finite("30"), 30.0);
  EXPECT_EQ(parse_finite("1.5"), 1.5);
  for (const std::string bad :
       {"", "-1", "+1", " 1", "1 ", ".5", "1e3", "inf", "nan", "NaN",
        "infinity", "1.5s", "0x1p3"})
    EXPECT_FALSE(parse_finite(bad).has_value()) << "'" << bad << "'";
  // Too large for a double: rejected rather than read as infinity.
  EXPECT_FALSE(parse_finite(std::string(400, '9')).has_value());

  // The environment knobs read through the same parser.
  ::setenv("VDBENCH_TEST_NUMBER", "3abc", 1);
  EXPECT_FALSE(env_uint64("VDBENCH_TEST_NUMBER").has_value());
  ::setenv("VDBENCH_TEST_NUMBER", "12", 1);
  EXPECT_EQ(env_uint64("VDBENCH_TEST_NUMBER"), 12u);
  ::unsetenv("VDBENCH_TEST_NUMBER");
}

}  // namespace
}  // namespace vdbench::stats
