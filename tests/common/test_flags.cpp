#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ripple {
namespace {

Flags make_flags(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(const_cast<char*>(s.c_str()));
  Flags flags;
  flags.parse(static_cast<int>(argv.size()), argv.data());
  return flags;
}

TEST(Flags, EqualsSyntax) {
  const auto flags = make_flags({"--batch=100", "--name=reddit-s"});
  EXPECT_EQ(flags.get_int("batch", 0), 100);
  EXPECT_EQ(flags.get_string("name", ""), "reddit-s");
}

TEST(Flags, SpaceSyntax) {
  const auto flags = make_flags({"--batch", "250"});
  EXPECT_EQ(flags.get_int("batch", 0), 250);
}

TEST(Flags, BareFlagIsTrue) {
  const auto flags = make_flags({"--quick"});
  EXPECT_TRUE(flags.get_bool("quick", false));
  EXPECT_TRUE(flags.has("quick"));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto flags = make_flags({});
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_EQ(flags.get_string("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, IntListParsing) {
  const auto flags = make_flags({"--sizes=1,10,100,1000"});
  const auto sizes = flags.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[3], 1000);
}

TEST(Flags, IntListDefault) {
  const auto flags = make_flags({});
  const auto sizes = flags.get_int_list("sizes", {5, 6});
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[1], 6);
}

TEST(Flags, PositionalArguments) {
  const auto flags = make_flags({"run", "--batch=1", "now"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "now");
}

TEST(Flags, DoubleParsing) {
  const auto flags = make_flags({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 0.25);
}

TEST(Flags, BoolExplicitFalse) {
  const auto flags = make_flags({"--verbose=false", "--a=0", "--b=no"});
  EXPECT_FALSE(flags.get_bool("verbose", true));
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_FALSE(flags.get_bool("b", true));
}

TEST(Flags, MalformedBoolThrows) {
  // A typo must not silently read as false.
  const auto flags = make_flags({"--skip-dnc=ture"});
  try {
    flags.get_bool("skip-dnc", true);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("--skip-dnc=ture"),
              std::string::npos)
        << e.what();
  }
}

// ---- malformed numeric values must die naming the flag, not parse as 0 ----

TEST(Flags, MalformedIntThrows) {
  const auto flags = make_flags({"--shards=abc"});
  EXPECT_THROW(flags.get_int("shards", 1), check_error);
}

TEST(Flags, TrailingGarbageIntThrows) {
  const auto flags = make_flags({"--shards=12x"});
  EXPECT_THROW(flags.get_int("shards", 1), check_error);
}

TEST(Flags, EmptyIntValueThrows) {
  const auto flags = make_flags({"--shards="});
  EXPECT_THROW(flags.get_int("shards", 1), check_error);
}

TEST(Flags, OutOfRangeIntThrows) {
  const auto flags = make_flags({"--shards=99999999999999999999999"});
  EXPECT_THROW(flags.get_int("shards", 1), check_error);
}

TEST(Flags, NegativeIntStillParses) {
  const auto flags = make_flags({"--offset=-17"});
  EXPECT_EQ(flags.get_int("offset", 0), -17);
}

TEST(Flags, MalformedDoubleThrows) {
  const auto flags = make_flags({"--wire-gbps=fast"});
  EXPECT_THROW(flags.get_double("wire-gbps", 10.0), check_error);
}

TEST(Flags, TrailingGarbageDoubleThrows) {
  const auto flags = make_flags({"--wire-gbps=10x"});
  EXPECT_THROW(flags.get_double("wire-gbps", 10.0), check_error);
}

TEST(Flags, OutOfRangeDoubleThrows) {
  const auto flags = make_flags({"--scale=1e99999"});
  EXPECT_THROW(flags.get_double("scale", 1.0), check_error);
}

TEST(Flags, ScientificNotationDoubleStillParses) {
  const auto flags = make_flags({"--scale=2.5e-3"});
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 2.5e-3);
}

TEST(Flags, SubnormalDoubleStillParses) {
  // strtod reports ERANGE on underflow while returning a usable denormal;
  // only overflow is an error.
  const auto flags = make_flags({"--scale=1e-310"});
  EXPECT_GT(flags.get_double("scale", 1.0), 0.0);
  EXPECT_LT(flags.get_double("scale", 1.0), 1e-300);
}

TEST(Flags, IntListRejectsBadToken) {
  const auto flags = make_flags({"--sizes=1,two,3"});
  EXPECT_THROW(flags.get_int_list("sizes", {}), check_error);
}

TEST(Flags, IntListRejectsTrailingGarbageToken) {
  const auto flags = make_flags({"--sizes=1,2,3x"});
  EXPECT_THROW(flags.get_int_list("sizes", {}), check_error);
}

TEST(Flags, DoubleListRejectsBadToken) {
  const auto flags = make_flags({"--rmat-a=0.45,oops"});
  EXPECT_THROW(flags.get_double_list("rmat-a", {}), check_error);
}

TEST(Flags, ErrorMessageNamesTheFlag) {
  const auto flags = make_flags({"--shards=abc"});
  try {
    flags.get_int("shards", 1);
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("--shards=abc"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ripple
