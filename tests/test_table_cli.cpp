#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace resmon {
namespace {

// ---- Table -----------------------------------------------------------

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), InvalidArgument);
}

TEST(Table, RowWidthMustMatchHeaders) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("x")}), InvalidArgument);
}

TEST(Table, CountsRowsAndCols) {
  Table t({"a", "b"});
  t.add_row({1.0, 2.0});
  t.add_row({std::string("x"), 3.0});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(Table, CsvOutputIsWellFormed) {
  Table t({"name", "value"}, 2);
  t.add_row({std::string("alpha"), 1.5});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,value\nalpha,1.50\n");
}

TEST(Table, TextOutputContainsHeadersAndValues) {
  Table t({"metric", "x"}, 3);
  t.add_row({std::string("rmse"), 0.125});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("metric"), std::string::npos);
  EXPECT_NE(out.find("0.125"), std::string::npos);
}

TEST(Table, PrecisionControlsFormatting) {
  Table t({"v"}, 1);
  t.add_row({0.16});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "v\n0.2\n");
}

// ---- Args ------------------------------------------------------------

Args make_args(std::vector<std::string> tokens) {
  std::vector<const char*> argv;
  argv.push_back("prog");
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesSpaceSeparatedValue) {
  const Args a = make_args({"--nodes", "50"});
  EXPECT_EQ(a.get_int("nodes", 0), 50);
}

TEST(Args, ParsesEqualsForm) {
  const Args a = make_args({"--b=0.3"});
  EXPECT_DOUBLE_EQ(a.get_double("b", 0.0), 0.3);
}

TEST(Args, BareFlagReadsAsTrue) {
  const Args a = make_args({"--full"});
  EXPECT_TRUE(a.get_bool("full"));
  EXPECT_TRUE(a.has("full"));
}

TEST(Args, MissingFlagFallsBack) {
  const Args a = make_args({});
  EXPECT_EQ(a.get("dataset", "alibaba"), "alibaba");
  EXPECT_EQ(a.get_int("steps", 42), 42);
  EXPECT_FALSE(a.get_bool("full"));
}

TEST(Args, FlagFollowedByFlagIsBoolean) {
  const Args a = make_args({"--verbose", "--nodes", "10"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_EQ(a.get_int("nodes", 0), 10);
}

TEST(Args, PositionalArgumentThrows) {
  EXPECT_THROW(make_args({"oops"}), InvalidArgument);
}

TEST(Args, NonNumericIntThrows) {
  const Args a = make_args({"--n", "abc", "--nodes", "3x", "--port=-1",
                            "--seed", "+4", "--big", "9223372036854775808"});
  EXPECT_THROW(a.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(a.get_int("port", 0), InvalidArgument);
  EXPECT_THROW(a.get_int("seed", 0), InvalidArgument);
  EXPECT_THROW(a.get_int("big", 0), InvalidArgument);
  EXPECT_THROW(make_args({"--threads=-2"}).get_threads(), InvalidArgument);
  EXPECT_EQ(make_args({"--big=9223372036854775807"}).get_int("big", 0),
            9223372036854775807);
  try {
    a.get_int("nodes", 0);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
  }
}

TEST(Args, NonNumericDoubleThrows) {
  // The one finite-number rule (std::from_chars): no leading space, no
  // '+', no hex, nothing out of double's range.
  for (const char* bad : {"abc", "0.3x", "nan", "inf", " 0.3", "+0.3",
                          "0x1p-2", "1e400", ""}) {
    EXPECT_THROW(make_args({"--x", bad}).get_double("x", 0.0),
                 InvalidArgument)
        << bad;
  }
  EXPECT_EQ(make_args({"--x", "25"}).get_double("x", 0.0), 25.0);
  EXPECT_EQ(make_args({"--x", "-0.5e-3"}).get_double("x", 0.0), -0.5e-3);
}

TEST(Args, BoolValuesAreStrict) {
  const Args a = make_args({"--on=on", "--yes=yes", "--off=off", "--zero=0",
                            "--typo=ture"});
  EXPECT_TRUE(a.get_bool("on"));
  EXPECT_TRUE(a.get_bool("yes"));
  EXPECT_FALSE(a.get_bool("off", true));
  EXPECT_FALSE(a.get_bool("zero", true));
  EXPECT_THROW(a.get_bool("typo"), InvalidArgument);
}

}  // namespace
}  // namespace resmon
