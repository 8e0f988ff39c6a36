#include "util/table.hpp"

#include <gtest/gtest.h>

namespace psched::util {
namespace {

TEST(TextTable, BasicRender) {
  TextTable t({"name", "value"});
  t.begin_row().add("alpha").add(1.5, 1);
  t.begin_row().add("b").add_int(42);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TextTable, PercentFormatting) {
  TextTable t({"p"});
  t.begin_row().add_percent(0.0312, 1);
  EXPECT_EQ(t.cell(0, 0), "3.1%");
}

TEST(TextTable, RowWidthEnforced) {
  TextTable t({"a", "b"});
  t.begin_row().add("x").add("y");
  EXPECT_THROW(t.add("z"), std::logic_error);
}

TEST(TextTable, AddBeforeBeginRowThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.add("x"), std::logic_error);
}

TEST(TextTable, EmptyHeaderRejected) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"k", "v"});
  t.begin_row().add("a,b").add("say \"hi\"");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(FormatNumber, TrimsZeros) {
  EXPECT_EQ(format_number(1.50, 2), "1.5");
  EXPECT_EQ(format_number(2.00, 2), "2");
  EXPECT_EQ(format_number(-0.0001, 2), "0");
  EXPECT_EQ(format_number(3.14159, 3), "3.142");
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_EQ(format_duration_short(30.0), "30s");
  EXPECT_EQ(format_duration_short(90.0), "1.5m");
  EXPECT_EQ(format_duration_short(7200.0), "2h");
  EXPECT_EQ(format_duration_short(259200.0), "3d");
}

}  // namespace
}  // namespace psched::util
