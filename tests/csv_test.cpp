// Tests for the CSV writer.
#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace qec {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/qecool_csv_test.csv";
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter csv(path_, {"d", "p", "pl"});
    ASSERT_TRUE(csv.ok());
    csv.add_row(std::vector<double>{5, 0.01, 0.002});
    csv.add_row(std::vector<std::string>{"7", "0.02", "1e-3"});
  }
  EXPECT_EQ(slurp(path_), "d,p,pl\n5,0.01,0.002\n7,0.02,1e-3\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"name", "note"});
    csv.add_row(std::vector<std::string>{"a,b", "say \"hi\""});
  }
  EXPECT_EQ(slurp(path_), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, PadsShortRows) {
  {
    CsvWriter csv(path_, {"a", "b", "c"});
    csv.add_row(std::vector<std::string>{"1"});
  }
  EXPECT_EQ(slurp(path_), "a,b,c\n1,,\n");
}

TEST_F(CsvTest, StreamedFieldsMatchAddRow) {
  // Integers print as std::to_string does; text fields escape as in
  // add_row; end_row pads like a short add_row.
  const std::int64_t negative = -42;
  const std::uint64_t huge = ~std::uint64_t{0};
  {
    CsvWriter csv(path_, {"a", "b", "c", "d"});
    csv << negative << huge << "x,y";
    csv.end_row();
    csv.add_row(std::vector<std::string>{std::to_string(negative),
                                         std::to_string(huge), "x,y"});
  }
  const std::string row = "-42,18446744073709551615,\"x,y\",\n";
  EXPECT_EQ(slurp(path_), "a,b,c,d\n" + row + row);
}

TEST(CsvFailure, FullDeviceReportsFailure) {
  // /dev/full accepts the open and fails every write with ENOSPC: a
  // buffered writer only learns that when it flushes.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  CsvWriter csv("/dev/full", {"a", "b"});
  ASSERT_TRUE(csv.ok());
  csv.add_row(std::vector<std::string>{"1", "2"});
  EXPECT_FALSE(csv.flush());
  EXPECT_FALSE(csv.ok());
}

TEST(CsvFailure, UnwritablePathIsNoop) {
  CsvWriter csv("/nonexistent_dir_zz/x.csv", {"a"});
  EXPECT_FALSE(csv.ok());
  csv.add_row(std::vector<std::string>{"1"});  // must not crash
}

}  // namespace
}  // namespace qec
