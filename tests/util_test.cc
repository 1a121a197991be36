#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/alias_sampler.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace mbi {
namespace {

// --- AliasSampler ---

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler sampler({1.0, 3.0});
  EXPECT_DOUBLE_EQ(sampler.ProbabilityOf(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.ProbabilityOf(1), 0.75);
  EXPECT_EQ(sampler.size(), 2u);
}

TEST(AliasSamplerTest, EmpiricalFrequenciesMatchWeights) {
  std::vector<double> weights = {0.5, 2.0, 0.0, 4.0, 1.5};
  AliasSampler sampler(weights);
  Rng rng(101);
  std::vector<int> histogram(weights.size(), 0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) ++histogram[sampler.Sample(&rng)];
  double total = 8.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(histogram[i] / static_cast<double>(kDraws),
                weights[i] / total, 0.01)
        << "index " << i;
  }
  EXPECT_EQ(histogram[2], 0);  // Zero weight must never be drawn.
}

TEST(AliasSamplerTest, SingleBucket) {
  AliasSampler sampler({7.0});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(AliasSamplerTest, RejectsAllZeroWeights) {
  EXPECT_DEATH(AliasSampler({0.0, 0.0}), "positive total");
}

TEST(AliasSamplerTest, RejectsNegativeWeights) {
  EXPECT_DEATH(AliasSampler({1.0, -0.5}), "non-negative");
}

// --- TablePrinter ---

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Format(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Format(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::Format(int64_t{42}), "42");
}

TEST(TablePrinterTest, PrintsAlignedColumns) {
  TablePrinter table({"a", "long_header"});
  table.AddRow({"12345", "x"});
  char buffer[256] = {};
  FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.Print(stream);
  std::fclose(stream);
  std::string text(buffer);
  EXPECT_NE(text.find("a      long_header"), std::string::npos);
  EXPECT_NE(text.find("12345  x"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TablePrinterTest, PrintsCsv) {
  TablePrinter table({"x", "y"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  char buffer[256] = {};
  FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.PrintCsv(stream);
  std::fclose(stream);
  EXPECT_STREQ(buffer, "x,y\n1,2\n3,4\n");
}

TEST(TablePrinterTest, RejectsRaggedRows) {
  TablePrinter table({"x", "y"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "size");
}

// --- FlagParser ---

TEST(FlagParserTest, ParsesAllTypesAndForms) {
  FlagParser parser("test");
  int64_t count = 0;
  double ratio = 0.0;
  std::string name;
  bool verbose = false;
  parser.AddInt64("count", 7, "a count", &count);
  parser.AddDouble("ratio", 0.5, "a ratio", &ratio);
  parser.AddString("name", "default", "a name", &name);
  parser.AddBool("verbose", false, "verbosity", &verbose);

  const char* argv[] = {"prog", "--count=42", "--ratio", "2.5",
                        "--name=alice", "--verbose"};
  EXPECT_TRUE(parser.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(ratio, 2.5);
  EXPECT_EQ(name, "alice");
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, DefaultsSurviveWhenAbsent) {
  FlagParser parser("test");
  int64_t count = 0;
  parser.AddInt64("count", 7, "a count", &count);
  const char* argv[] = {"prog"};
  EXPECT_TRUE(parser.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(count, 7);
}

TEST(FlagParserTest, HelpReturnsFalse) {
  FlagParser parser("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagParserDeathTest, UnknownFlagExits) {
  FlagParser parser("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "Unknown flag");
}

TEST(FlagParserDeathTest, MalformedIntExits) {
  FlagParser parser("test");
  int64_t count = 0;
  parser.AddInt64("count", 7, "a count", &count);
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "expects an integer");
}

TEST(FlagParserTest, AcceptsRangeEndpoints) {
  FlagParser parser("test");
  int64_t count = 0;
  double ratio = 0.0;
  parser.AddInt64("count", 7, "a count", &count, 1, 31);
  parser.AddDouble("ratio", 0.5, "a ratio", &ratio, 0.0, 1.0,
                   /*min_exclusive=*/true);
  const char* argv[] = {"prog", "--count=31", "--ratio=1"};
  EXPECT_TRUE(parser.Parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(count, 31);
  EXPECT_DOUBLE_EQ(ratio, 1.0);
}

TEST(FlagParserDeathTest, OutOfRangeValuesExit) {
  FlagParser parser("test");
  int64_t count = 0;
  double ratio = 0.0;
  parser.AddInt64("count", 7, "a count", &count, 1, 31);
  parser.AddDouble("ratio", 0.5, "a ratio", &ratio, 0.0, 1.0,
                   /*min_exclusive=*/true);
  for (const char* arg : {"--count=0", "--count=32", "--count=-1",
                          "--count=99999999999999999999"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "must be in \\[1, 31\\]")
        << arg;
  }
  for (const char* arg : {"--ratio=0", "--ratio=1.5", "--ratio=nan"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(parser.Parse(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "must be in \\(0, 1\\]")
        << arg;
  }
}

}  // namespace
}  // namespace mbi
