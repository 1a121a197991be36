#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

namespace mbi {
namespace {

/// End-to-end tests of the `mbi` command-line tool, driving the real binary
/// (path injected by CMake as MBI_CLI_PATH).

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// `env_prefix` is prepended to the shell command, for tests that drive the
/// binary's environment hooks (e.g. "MBI_FAULT_INJECT='nospace_write=3'").
CommandResult RunCli(const std::string& args,
                     const std::string& env_prefix = "") {
  std::string command = (env_prefix.empty() ? "" : env_prefix + " ") +
                        std::string(MBI_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult result;
  std::array<char, 4096> buffer;
  size_t read;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(RunCli("--help").exit_code, 0);
  CommandResult unknown = RunCli("frobnicate");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.output.find("unknown command"), std::string::npos);
  EXPECT_EQ(RunCli("").exit_code, 2);
}

TEST(CliTest, FullPipeline) {
  std::string db = TempPath("cli_pipeline.mbid");
  std::string index = TempPath("cli_pipeline.mbst");

  CommandResult generate = RunCli(
      "generate --out " + db +
      " --transactions 5000 --universe 300 --itemsets 100 --seed 7");
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  EXPECT_NE(generate.output.find("5000 transactions"), std::string::npos);

  CommandResult build =
      RunCli("build --db " + db + " --out " + index + " --cardinality 10");
  ASSERT_EQ(build.exit_code, 0) << build.output;
  EXPECT_NE(build.output.find("K=10"), std::string::npos);

  CommandResult query = RunCli("query --db " + db + " --index " + index +
                            " --k 3 --similarity cosine");
  ASSERT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("top-3 by cosine"), std::string::npos);
  EXPECT_NE(query.output.find("provably exact"), std::string::npos);

  CommandResult range = RunCli("query --db " + db + " --index " + index +
                            " --similarity cosine --range 0.7");
  ASSERT_EQ(range.exit_code, 0) << range.output;
  EXPECT_NE(range.output.find("range query cosine >= 0.7"),
            std::string::npos);

  CommandResult explicit_target =
      RunCli("query --db " + db + " --index " + index + " --items 1,2,3 --k 2");
  ASSERT_EQ(explicit_target.exit_code, 0) << explicit_target.output;
  EXPECT_NE(explicit_target.output.find("target: {1, 2, 3}"),
            std::string::npos);

  CommandResult checked_build = RunCli("build --db " + db + " --out " + index +
                                       " --cardinality 10 --check_invariants");
  ASSERT_EQ(checked_build.exit_code, 0) << checked_build.output;
  EXPECT_NE(checked_build.output.find("index invariants verified"),
            std::string::npos);

  CommandResult checked_query =
      RunCli("query --db " + db + " --index " + index +
             " --k 3 --similarity match_ratio --check_invariants");
  ASSERT_EQ(checked_query.exit_code, 0) << checked_query.output;
  EXPECT_NE(
      checked_query.output.find("index invariants and bound dominance"),
      std::string::npos);

  CommandResult stats = RunCli("stats --db " + db + " --index " + index);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("signature cardinality K: 10"),
            std::string::npos);

  CommandResult mine = RunCli("mine --db " + db + " --min_support 0.02");
  ASSERT_EQ(mine.exit_code, 0) << mine.output;
  EXPECT_NE(mine.output.find("frequent itemsets"), std::string::npos);

  CommandResult bench = RunCli("bench --db " + db + " --index " + index +
                               " --queries 20 --termination 0.05");
  ASSERT_EQ(bench.exit_code, 0) << bench.output;
  EXPECT_NE(bench.output.find("latency:"), std::string::npos);
  EXPECT_NE(bench.output.find("p95="), std::string::npos);

  std::remove(db.c_str());
  std::remove(index.c_str());
}

TEST(CliTest, ErrorsAreReported) {
  EXPECT_EQ(RunCli("build --db /no/such/file.mbid").exit_code, 1);
  EXPECT_EQ(RunCli("query --db /no/such/file.mbid").exit_code, 1);
  EXPECT_EQ(RunCli("stats --db /no/such/file.mbid").exit_code, 1);
  EXPECT_EQ(RunCli("mine --db /no/such/file.mbid").exit_code, 1);

  // Malformed --items and out-of-universe items.
  std::string db = TempPath("cli_errors.mbid");
  std::string index = TempPath("cli_errors.mbst");
  ASSERT_EQ(RunCli("generate --out " + db +
                " --transactions 200 --universe 50 --itemsets 20")
                .exit_code,
            0);
  ASSERT_EQ(
      RunCli("build --db " + db + " --out " + index + " --cardinality 6")
          .exit_code,
      0);
  EXPECT_EQ(RunCli("query --db " + db + " --index " + index + " --items abc")
                .exit_code,
            1);
  EXPECT_EQ(RunCli("query --db " + db + " --index " + index + " --items 99999")
                .exit_code,
            1);

  // Out-of-range numeric flags are usage errors: exit 2 with one line, never
  // a silent wrap, a full scan or a failed check, and `build` writes nothing.
  const std::string query = "query --db " + db + " --index " + index;
  const std::string out = TempPath("cli_errors_rejected.mbst");
  const std::string build = "build --db " + db + " --out " + out;
  const std::string insert =
      "insert --index " + TempPath("cli_errors_rejected.mbdyn") + " --db " + db;
  // A 30-item universe is too small for K = 31, and its ~25-item baskets
  // serialize to more than a 64-byte page.
  const std::string wide_db = TempPath("cli_errors_wide.mbid");
  ASSERT_EQ(RunCli("generate --out " + wide_db +
                   " --transactions 20 --universe 30 --itemsets 20"
                   " --avg_tx_size 30")
                .exit_code,
            0);
  const std::string wide_build = "build --db " + wide_db + " --out " + out;
  const std::string wide_insert = "insert --index " +
                                  TempPath("cli_errors_wide.mbdyn") +
                                  " --db " + wide_db;
  for (const std::string& args : {
           query + " --k -1",
           query + " --k 0",
           query + " --termination 0",
           build + " --activation 0",
           build + " --activation 4294967297",
           build + " --cardinality 0",
           build + " --cardinality 40",
           build + " --cardinality -1",
           build + " --page_size 0",
           build + " --page_size -5",
           build + " --min_pair_support -0.5",
           wide_build + " --page_size 64",
           wide_build + " --cardinality 31",
           wide_insert + " --cardinality 31",
           insert + " --buffer_capacity 0",
           insert + " --fanout 1",
           insert + " --cardinality 40",
       }) {
    CommandResult rejected = RunCli(args);
    EXPECT_EQ(rejected.exit_code, 2) << args << "\n" << rejected.output;
    EXPECT_EQ(std::count(rejected.output.begin(), rejected.output.end(), '\n'),
              1)
        << args << "\n" << rejected.output;
    EXPECT_EQ(rejected.output.find("top-"), std::string::npos) << args;
    EXPECT_EQ(rejected.output.find("MBI_CHECK"), std::string::npos) << args;
  }
  // `bench` replays through FindKNearest only; it has no admission control,
  // so --max_in_flight is an unknown flag (a usage error).
  EXPECT_EQ(RunCli("bench --db " + db + " --index " + index +
                   " --queries 2 --max_in_flight 2")
                .exit_code,
            2);
  std::FILE* written = std::fopen(out.c_str(), "rb");
  EXPECT_EQ(written, nullptr) << "a rejected build wrote " << out;
  if (written != nullptr) std::fclose(written);
  std::remove(wide_db.c_str());
  std::remove(db.c_str());
  std::remove(index.c_str());
}

void FlipByte(const std::string& path, long offset_from_end, uint8_t mask) {
  FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, -offset_from_end, SEEK_END), 0);
  int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, -1, SEEK_CUR), 0);
  ASSERT_NE(std::fputc(byte ^ mask, file), EOF);
  ASSERT_EQ(std::fclose(file), 0);
}

/// Every storage failure must surface as `error: <diagnostic naming the
/// artifact>` plus exit 1 — never an abort, assertion, or stack trace.
TEST(CliTest, StorageErrorsAreOneLineDiagnostics) {
  CommandResult missing = RunCli("build --db /no/such/file.mbid");
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.output.find("error:"), std::string::npos);
  EXPECT_NE(missing.output.find("/no/such/file.mbid"), std::string::npos);

  std::string db = TempPath("cli_corrupt.mbid");
  ASSERT_EQ(RunCli("generate --out " + db +
                   " --transactions 300 --universe 80 --itemsets 20")
                .exit_code,
            0);
  FlipByte(db, 10, 0x04);
  CommandResult corrupt = RunCli("stats --db " + db);
  EXPECT_EQ(corrupt.exit_code, 1);
  EXPECT_NE(corrupt.output.find("error:"), std::string::npos);
  EXPECT_NE(corrupt.output.find("corruption"), std::string::npos);
  EXPECT_NE(corrupt.output.find(db), std::string::npos) << corrupt.output;
  EXPECT_EQ(corrupt.output.find("MBI_CHECK"), std::string::npos);
  EXPECT_EQ(corrupt.output.find("Assertion"), std::string::npos);
  std::remove(db.c_str());
}

TEST(CliTest, FaultInjectionEnvDrivesOutOfSpace) {
  std::string db = TempPath("cli_fault.mbid");
  CommandResult nospace =
      RunCli("generate --out " + db + " --transactions 500 --universe 100",
             "MBI_FAULT_INJECT='nospace_write=3'");
  EXPECT_EQ(nospace.exit_code, 1) << nospace.output;
  EXPECT_NE(nospace.output.find("no space"), std::string::npos)
      << nospace.output;
  // The failed save left nothing behind: no artifact, no temp.
  FILE* leftover = std::fopen(db.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr);
  if (leftover != nullptr) std::fclose(leftover);

  CommandResult bad_spec = RunCli("stats --db " + db,
                                  "MBI_FAULT_INJECT='not_a_fault=1'");
  EXPECT_EQ(bad_spec.exit_code, 2);
  EXPECT_NE(bad_spec.output.find("MBI_FAULT_INJECT"), std::string::npos);
}

TEST(CliTest, VerifyReportsArtifactHealth) {
  std::string db = TempPath("cli_verify.mbid");
  std::string index = TempPath("cli_verify.mbst");
  ASSERT_EQ(RunCli("generate --out " + db +
                   " --transactions 500 --universe 100 --itemsets 30")
                .exit_code,
            0);
  ASSERT_EQ(
      RunCli("build --db " + db + " --out " + index + " --cardinality 8")
          .exit_code,
      0);

  CommandResult healthy = RunCli("verify " + db + " " + index);
  EXPECT_EQ(healthy.exit_code, 0) << healthy.output;
  EXPECT_NE(healthy.output.find("OK"), std::string::npos);
  EXPECT_NE(healthy.output.find("crc ok"), std::string::npos);

  EXPECT_EQ(RunCli("verify " + db + " --checksums_only").exit_code, 0);
  EXPECT_NE(RunCli("verify /no/such/artifact.mbid").exit_code, 0);
  EXPECT_EQ(RunCli("verify").exit_code, 2);

  // A single flipped byte fails verification, naming the damaged section.
  FlipByte(index, 12, 0x20);
  CommandResult corrupt = RunCli("verify " + index);
  EXPECT_EQ(corrupt.exit_code, 1) << corrupt.output;
  EXPECT_NE(corrupt.output.find("FAILED"), std::string::npos);
  EXPECT_NE(corrupt.output.find("section"), std::string::npos);

  std::remove(db.c_str());
  std::remove(index.c_str());
}

TEST(CliTest, CorruptIndexDegradesToSequentialScan) {
  std::string db = TempPath("cli_degraded.mbid");
  std::string index = TempPath("cli_degraded.mbst");
  ASSERT_EQ(RunCli("generate --out " + db +
                   " --transactions 800 --universe 120 --itemsets 30")
                .exit_code,
            0);
  ASSERT_EQ(
      RunCli("build --db " + db + " --out " + index + " --cardinality 8")
          .exit_code,
      0);
  FlipByte(index, 40, 0x10);

  // Queries still succeed — exact answers through the fallback, with the
  // degradation reported on both stderr and in the result line.
  CommandResult query =
      RunCli("query --db " + db + " --index " + index + " --items 1,2,3 --k 3");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("quarantined"), std::string::npos);
  EXPECT_NE(query.output.find("sequential fallback"), std::string::npos);
  EXPECT_EQ(query.output.find("MBI_CHECK"), std::string::npos);

  CommandResult bench =
      RunCli("bench --db " + db + " --index " + index + " --queries 5");
  EXPECT_EQ(bench.exit_code, 0) << bench.output;
  EXPECT_NE(bench.output.find("sequential fallbacks: 5"), std::string::npos)
      << bench.output;

  std::remove(db.c_str());
  std::remove(index.c_str());
}

}  // namespace
}  // namespace mbi
