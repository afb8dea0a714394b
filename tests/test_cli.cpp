// Integration tests driving the tomo_cli binary end to end: generate a
// topology, check it, simulate congestion, infer, merge, localize — the
// full workflow a user runs, through the real executable — plus the
// tomo_daemon flag checks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef TOMO_CLI_PATH
#error "TOMO_CLI_PATH must be defined by the build"
#endif
#ifndef TOMO_DAEMON_PATH
#error "TOMO_DAEMON_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult run_binary(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe)) {
    output += buffer;
  }
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

CommandResult run_cli(const std::string& args) {
  return run_binary(TOMO_CLI_PATH, args);
}

CommandResult run_daemon(const std::string& args) {
  return run_binary(TOMO_DAEMON_PATH, args);
}

// Unique per test process: ctest -j runs every discovered case as its own
// process, and each one re-runs SetUpTestSuite — shared fixed names made
// concurrent processes clobber each other's files (the old CliWorkflow
// parallel flake).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

class CliWorkflow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new std::string(temp_path("cli_topo.txt"));
    obs_ = new std::string(temp_path("cli_obs.txt"));
    const CommandResult gen = run_cli(
        "gen --kind planetlab --size 60 --endpoints 6 --seed 3 --out " +
        *topo_);
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
    const CommandResult sim = run_cli(
        "simulate --snapshots 300 --packets 500 --topology " + *topo_ +
        " --out " + *obs_);
    ASSERT_EQ(sim.exit_code, 0) << sim.output;
  }
  static void TearDownTestSuite() {
    std::remove(topo_->c_str());
    std::remove(obs_->c_str());
    delete topo_;
    delete obs_;
  }
  static std::string* topo_;
  static std::string* obs_;
};

std::string* CliWorkflow::topo_ = nullptr;
std::string* CliWorkflow::obs_ = nullptr;

TEST_F(CliWorkflow, GenWritesParsableTopology) {
  std::ifstream is(*topo_);
  ASSERT_TRUE(is.good());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "tomo-topology v1");
}

TEST_F(CliWorkflow, CheckReportsIdentifiability) {
  const CommandResult r = run_cli("check --topology " + *topo_);
  // Exit code 0 (holds) or 1 (violated) — both are valid reports.
  EXPECT_LE(r.exit_code, 1);
  EXPECT_NE(r.output.find("correlation sets"), std::string::npos);
}

TEST_F(CliWorkflow, InferPrintsPerLinkTable) {
  const CommandResult r = run_cli("infer --topology " + *topo_ +
                                  " --obs " + *obs_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("congestion_prob"), std::string::npos);
  EXPECT_NE(r.output.find("equations:"), std::string::npos);
}

TEST_F(CliWorkflow, InferCsvAndBaselineModes) {
  const CommandResult csv = run_cli("infer --csv --topology " + *topo_ +
                                    " --obs " + *obs_);
  EXPECT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.output.find("link,src,dst,congestion_prob"),
            std::string::npos);
  const CommandResult ind = run_cli("infer --independent --topology " +
                                    *topo_ + " --obs " + *obs_);
  EXPECT_EQ(ind.exit_code, 0) << ind.output;
}

TEST_F(CliWorkflow, InferWithBootstrapIntervals) {
  const CommandResult r = run_cli("infer --bootstrap 10 --topology " +
                                  *topo_ + " --obs " + *obs_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ci90_lo"), std::string::npos);
}

TEST_F(CliWorkflow, MergeWritesTransformedTopology) {
  const std::string out = temp_path("cli_merged.txt");
  const CommandResult r = run_cli("merge --topology " + *topo_ +
                                  " --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  {
    std::ifstream is(out);
    EXPECT_TRUE(is.good());
  }
  std::remove(out.c_str());
}

TEST_F(CliWorkflow, LocalizeReportsLinks) {
  const CommandResult r = run_cli("localize --snapshot 5 --topology " +
                                  *topo_ + " --obs " + *obs_);
  EXPECT_LE(r.exit_code, 1);  // 1 = infeasible snapshot (noise), still ok
  EXPECT_NE(r.output.find("congested path"), std::string::npos);
}

TEST_F(CliWorkflow, InferRejectsOversizedObservationHeader) {
  const std::string obs = temp_path("cli_oversized_obs.txt");
  {
    std::ofstream os(obs);
    os << "tomo-observations v1\npaths 18446744073709551615 snapshots 5\n";
  }
  const CommandResult r =
      run_cli("infer --topology " + *topo_ + " --obs " + obs);
  std::remove(obs.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("tomo_cli: obs-stream line 2:"), std::string::npos)
      << r.output;
}

TEST(CliErrors, UnknownSubcommandFails) {
  const CommandResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliErrors, MissingFileIsReportedCleanly) {
  const CommandResult r = run_cli("infer --topology /nonexistent.txt");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("tomo_cli:"), std::string::npos);
}

TEST(CliErrors, HelpExitsZero) {
  const CommandResult r = run_cli("gen --help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--kind"), std::string::npos);
}

// A zero window used to divide by zero (SIGFPE) when batch labelled its
// output line; it must be rejected like serve rejects it.
TEST(DaemonErrors, BatchRejectsZeroWindow) {
  const std::string trace = temp_path("daemon_trace.obs");
  const std::string system = "--scenario waxman-full --shrink --seed 7";
  const CommandResult record = run_daemon(
      "record " + system + " --snapshots 64 --packets 200 --out " + trace);
  ASSERT_EQ(record.exit_code, 0) << record.output;
  const CommandResult r =
      run_daemon("batch " + system + " --input " + trace + " --window 0");
  std::remove(trace.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("tomo_daemon: window size must be positive"),
            std::string::npos)
      << r.output;
}

// A negative count is an error naming the flag, not a cast to 2^64 - 5.
TEST(DaemonErrors, ServeRejectsNegativeWindow) {
  const CommandResult r = run_daemon(
      "serve --scenario waxman-full --shrink --window -5 < /dev/null");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("tomo_daemon: flag --window"), std::string::npos)
      << r.output;
}

}  // namespace
