// DNC_CRASH_DUMP tests: the dump text and its off-by-default gate, and the
// last-gasp handler with the solve ring it writes beside the dump (death
// tests).
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/crash.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"

namespace dnc {
namespace {

namespace crash = obs::crash;

/// Runs each test with DNC_CRASH_DUMP and DNC_FLIGHT unset, and restores
/// them afterwards.
class CrashDumpTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {"DNC_CRASH_DUMP", "DNC_FLIGHT"};
  void SetUp() override {
    for (const char* var : kVars) {
      const char* v = std::getenv(var);
      saved_.emplace_back(var, v ? std::string(v) : std::string());
      saved_set_.push_back(v != nullptr);
      ::unsetenv(var);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_set_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
  }

  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> saved_set_;
};

TEST_F(CrashDumpTest, CrashDumpTextCarriesProvenance) {
  const std::string text = crash::dump_text(0);
  EXPECT_NE(text.find("# dnc crash dump"), std::string::npos);
  EXPECT_NE(text.find("# signal: test"), std::string::npos);
  EXPECT_NE(text.find("# git_commit: "), std::string::npos);
}

TEST_F(CrashDumpTest, CrashGateOffByDefault) {
  crash::refresh_from_env();
  EXPECT_FALSE(crash::enabled());
  EXPECT_EQ(crash::dump_path(), "");
  EXPECT_FALSE(crash::ensure_installed());
}

using CrashDumpDeathTest = CrashDumpTest;

// Arms DNC_CRASH_DUMP at a pid-unique path -- pinned through an env var,
// because the threadsafe death test re-executes the test body in a child
// whose own getpid() would name a different file than the one checked here.
std::string arm_crash_dump() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* preset = std::getenv("DNC_CRASH_TEST_PATH");
  const std::string path = preset ? std::string(preset)
                                  : ::testing::TempDir() + "dnc_crash_test_" +
                                        std::to_string(::getpid()) + ".txt";
  ::setenv("DNC_CRASH_TEST_PATH", path.c_str(), 1);
  std::remove(path.c_str());
  std::remove((path + ".jsonl").c_str());
  ::setenv("DNC_CRASH_DUMP", path.c_str(), 1);
  return path;
}

/// Reads the dump at `path`, then removes it and disarms the crash gate.
std::string take_crash_dump(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  std::remove(path.c_str());
  std::remove((path + ".jsonl").c_str());
  ::unsetenv("DNC_CRASH_DUMP");
  ::unsetenv("DNC_CRASH_TEST_PATH");
  crash::refresh_from_env();
  return ss.str();
}

TEST_F(CrashDumpDeathTest, LastGaspDumpSurvivesAbort) {
  const std::string path = arm_crash_dump();
  EXPECT_EXIT(
      {
        crash::refresh_from_env();
        crash::ensure_installed();
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  const std::string dump = take_crash_dump(path);
  ASSERT_FALSE(dump.empty()) << "crash handler did not write " << path;
  EXPECT_NE(dump.find("# dnc crash dump"), std::string::npos);
  EXPECT_NE(dump.find("SIGABRT"), std::string::npos);
}

TEST_F(CrashDumpDeathTest, LastGaspDumpWritesTheSolveRing) {
  const std::string path = arm_crash_dump();
  const std::string flight_prefix = path + ".flight";
  EXPECT_EXIT(
      {
        ::setenv("DNC_FLIGHT", flight_prefix.c_str(), 1);
        obs::flight::reset_for_tests();
        crash::refresh_from_env();
        matgen::Tridiag t = matgen::table3_matrix(4, 140);
        Matrix v;
        dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, nullptr);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  std::ifstream ring(path + ".jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(ring, line)) << "crash handler did not write " << path << ".jsonl";
  ring.close();
  const std::string dump = take_crash_dump(path);
  EXPECT_NE(dump.find("SIGABRT"), std::string::npos);
  // Each ring line wraps the solve's report: {"seq", "timestamp", "reason", "report"}.
  json::Value v;
  ASSERT_TRUE(json::parse(line, v)) << line;
  const json::Value* report = v.find("report");
  ASSERT_NE(report, nullptr) << line;
  obs::SolveReport rep;
  ASSERT_TRUE(obs::parse_solve_report_value(*report, rep)) << line;
  EXPECT_EQ(rep.n, 140);
  EXPECT_EQ(rep.driver, "taskflow");
}

}  // namespace
}  // namespace dnc
