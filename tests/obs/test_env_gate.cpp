// The one gate spelling rule (env::Gate) across the three observability
// gates: every off spelling turns its module off and an instrumented solve
// then writes no file, and every on spelling selects the module's default
// instead of being taken as a file name.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/crash.hpp"
#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"

namespace dnc {
namespace {

namespace fs = std::filesystem;

struct GateCase {
  const char* var;
  bool (*enabled)() noexcept;
};

const GateCase kGates[] = {
    {"DNC_FLIGHT", obs::flight::enabled},
    {"DNC_HISTORY", obs::history::enabled},
    {"DNC_CRASH_DUMP", obs::crash::enabled},
};

void refresh_all() {
  obs::flight::reset_for_tests();  // also empties the solve ring
  obs::history::refresh_from_env();
  obs::crash::refresh_from_env();
}

/// Runs each test in a fresh empty working directory with every gate knob
/// cleared, and restores the directory, the environment and the module
/// state afterwards.
class EnvGate : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {
      "DNC_FLIGHT", "DNC_HISTORY", "DNC_CRASH_DUMP", "DNC_FLIGHT_LATENCY"};

  void SetUp() override {
    for (const char* var : kVars) {
      const char* v = std::getenv(var);
      saved_.emplace_back(var, v ? std::string(v) : std::string());
      saved_set_.push_back(v != nullptr);
      ::unsetenv(var);
    }
    old_cwd_ = fs::current_path();
    std::string tmpl = ::testing::TempDir() + "dnc_env_gate_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    fs::current_path(dir_);
    refresh_all();
  }
  void TearDown() override {
    fs::current_path(old_cwd_);
    fs::remove_all(dir_);
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_set_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
    refresh_all();
  }

  std::vector<std::string> files_in_dir() const {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir_)) out.push_back(e.path().filename());
    return out;
  }

  fs::path old_cwd_, dir_;
  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> saved_set_;
};

TEST_F(EnvGate, OffSpellingsDisableAndWriteNoFile) {
  for (const char* off : {"0", "off", "false", "no"}) {
    for (const GateCase& g : kGates) {
      SCOPED_TRACE(std::string(g.var) + "=" + off);
      for (const GateCase& other : kGates) ::unsetenv(other.var);
      ::unsetenv("DNC_FLIGHT_LATENCY");
      ::setenv(g.var, off, 1);
      // A witness consumer that writes no file keeps the solve instrumented:
      // a flight recorder with no trigger a healthy solve can trip. For the
      // flight gate itself, a 1 ns latency trigger makes a wrongly enabled
      // recorder dump.
      if (std::string(g.var) == "DNC_FLIGHT")
        ::setenv("DNC_FLIGHT_LATENCY", "1e-9", 1);
      else
        ::setenv("DNC_FLIGHT", "on", 1);
      refresh_all();
      EXPECT_FALSE(g.enabled());

      matgen::Tridiag t = matgen::table3_matrix(4, 120);
      Matrix v;
      dc::SolveStats st;
      dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);
      EXPECT_FALSE(obs::crash::ensure_installed());
      EXPECT_EQ(files_in_dir(), std::vector<std::string>{});
    }
  }
}

TEST_F(EnvGate, OnSpellingsSelectTheModuleDefault) {
  const std::string pid = std::to_string(::getpid());
  for (const char* on : {"1", "on", "true", "yes"}) {
    SCOPED_TRACE(on);
    for (const GateCase& g : kGates) ::setenv(g.var, on, 1);
    refresh_all();
    for (const GateCase& g : kGates) EXPECT_TRUE(g.enabled()) << g.var;
    EXPECT_EQ(obs::history::archive_path(), "dnc_history.jsonl");
    EXPECT_EQ(obs::crash::dump_path(), "dnc_crash." + pid + ".txt");
  }
  for (const GateCase& g : kGates) ::unsetenv(g.var);
  refresh_all();
  for (const GateCase& g : kGates) EXPECT_FALSE(g.enabled()) << g.var;
  // With every switch off a solve is not instrumented: no health probe.
  EXPECT_FALSE(obs::solve_telemetry_wanted());
  matgen::Tridiag t = matgen::table3_matrix(10, 200);
  Matrix v;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);
  EXPECT_FALSE(st.report.has_health);
}

TEST(EnvGateRule, ValuesAndHook) {
  static const char* seen = nullptr;
  static bool called = false;
  env::Gate gate{"DNC_TEST_GATE", "dflt", [](const char* v) {
                   called = true;
                   seen = v;
                   return v != nullptr && std::string(v) != "refused";
                 }};
  ::unsetenv("DNC_TEST_GATE");
  EXPECT_FALSE(gate.enabled());
  EXPECT_TRUE(called) << "first enabled() reads the env";
  EXPECT_EQ(seen, nullptr);
  ::setenv("DNC_TEST_GATE", "yes", 1);
  EXPECT_FALSE(gate.enabled()) << "cached until refresh()";
  EXPECT_TRUE(gate.refresh());
  EXPECT_STREQ(seen, "dflt");
  ::setenv("DNC_TEST_GATE", "run.prom", 1);
  EXPECT_TRUE(gate.refresh());
  EXPECT_STREQ(seen, "run.prom");
  ::setenv("DNC_TEST_GATE", "", 1);
  EXPECT_FALSE(gate.refresh());
  EXPECT_EQ(seen, nullptr);
  ::setenv("DNC_TEST_GATE", "refused", 1);
  EXPECT_FALSE(gate.refresh()) << "the hook may refuse a value";
  ::unsetenv("DNC_TEST_GATE");
}

}  // namespace
}  // namespace dnc
