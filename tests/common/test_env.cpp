// The env front door (common/env.hpp): typed getters over DNC_* knobs, the
// README knob table checked against the knobs the code reads, plus
// parse_topology_spec -- the pure parser behind DNC_TOPOLOGY
// (cpu_topology() itself is probed once per process, so tests exercise the
// parser directly rather than racing the cache).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/env.hpp"
#include "common/precision.hpp"

namespace dnc {
namespace {

// Each test uses its own variable name so ctest's parallel runners (which
// share the process environment within one gtest binary) cannot interfere.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) { setenv(n, value, 1); }
  ~ScopedEnv() { unsetenv(name); }
};

TEST(EnvTest, RawAndIsSet) {
  unsetenv("DNC_TEST_RAW");
  EXPECT_EQ(env::raw("DNC_TEST_RAW"), nullptr);
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW"));
  {
    ScopedEnv e("DNC_TEST_RAW", "hello");
    ASSERT_NE(env::raw("DNC_TEST_RAW"), nullptr);
    EXPECT_STREQ(env::raw("DNC_TEST_RAW"), "hello");
    EXPECT_TRUE(env::is_set("DNC_TEST_RAW"));
  }
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW"));
  ScopedEnv e("DNC_TEST_RAW", "");
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW")) << "empty value counts as unset";
}

TEST(EnvTest, StrDefaultsWhenUnsetOrEmpty) {
  unsetenv("DNC_TEST_STR");
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "dflt");
  ScopedEnv e("DNC_TEST_STR", "value");
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "value");
  setenv("DNC_TEST_STR", "", 1);
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "dflt");
}

TEST(EnvTest, FlagSpellings) {
  unsetenv("DNC_TEST_FLAG");
  EXPECT_FALSE(env::flag("DNC_TEST_FLAG"));
  EXPECT_TRUE(env::flag("DNC_TEST_FLAG", true)) << "default honoured when unset";
  for (const char* off : {"0", "off", "false", "no"}) {
    setenv("DNC_TEST_FLAG", off, 1);
    EXPECT_FALSE(env::flag("DNC_TEST_FLAG", true)) << "value '" << off << "'";
  }
  setenv("DNC_TEST_FLAG", "", 1);
  EXPECT_TRUE(env::flag("DNC_TEST_FLAG", true)) << "empty behaves like unset";
  for (const char* on : {"1", "on", "true", "yes", "anything"}) {
    setenv("DNC_TEST_FLAG", on, 1);
    EXPECT_TRUE(env::flag("DNC_TEST_FLAG")) << "value '" << on << "'";
  }
  unsetenv("DNC_TEST_FLAG");
}

TEST(EnvTest, IntegerParsesAndFallsBack) {
  unsetenv("DNC_TEST_INT");
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 42);
  ScopedEnv e("DNC_TEST_INT", "96");
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 96);
  setenv("DNC_TEST_INT", "-7", 1);
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), -7);
  setenv("DNC_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 42);
}

TEST(EnvTest, NumberParsesAndFallsBack) {
  unsetenv("DNC_TEST_NUM");
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 1.5);
  ScopedEnv e("DNC_TEST_NUM", "2.5e-3");
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 2.5e-3);
  setenv("DNC_TEST_NUM", "garbage", 1);
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 1.5);
}

// Every "DNC_..." string literal in the C++ sources under `dir` names a
// knob some code reads.
std::set<std::string> knob_literals_in(const char* dir) {
  namespace fs = std::filesystem;
  const std::regex literal("\"(DNC_[A-Z0-9_]+)");
  std::set<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(fs::path(DNC_SOURCE_DIR) / dir)) {
    const fs::path& path = entry.path();
    if (!entry.is_regular_file()) continue;
    if (path.extension() != ".cpp" && path.extension() != ".hpp") continue;
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end; it != end; ++it)
      names.insert((*it)[1].str());
  }
  return names;
}

/// One row of README's "Environment knob reference" table: the knob and
/// the value spellings after its "=" ("f64\|f32"), if any.
struct KnobRow {
  std::string name;
  std::string values;
};

std::vector<KnobRow> readme_knob_rows() {
  std::ifstream in(std::string(DNC_SOURCE_DIR) + "/README.md");
  const std::regex row("^\\| `(DNC_[A-Z0-9_]+)(=([^`]*))?` \\|");
  std::vector<KnobRow> rows;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("#", 0) == 0) in_section = line == "### Environment knob reference";
    std::smatch m;
    if (in_section && std::regex_search(line, m, row)) rows.push_back({m[1].str(), m[3].str()});
  }
  return rows;
}

// README's knob table is the one reference of the DNC_* knobs: it must list
// every knob read under src/, once, and nothing that src/ or bench/ does
// not read.
TEST(EnvTest, KnobReferenceIsSentinelTerminatedAndComplete) {
  const std::vector<KnobRow> rows = readme_knob_rows();
  ASSERT_FALSE(rows.empty()) << "no knob table in " << DNC_SOURCE_DIR << "/README.md";
  std::set<std::string> listed;
  for (const KnobRow& r : rows)
    EXPECT_TRUE(listed.insert(r.name).second) << "listed twice: " << r.name;
  const std::set<std::string> read = knob_literals_in("src");
  ASSERT_FALSE(read.empty()) << "no DNC_ literals found under " << DNC_SOURCE_DIR;
  std::set<std::string> read_anywhere = knob_literals_in("bench");
  read_anywhere.insert(read.begin(), read.end());
  for (const std::string& name : read)
    EXPECT_TRUE(listed.count(name)) << name << " is read under src/ but has no README row";
  for (const std::string& name : listed)
    EXPECT_TRUE(read_anywhere.count(name))
        << name << " has a README row but is read nowhere under src/ or bench/";
}

// The DNC_PREC row must advertise only spellings parse_precision accepts:
// an unknown spelling silently solves in fp64.
TEST(EnvTest, PrecKnobValuesParseToThePrecisionTheyName) {
  std::string values;
  for (const KnobRow& r : readme_knob_rows())
    if (r.name == "DNC_PREC") values = r.values;
  ASSERT_FALSE(values.empty()) << "no DNC_PREC row with values";
  const std::string sep = "\\|";
  int n = 0;
  for (std::size_t pos = 0;; ++n) {
    const std::size_t next = values.find(sep, pos);
    const std::string v = values.substr(pos, next - pos);
    EXPECT_STREQ(precision_name(parse_precision(v.c_str())), v.c_str()) << "listed value " << v;
    if (next == std::string::npos) break;
    pos = next + sep.size();
  }
  EXPECT_EQ(n + 1, 2);
}

TEST(TopologySpecTest, ParsesSocketsByL3ByCpus) {
  CpuTopology t;
  ASSERT_TRUE(parse_topology_spec("2x2x4", t));
  EXPECT_EQ(t.cpus, 16);
  EXPECT_EQ(t.sockets, 2);
  EXPECT_EQ(t.l3_domains, 4);
  EXPECT_TRUE(t.detected);
  EXPECT_EQ(t.source, "override");
  ASSERT_EQ(t.socket_of.size(), 16u);
  ASSERT_EQ(t.l3_of.size(), 16u);
  // cpus 0-7 on socket 0 (L3 domains 0,1), cpus 8-15 on socket 1 (2,3).
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(t.socket_of[static_cast<std::size_t>(c)], c / 8) << "cpu " << c;
    EXPECT_EQ(t.l3_of[static_cast<std::size_t>(c)], c / 4) << "cpu " << c;
  }
}

TEST(TopologySpecTest, FlatSpecCollapsesHierarchy) {
  CpuTopology t;
  ASSERT_TRUE(parse_topology_spec("flat", t));
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.l3_domains, 1);
  EXPECT_GE(t.cpus, 1);
  for (int s : t.socket_of) EXPECT_EQ(s, 0);
  for (int l : t.l3_of) EXPECT_EQ(l, 0);
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "2x2", "2x2x", "x2x2", "0x1x1", "1x0x1", "1x1x0", "2x2x4x8", "axbxc",
        "2x2x4 ", "-1x1x1",
        // The cpu count is bounded (kMaxTopologyCpus): an overflowing or
        // huge product must not size the per-cpu tables.
        "65536x65536x1", "100000x100000x3", "99999999999x1x1", "2x2x16385"}) {
    CpuTopology t;
    t.cpus = -99;  // canary: a rejecting parse must leave `out` untouched
    EXPECT_FALSE(parse_topology_spec(bad, t)) << "spec '" << bad << "'";
    EXPECT_EQ(t.cpus, -99) << "spec '" << bad << "' modified out";
  }
  CpuTopology t;
  EXPECT_FALSE(parse_topology_spec(nullptr, t));
  // The cap itself is accepted.
  ASSERT_TRUE(parse_topology_spec("2x4x8192", t));
  EXPECT_EQ(t.cpus, kMaxTopologyCpus);
  EXPECT_EQ(t.l3_of.size(), static_cast<std::size_t>(kMaxTopologyCpus));
}

}  // namespace
}  // namespace dnc
