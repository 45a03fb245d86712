// Concurrency stress of the two per-solve consumers (runtime label -> runs
// under TSan in CI), as concurrent solves drive them via
// record_solve_telemetry: many threads appending full reports to the
// history archive must produce a file of whole, parseable lines with
// nothing lost, and many threads observing solves must leave the flight
// recorder's ring consistent.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/report.hpp"

namespace dnc {
namespace {

namespace hist = obs::history;

constexpr int kThreads = 8;
constexpr int kPerThread = 50;

obs::SolveReport stress_report(int t, int i) {
  obs::SolveReport rep;
  rep.driver = "taskflow";
  rep.family = "fam" + std::to_string(t);
  rep.n = 1000 + t;
  rep.threads = 4;
  rep.seconds = 0.001 * (i + 1);
  rep.git_commit = "stress";
  obs::MergeRecord m;
  m.m = 100;
  m.k = 40;
  rep.merges.assign(4, m);
  rep.has_scheduler = true;
  rep.scheduler.workers = 4;
  rep.has_health = true;
  rep.health.sampled_columns = 8;
  return rep;
}

template <typename Body>
void run_threads(Body body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &body] {
      for (int i = 0; i < kPerThread; ++i) body(t, i);
    });
  for (std::thread& th : threads) th.join();
}

TEST(HistoryStress, ConcurrentAppendsKeepLinesWholeAndComplete) {
  const std::string path = ::testing::TempDir() + "dnc_history_stress_" +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const char* saved = std::getenv("DNC_HISTORY");
  const std::string saved_v = saved ? saved : "";
  ::setenv("DNC_HISTORY", path.c_str(), 1);
  hist::refresh_from_env();

  run_threads([](int t, int i) { EXPECT_TRUE(hist::append(stress_report(t, i))); });

  std::vector<obs::SolveReport> reps;
  std::string err;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path, reps, &err, &skipped)) << err;
  EXPECT_EQ(skipped, 0) << "torn lines in the archive";
  EXPECT_EQ(reps.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Per-thread counts survived intact (no line lost or cross-written).
  for (int t = 0; t < kThreads; ++t) {
    long count = 0;
    for (const obs::SolveReport& r : reps)
      if (r.n == 1000 + t && r.family == "fam" + std::to_string(t)) ++count;
    EXPECT_EQ(count, kPerThread) << "thread " << t;
  }

  std::remove(path.c_str());
  if (saved)
    ::setenv("DNC_HISTORY", saved_v.c_str(), 1);
  else
    ::unsetenv("DNC_HISTORY");
  hist::refresh_from_env();
}

TEST(FlightStress, ConcurrentObservesKeepTheRingConsistent) {
  const char* saved = std::getenv("DNC_FLIGHT");
  const std::string saved_v = saved ? saved : "";
  // On, with no trigger a healthy report can trip: observe() only feeds
  // the ring and never writes a dump.
  ::setenv("DNC_FLIGHT", "on", 1);
  obs::flight::reset_for_tests();

  // One ring_jsonl() line per solve in the ring.
  const auto ring_lines = [] {
    const std::string ring = obs::flight::ring_jsonl();
    return static_cast<std::size_t>(std::count(ring.begin(), ring.end(), '\n'));
  };
  run_threads([&](int t, int i) {
    EXPECT_EQ(obs::flight::observe(stress_report(t, i), nullptr), "");
    if (i % 10 == 0) {
      EXPECT_LE(ring_lines(), obs::flight::kRingReports);
    }
  });

  EXPECT_EQ(ring_lines(), obs::flight::kRingReports);
  // No dump: the default prefix's first dump file was never written.
  const std::string first_dump = "dnc_flight." + std::to_string(::getpid()) + ".1.jsonl";
  EXPECT_FALSE(std::ifstream(first_dump).good());
  // The ring holds the newest solves, in sequence order, each line whole.
  std::vector<std::string> lines;
  const std::string ring = obs::flight::ring_jsonl();
  for (std::size_t at = 0, nl; (nl = ring.find('\n', at)) != std::string::npos; at = nl + 1)
    lines.push_back(ring.substr(at, nl - at));
  ASSERT_EQ(lines.size(), obs::flight::kRingReports);
  const unsigned long total = kThreads * kPerThread;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string head =
        "{\"seq\": " + std::to_string(total - obs::flight::kRingReports + 1 + i) + ",";
    EXPECT_EQ(lines[i].rfind(head, 0), 0u) << lines[i].substr(0, 40);
  }

  if (saved)
    ::setenv("DNC_FLIGHT", saved_v.c_str(), 1);
  else
    ::unsetenv("DNC_FLIGHT");
  obs::flight::reset_for_tests();
}

}  // namespace
}  // namespace dnc
