// History-archive concurrency stress (runtime label -> runs under TSan in
// CI): many threads appending records concurrently -- as concurrent
// flight-observed solves do via record_solve_telemetry -- must produce a
// file of whole, parseable lines with nothing lost, and the in-process
// ring must stay consistent under the same load.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/history.hpp"
#include "obs/report.hpp"

namespace dnc {
namespace {

namespace hist = obs::history;

TEST(HistoryStress, ConcurrentAppendsKeepLinesWholeAndComplete) {
  const std::string path = ::testing::TempDir() + "dnc_history_stress_" +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  const char* saved = std::getenv("DNC_HISTORY");
  const std::string saved_v = saved ? saved : "";
  ::setenv("DNC_HISTORY", path.c_str(), 1);
  hist::refresh_from_env();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      hist::set_family_hint(("fam" + std::to_string(t)).c_str());
      for (int i = 0; i < kPerThread; ++i) {
        obs::SolveReport rep;
        rep.driver = "taskflow";
        rep.n = 1000 + t;
        rep.threads = 4;
        rep.seconds = 0.001 * (i + 1);
        rep.git_commit = "stress";
        hist::note(rep, "", /*keep_report=*/true);  // ring + file, the flight path
      }
      hist::set_family_hint(nullptr);
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<hist::Record> recs;
  std::string err;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path, recs, &err, &skipped)) << err;
  EXPECT_EQ(skipped, 0) << "torn lines in the archive";
  EXPECT_EQ(recs.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Per-thread counts survived intact (no line lost or cross-written).
  for (int t = 0; t < kThreads; ++t) {
    long count = 0;
    for (const hist::Record& r : recs)
      if (r.n == 1000 + t) ++count;
    EXPECT_EQ(count, kPerThread) << "thread " << t;
  }
  EXPECT_EQ(hist::ring_reports(), hist::kRingReports);

  std::remove(path.c_str());
  if (saved)
    ::setenv("DNC_HISTORY", saved_v.c_str(), 1);
  else
    ::unsetenv("DNC_HISTORY");
  hist::reset_for_tests();
}

}  // namespace
}  // namespace dnc
