// Solver-benchmark artifact comparison: the perf-regression gate.
//
// bench/bench_solver.cpp writes BENCH_solver.json (drivers x matrix
// families x sizes, >= 5 repetitions each, median/IQR). This module loads
// two such artifacts, matches entries by (driver, family, n) and classifies
// each pair against a noise threshold on the chosen statistic. The CLI
// (`dnc compare`) exits nonzero when any regression is found, which
// is what the ctest tier-2 gate and CI hang off.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace dnc::obs {

struct BenchEntry {
  std::string driver;
  std::string family;
  std::string precision = "f64";  ///< working precision ("f64" when absent)
  long n = 0;
  int reps = 0;
  double median = 0.0;  ///< seconds
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;

  /// "driver|family|n" (plus "|<precision>" for non-f64 rows, so artifacts
  /// written before the precision dimension still match their f64 rows).
  std::string key() const;
};

struct BenchArtifact {
  std::string schema;
  std::vector<std::pair<std::string, std::string>> metadata;
  std::vector<BenchEntry> entries;
};

/// Loads a BENCH_solver.json. Returns false (with `err`) on unreadable or
/// structurally unusable input, including two entries with the same key();
/// unknown extra members are ignored so newer writers stay readable.
bool load_bench_artifact(const std::string& path, BenchArtifact& out,
                         std::string* err = nullptr);
/// Same, from an in-memory JSON string (tests).
bool parse_bench_artifact(const std::string& json_text, BenchArtifact& out,
                          std::string* err = nullptr);

/// Which per-entry statistic the gate compares. Median is the default;
/// `min` is less noise-sensitive on very short runs.
enum class BenchStat { kMedian, kMin };

enum class Verdict { kRegression, kImprovement, kWithinNoise };

struct CompareRow {
  std::string key;
  // Entry identity split out of the key, so the attribution path (diffing
  // the per-entry SolveReports a DNC_BENCH_REPORTS run side-wrote) can name
  // the report files without re-parsing the key.
  std::string driver, family, precision;
  long n = 0;
  double base_seconds = 0.0;
  double cur_seconds = 0.0;
  double ratio = 1.0;  ///< cur / base; > 1 means slower
  Verdict verdict = Verdict::kWithinNoise;
};

struct CompareResult {
  std::vector<CompareRow> rows;  ///< sorted worst ratio first
  int regressions = 0;
  int improvements = 0;
  int within_noise = 0;
  /// Keys present in only one artifact -- reported, never fatal, so adding
  /// a family/size doesn't break comparison against an older baseline.
  std::vector<std::string> only_in_base;
  std::vector<std::string> only_in_current;

  bool gate_passed() const { return regressions == 0; }
  /// Human-readable table + verdict line ("3 regressions", "within noise").
  std::string render(double threshold) const;
};

/// Pairs up entries and classifies each: ratio > 1 + threshold is a
/// regression, ratio < 1 - threshold an improvement, else within noise.
/// Entries whose base statistic is zero (corrupt artifact) are treated as
/// within noise and reported in the render. Entries where both sides are
/// below `min_seconds` are classified as within noise regardless of ratio:
/// sub-millisecond cells flip by 2x from scheduler jitter alone and would
/// make the gate useless.
CompareResult compare_bench_artifacts(const BenchArtifact& base, const BenchArtifact& current,
                                      double threshold, BenchStat stat = BenchStat::kMedian,
                                      double min_seconds = 0.0);

/// Value of a metadata key in the artifact ("" when absent).
std::string bench_metadata(const BenchArtifact& artifact, const std::string& key);

/// Canonical filename of the per-entry SolveReport a DNC_BENCH_REPORTS run
/// side-writes for one bench cell: "report_<driver>_<family>_<prec>_n<n>.json".
/// Shared by the writer (bench_solver) and the reader (`dnc compare`) so
/// the two can never drift apart.
std::string bench_report_filename(const std::string& driver, const std::string& family,
                                  const std::string& precision, long n);

}  // namespace dnc::obs
