// Solve-history archive: an append-only JSONL log of SolveReports.
//
// The flight recorder answers "what happened in THIS process"; the history
// archive answers "how has this solve behaved across commits and days".
// Every telemetry-observed solve appends its SolveReport -- to_json(),
// compacted to one line, the record a DNC_TRACE file embeds too -- to the
// file named by DNC_HISTORY. The
// report's identity fields (git commit, timestamp, driver, n, family,
// precision, workers) key the line; its headline numbers (wall seconds,
// deflated fraction, GEMM GF/s, ...) are what a trend view plots. The file
// survives processes and machines (one ::write per line keeps concurrent
// appenders line-atomic), so `dnc diff --history` can plot a cell across a
// whole bench campaign or bisect a regression to the commit that
// introduced it, and any single line is a report `dnc diff` reads. It is
// also the process's only cross-solve record: `dnc metrics` aggregates an
// archive into one row per {driver, precision, size class} (metrics_rows)
// and renders it as a table or as Prometheus text.
//
// Knob (read lazily by an env::Gate; refresh_from_env() for tests):
//   DNC_HISTORY  path of the archive; unset or an off spelling = off,
//                1/on/true/yes = "dnc_history.jsonl"
// When the file is at/over kMaxBytes before an append, it is renamed to
// <path>.1 (replacing any previous .1) and a fresh file is started --
// bounded disk, and the previous generation stays inspectable.
#pragma once

#include <string>
#include <vector>

#include "obs/report.hpp"

namespace dnc::obs::history {

inline constexpr long kMaxBytes = 16L * 1024 * 1024;  ///< rotation cap

/// One relaxed load + branch once initialised (an env::Gate).
bool enabled() noexcept;
void refresh_from_env() noexcept;

/// The archive path ("" when off).
std::string archive_path();

/// Appends the report as one compact line, rotating first when the file is
/// at/over kMaxBytes. Thread-safe; concurrent processes interleave whole
/// lines (single O_APPEND write). Returns false when the archive is off or
/// the write failed.
bool append(const SolveReport& report);

/// Wildcarded report filter: empty strings / zero numbers match anything.
/// `family` and `n` are what bench cells key on; commit narrows to one
/// build, workers to one machine shape.
struct Key {
  std::string driver, family, precision, commit;
  long n = 0;
  int workers = 0;

  bool matches(const SolveReport& r) const;
};

/// Parses "n=1000,family=4,driver=taskflow,prec=f64,workers=8,commit=abc"
/// (any subset, any order; unknown fields are an error). Returns false and
/// sets `err` on malformed input.
bool parse_key(const std::string& spec, Key& out, std::string* err = nullptr);

/// Reads an archive file, one report per line. Lines that are not a
/// report -- unparseable, or without the `counters` object every report
/// carries (a pre-report `dnc-history-v1` record, say) -- are skipped and
/// counted in `skipped` when given. A missing file yields an empty vector
/// and false.
bool load_file(const std::string& path, std::vector<SolveReport>& out,
               std::string* err = nullptr, long* skipped = nullptr);

/// All reports matching `key`, in file (= chronological append) order.
std::vector<SolveReport> series(const std::vector<SolveReport>& reports, const Key& key);

/// The newest report per git commit among those matching `key`, in first-
/// seen commit order -- the across-commits trend view.
std::vector<SolveReport> latest_per_commit(const std::vector<SolveReport>& reports,
                                           const Key& key);

/// Table + ascii bars + min/median/max summary of a series (seconds
/// column). `title` heads the block.
std::string render_series(const std::vector<SolveReport>& series, const std::string& title);

/// One row of the archive view: the reports of one {driver, precision,
/// size class} cell. The size classes are xs < 256 <= s < 1024 <= m <
/// 4096 <= l < 16384 <= xl. Counts are doubles, as in the Prometheus text.
struct MetricsRow {
  std::string driver, precision, size_class;
  double solves = 0.0;
  double seconds_sum = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  ///< exact quantiles of `seconds`
  double deflated_fraction = 0.0;          ///< mean over the solves
  double gemm_gflops = 0.0;                ///< median over the solves that ran GEMM
  double max_rel_residual = 0.0;           ///< worst health probe
  double max_ortho_error = 0.0;
  double tasks = 0.0, steals = 0.0;  ///< summed over the solves' schedulers
  double idle_seconds = 0.0;         ///< summed worker idle
};

/// The reports matching `key`, grouped into rows in first-seen order.
std::vector<MetricsRow> metrics_rows(const std::vector<SolveReport>& reports, const Key& key);

/// The rows as a table headed by `title`. With `b`, the --diff view: each
/// row of `a` and the same cell of `b` on adjacent lines, then the cells
/// only `b` has.
std::string render_metrics(const std::string& title, const std::vector<MetricsRow>& a,
                           const std::vector<MetricsRow>* b = nullptr);

/// The rows as Prometheus text: counters, gauges and a summary of
/// `dnc_solve_seconds`, labelled by driver, precision and size class.
std::string prometheus_text(const std::vector<MetricsRow>& rows);

}  // namespace dnc::obs::history
