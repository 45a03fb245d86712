// Solve-history archive: an append-only JSONL log of solve headlines.
//
// The flight recorder answers "what happened in THIS process"; the history
// archive answers "how has this solve behaved across commits and days".
// Every telemetry-observed solve appends one compact JSON line -- keyed by
// (git commit, timestamp, driver, n, family, precision, workers) and
// carrying the headline numbers a trend view needs (wall seconds, makespan,
// idle, deflated fraction, GEMM GF/s, residual) -- to the file named by
// DNC_HISTORY. The file survives processes and machines (one ::write per
// line keeps concurrent appenders line-atomic), so `dnc diff --history`
// can plot a cell across a whole bench campaign or bisect a regression to
// the commit that introduced it.
//
// Knobs (read lazily by an env::Gate; refresh_from_env() for tests):
//   DNC_HISTORY            path of the archive; unset or an off spelling =
//                          off, 1/on/true/yes = "dnc_history.jsonl"
//   DNC_HISTORY_MAX_BYTES  rotation cap (default 16 MiB): when the file is
//                          at/over the cap before an append, it is renamed
//                          to <path>.1 (replacing any previous .1) and a
//                          fresh file is started -- bounded disk, and the
//                          previous generation stays inspectable.
//
// The solve ring. Every solve the flight recorder (obs/flight) observes
// also enters one in-process ring of the last kRingReports such solves:
// {seq, timestamp, reason, full SolveReport}. It is the only solve ring of
// the process; the flight dump and the crash dump read it.
#pragma once

#include <string>
#include <vector>

#include "obs/report.hpp"

namespace dnc::obs::history {

/// One archived solve: the identity key plus headline numbers. This is the
/// whole line -- history is a trend substrate, not a report store; the full
/// SolveReport lives in DNC_REPORT artifacts / bench report side-writes.
struct Record {
  // --- identity key ---
  std::string git_commit;
  std::string timestamp;  ///< ISO-8601 UTC
  std::string hostname;
  std::string driver;
  std::string family;  ///< matrix family / generator hint ("" = unknown)
  std::string precision;
  long n = 0;
  int workers = 0;
  // --- headline numbers ---
  double seconds = 0.0;     ///< wall-clock solve time
  double makespan = 0.0;    ///< scheduler makespan (0 = no scheduler data)
  double total_idle = 0.0;  ///< summed worker idle (s)
  double deflated_fraction = 0.0;  ///< 0 when the solve carried no merges
  double gemm_gflops = 0.0;        ///< 0 = unknown
  double max_rel_residual = 0.0;   ///< 0 = health probe off

  std::string to_json_line() const;  ///< one compact dnc-history-v1 line
};

/// One relaxed load + branch once initialised (metrics::enabled() idiom).
bool enabled() noexcept;
void refresh_from_env() noexcept;

/// The archive path ("" when off) and rotation cap currently in effect.
std::string archive_path();
long max_bytes() noexcept;

/// Matrix-family hint for the next record_from_report() on this thread.
/// Solve epilogues know nothing about how the matrix was generated; the
/// harness that does (bench_solver's family loop, `dnc trace --type`) sets
/// the hint around the solve. Pass nullptr/"" to clear.
void set_family_hint(const char* family);

/// Distils a SolveReport into a Record (family from the thread-local hint).
Record record_from_report(const SolveReport& report);

/// Appends one record to the archive file, rotating first when the file is
/// at/over max_bytes(). Thread-safe; concurrent processes interleave whole
/// lines (single O_APPEND write). Returns false when the archive is off or
/// the write failed.
bool append(const Record& rec);

inline constexpr std::size_t kRingReports = 8;  ///< solves in the ring

/// The telemetry entry point: appends the solve's record to the archive
/// file when enabled(). The flight recorder passes its verdict (`reason`,
/// "" = healthy) and `keep_report`, which also pushes the solve onto the
/// ring; with `flight_jsonl`, flight_jsonl() of the ring as it stands after
/// this push is rendered into it under the same lock.
void note(const SolveReport& report, const std::string& reason = "",
          bool keep_report = false, std::string* flight_jsonl = nullptr);

/// The ring, one compact {"seq", "timestamp", "reason", "report"} line per
/// solve, newest last: the flight dump and the crash dump. With
/// `best_effort` (crash handler), an already-held ring lock yields ""
/// instead of deadlocking the dying process.
std::string flight_jsonl(bool best_effort = false);

/// Wildcarded record filter: empty strings / zero numbers match anything.
/// `family` and `n` are what bench cells key on; commit narrows to one
/// build, workers to one machine shape.
struct Key {
  std::string driver, family, precision, commit;
  long n = 0;
  int workers = 0;

  bool matches(const Record& r) const;
};

/// Parses "n=1000,family=4,driver=taskflow,prec=f64,workers=8,commit=abc"
/// (any subset, any order; unknown fields are an error). Returns false and
/// sets `err` on malformed input.
bool parse_key(const std::string& spec, Key& out, std::string* err = nullptr);

/// Reads an archive file (JSONL; unparseable lines are skipped and counted
/// in `skipped` when given). A missing file yields an empty vector and
/// false.
bool load_file(const std::string& path, std::vector<Record>& out,
               std::string* err = nullptr, long* skipped = nullptr);

/// All records matching `key`, in file (= chronological append) order.
std::vector<Record> series(const std::vector<Record>& records, const Key& key);

/// The newest record per git commit among those matching `key`, in first-
/// seen commit order -- the across-commits trend view.
std::vector<Record> latest_per_commit(const std::vector<Record>& records,
                                      const Key& key);

/// Table + ascii bars + min/median/max summary of a series (seconds
/// column). `title` heads the block.
std::string render_series(const std::vector<Record>& series,
                          const std::string& title);

/// Solves (full reports) in the ring.
std::size_t ring_reports();

/// Empties the ring and re-reads the env. Test hook.
void reset_for_tests();

}  // namespace dnc::obs::history
