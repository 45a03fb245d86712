// Differential observability: why is run B slower than run A?
//
// Every prior observability layer measures ONE solve (trace, SolveReport,
// metrics, roofline). When the bench gate trips or a tuning-table entry
// goes stale, the question is differential: which component of the second
// run ate the extra time. This module aligns two solves -- each given as a
// SolveReport, an rt::Trace, or both -- and decomposes the makespan delta
// into additively attributed components, the trace-based performance
// analysis loop StarNEig-style task libraries close with (arXiv 1905.04975)
// and the MRRR-for-supercomputers study uses to split eigensolver
// regressions into kernels vs. scheduling vs. numerics (arXiv 1401.4950).
//
// The decomposition rests on the busy/idle identity of a P-worker schedule,
//   makespan ~= (sum_k busy[k] + idle) / P,
// so with per-worker normalisation the delta splits exactly into per-kind
// busy-time contributions plus a scheduler-idle contribution plus a small
// unattributed residual (clock skew, outside-task time). On top of the
// additive split the diff reports *explanatory* shifts that say why a kind
// got slower: per-kind IPC / LLC-miss-rate deltas (perf hwc data), the
// per-merge deflation-ratio change (less deflation = bigger secular systems
// = more GEMM work), the GEMM GF/s change, and a critical-path diff (which kinds entered or left the chain).
//
// Deltas below a noise floor (relative + absolute) yield significant=false
// and suppress attribution entirely -- diffing a solve against itself must
// report "within noise", never invent a culprit.
#pragma once

#include <string>
#include <vector>

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::json {
class Value;
}

namespace dnc::obs {

/// One side of a diff: a report, a trace, or both (either pointer may be
/// null, not both). `label` names the side in renderings ("a.json",
/// "baseline", ...); empty = derived from the report/trace provenance.
struct DiffSide {
  const SolveReport* report = nullptr;
  const rt::Trace* trace = nullptr;
  std::string label;
};

struct DiffOptions {
  /// Noise floor: |delta| must exceed max(noise_abs, noise_rel * makespan)
  /// before any attribution is emitted.
  double noise_rel = 0.02;
  double noise_abs = 1e-4;  ///< seconds
  /// A kind is "on" the critical path when it holds at least this share of
  /// the chain's length (the entered/left diff uses it on both sides).
  double cp_share = 0.05;
};

/// Per-task-kind comparison row. Busy seconds use self durations (nested
/// child slices excluded), so the per-kind sum equals the trace's
/// total_busy. hwc ratios are only meaningful under the perf backend
/// (has_hwc); rusage-backend counters do not form IPC.
struct KindDelta {
  std::string kind;
  double busy_a = 0.0, busy_b = 0.0;
  long tasks_a = 0, tasks_b = 0;
  bool has_hwc = false;
  double ipc_a = 0.0, ipc_b = 0.0;            ///< instructions / cycles
  double miss_rate_a = 0.0, miss_rate_b = 0.0;  ///< LLC misses / references
  double delta() const { return busy_b - busy_a; }
};

/// One additive component of the makespan delta. `component` is stable and
/// machine-matchable: "busy:<kind>", "busy" (no per-kind data),
/// "sched_idle", or "unattributed".
struct DiffComponent {
  std::string component;
  double seconds = 0.0;  ///< contribution to (makespan_b - makespan_a)
  double share = 0.0;    ///< seconds / delta (0 when not significant)
};

/// Identity + headline numbers of one side, resolved from whichever inputs
/// were present (a trace-only side has no identity or GEMM rate).
struct DiffSideSummary {
  std::string label;
  std::string driver, precision, git_commit, timestamp;
  long n = 0;
  int workers = 1;
  double makespan = 0.0;   ///< trace makespan, else report wall seconds
  double busy = 0.0;       ///< summed per-kind busy (0 = unknown)
  double idle = 0.0;       ///< summed worker idle (0 = unknown/none)
  bool has_sched = false;
  bool has_deflation = false;
  double deflated_fraction = 0.0;
  double gemm_gflops = 0.0;  ///< 0 = unknown
  bool has_cp = false;
  double cp_length = 0.0;
};

struct SolveDiff {
  DiffSideSummary a, b;
  double delta = 0.0;        ///< b.makespan - a.makespan
  double noise_floor = 0.0;  ///< threshold |delta| had to clear
  bool significant = false;  ///< false = within noise, no attribution
  bool comparable = true;    ///< driver/n/precision agree
  std::vector<std::string> warnings;

  /// Additive decomposition of `delta`, sorted by |seconds| descending.
  /// Empty when the inputs carry no busy/idle data at all.
  std::vector<DiffComponent> components;
  /// Share of `delta` carried by the summed per-kind busy contributions --
  /// "the majority of the delta is task busy time" reads off this.
  double busy_share = 0.0;
  /// Largest-|contribution| component name ("" when not significant).
  std::string top_component;

  /// Per-kind rows (kinds present on either side), sorted by |delta| desc.
  std::vector<KindDelta> kinds;

  /// Kinds that entered / left the critical path (share >= cp_share on one
  /// side only). Requires traces on both sides.
  std::vector<std::string> cp_entered, cp_left;

  /// Explanatory (non-additive) observations: deflation-ratio change, GEMM
  /// GF/s change, IPC collapse of a leading kind.
  std::vector<std::string> notes;

  /// Full human-readable diff: side header, component table, per-kind
  /// table, critical-path diff, notes.
  std::string render() const;
  /// The `dnc compare` one-paragraph attribution: headline delta, top
  /// component with share, leading kind, and the strongest note.
  std::string one_paragraph() const;
  /// dnc-diff-v1 JSON (machine-readable twin of render()).
  std::string to_json() const;
};

/// Aligns the two sides and computes the decomposition. Works with any
/// combination of report/trace per side; the fewer inputs, the fewer
/// sections are populated (never an error -- missing data only shrinks the
/// diff, mismatched identities only add warnings).
SolveDiff diff_solves(const DiffSide& a, const DiffSide& b,
                      const DiffOptions& opt = DiffOptions{});

/// Parses a SolveReport back from its to_json() text (a history archive
/// line, a trace's "dnc_report" record). Tolerant of missing members --
/// absent blocks leave defaults, unknown members are ignored -- so older
/// artifacts load. Returns false on malformed JSON, when the object carries
/// none of the report's identifying members, or when an integer member lies
/// outside the range of its field (the error names the field).
bool parse_solve_report(const std::string& json_text, SolveReport& out,
                        std::string* err = nullptr);
/// Same, from an already-parsed DOM node.
bool parse_solve_report_value(const json::Value& v, SolveReport& out,
                              std::string* err = nullptr);

}  // namespace dnc::obs
