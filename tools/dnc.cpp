// dnc: the analysis command line, one subcommand per job.
//
//   dnc trace [--n 1000 --type 4 | --load trace.json]
//       Where did the time go and what would more cores buy? From one
//       measured solve (run in-process, or a $DNC_TRACE export): the
//       solve's report, per-kernel time split, the critical path (ordered
//       chain + per-kind attribution), the work/span law, what-if replays
//       on P virtual workers (the paper's Fig. 5 scalability shape), the
//       parallelism profile, the roofline and -- in solve mode with
//       --nb-sweep -- the panel-width granularity trade-off. --json dumps
//       the same analysis machine-readably.
//   dnc metrics h.jsonl [--key n=1000] | --prometheus h.jsonl | --diff a b
//       The cross-solve view of a DNC_HISTORY archive: one row per
//       {driver, precision, size class} with the solve count, exact latency
//       quantiles, deflation, GEMM rate, worst health and scheduler
//       totals; as a table, as Prometheus text, or two archives side by
//       side.
//   dnc diff a.json b.json
//       Why is run B slower than run A? Each side is a Perfetto trace (with
//       the report it carries) or a SolveReport JSON such as one history
//       archive line (auto-detected).
//   dnc diff --history h.jsonl --key n=1000,family=4
//       Trend view of one DNC_HISTORY archive cell: the chronological
//       series plus the latest record per commit.
//   dnc compare baseline.json current.json [--reports a.jsonl b.jsonl]
//       The perf-regression gate over two BENCH_solver.json artifacts.
//       Entries match by (driver, family, precision, n). --reports names
//       the two bench runs' DNC_HISTORY archives; each regressed row whose
//       cell has a report in both gets a one-paragraph diff attribution
//       from the last such report of each.
//
// Exit codes, every subcommand: 0 = done, 1 = `compare` found a regression,
// 2 = usage error, unreadable input, or an error raised by the library.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/text.hpp"
#include "common/version.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "obs/analysis.hpp"
#include "obs/benchcmp.hpp"
#include "obs/diff.hpp"
#include "obs/history.hpp"
#include "obs/trace_io.hpp"
#include "runtime/trace.hpp"

namespace {

using namespace dnc;

void usage(std::FILE* out) {
  std::fputs(
      "usage: dnc trace [--load trace.json | --driver taskflow|lapack_model|scalapack_model|mrrr]\n"
      "                 [--type 1..15] [--n N] [--minpart M] [--nb NB]\n"
      "                 [--workers 1,2,4,8,16,32] [--nb-sweep] [--json PATH|-]\n"
      "                 [--profile-width W] [--roofline] [--peak-gflops G]\n"
      "       dnc metrics <archive.jsonl> [--key k1=v1,k2=v2] [--prometheus]\n"
      "       dnc metrics --diff <a.jsonl> <b.jsonl> [--key k1=v1,k2=v2]\n"
      "       dnc diff <a.json> <b.json> [--json PATH|-] [--noise REL]\n"
      "       dnc diff --history <archive.jsonl> --key k1=v1,k2=v2\n"
      "       dnc compare <baseline.json> <current.json> [--threshold T] [--stat median|min]\n"
      "                   [--min-time S] [--reports BASE.jsonl CUR.jsonl] [--quiet]\n"
      "       dnc --version\n"
      "  diff a/b: Perfetto trace or SolveReport JSON (auto-detected)\n"
      "  metrics/diff key fields: driver, family, precision, commit, n, workers\n"
      "  compare T is a fraction: 0.10 flags entries slower than 1.10x baseline (default)\n"
      "  compare S in seconds: entries faster than S on both sides never gate (default 0)\n"
      "  compare --reports: the two runs' DNC_HISTORY archives, for regression\n"
      "   attribution\n"
      "exit codes: 0 done, 1 compare found a regression, 2 usage, input or library error\n",
      out);
}

// --- shared plumbing ----------------------------------------------------------

/// A bad command line: main prints the message and the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses all of `v` as a T no smaller than `lo`; anything else is a usage
/// error naming `flag`.
template <class T>
T parse_value(const std::string& flag, const std::string& v, T lo) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc{} || ptr != end || !(x >= lo))
    throw UsageError("invalid " + flag + " '" + v + "'");
  return x;
}

/// One subcommand's arguments. next() yields each flag or operand in turn;
/// the value accessors consume the argument after the current flag.
class Flags {
 public:
  Flags(int argc, char** argv) : args_(argv, argv + argc) {}
  bool more() const { return pos_ < args_.size(); }
  std::string next() { return flag_ = args_[pos_++]; }
  std::string value() {
    if (!more()) throw UsageError(flag_ + " needs a value");
    return args_[pos_++];
  }
  double number(double lo) { return parse_value(flag_, value(), lo); }
  int integer(int lo = INT_MIN) { return parse_value(flag_, value(), lo); }
  /// The current argument as an operand; an unknown flag is a usage error.
  std::string operand() const {
    if (flag_.size() > 1 && flag_[0] == '-') throw UsageError("unknown flag " + flag_);
    return flag_;
  }

 private:
  std::vector<std::string> args_;
  std::size_t pos_ = 0;
  std::string flag_;
};

/// Reads a whole file.
std::string read_input(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Writes `text` to `path`, or to stdout for "-"; a file that cannot be
/// written is an error, never a silent loss.
void write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  if (!write_text_file(path, text)) throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// --- trace ----------------------------------------------------------------------

struct TraceArgs {
  std::string load;  ///< trace file; empty = solve in-process
  std::string driver = "taskflow";
  int type = 4;
  long n = 1000;
  long minpart = 0;  ///< 0 = scaled default
  long nb = 0;
  std::vector<int> workers{1, 2, 4, 8, 16, 32};
  bool nb_sweep = false;
  std::string json_out;
  int profile_width = 100;
  /// Roofline view: per-kind hardware-counter attribution vs the machine
  /// peak. In solve mode this turns DNC_HWC sampling on for the run.
  bool roofline = false;
  double peak_gflops = 0.0;  ///< 0 = derive/assume (see obs::roofline)
};

TraceArgs parse_trace_args(Flags& f) {
  TraceArgs a;
  while (f.more()) {
    const std::string flag = f.next();
    if (flag == "--load") {
      a.load = f.value();
    } else if (flag == "--driver") {
      a.driver = f.value();
    } else if (flag == "--type") {
      a.type = f.integer();
    } else if (flag == "--n") {
      a.n = f.integer();
    } else if (flag == "--minpart") {
      a.minpart = f.integer();
    } else if (flag == "--nb") {
      a.nb = f.integer();
    } else if (flag == "--workers") {
      a.workers.clear();
      std::istringstream list(f.value());
      for (std::string w; std::getline(list, w, ',');)
        a.workers.push_back(parse_value(flag, w, 1));
      if (a.workers.empty()) throw UsageError("--workers needs a value");
    } else if (flag == "--nb-sweep") {
      a.nb_sweep = true;
    } else if (flag == "--json") {
      a.json_out = f.value();
    } else if (flag == "--profile-width") {
      a.profile_width = f.integer();
    } else if (flag == "--roofline") {
      a.roofline = true;
    } else if (flag == "--peak-gflops") {
      a.peak_gflops = f.number(0.0);
    } else {
      throw UsageError("unknown argument " + flag);
    }
  }
  return a;
}

dc::Options solve_options(const TraceArgs& a) {
  dc::Options opt;
  opt.threads = 1;  // measure durations without timesharing noise
  opt.minpart = a.minpart > 0 ? a.minpart : std::max<index_t>(48, a.n / 16);
  opt.nb = a.nb > 0 ? a.nb : std::max<index_t>(48, a.n / 12);
  return opt;
}

/// Runs the requested driver and returns its trace. When `report` is
/// non-null it receives the solve's SolveReport.
void run_solver(const TraceArgs& a, rt::Trace& trace, obs::SolveReport* report = nullptr) {
  matgen::Tridiag t = matgen::table3_matrix(a.type, a.n);
  // History lines key on the matrix family; only this harness knows it.
  const std::string family = std::to_string(a.type);
  Matrix v;
  const dc::Options opt = solve_options(a);
  if (a.driver == "mrrr") {
    mrrr::Options mopt;
    mopt.threads = 1;
    mrrr::Stats st;
    st.report.family = family;
    std::vector<double> lam;
    mrrr_solve(a.n, t.d.data(), t.e.data(), lam, v, mopt, &st);
    trace = st.trace;
    if (report) *report = st.report;
    return;
  }
  dc::SolveStats st;
  st.report.family = family;
  std::vector<double> d = t.d, e = t.e;
  if (a.driver == "taskflow")
    dc::stedc_taskflow(a.n, d.data(), e.data(), v, opt, &st);
  else if (a.driver == "lapack_model")
    dc::stedc_lapack_model(a.n, d.data(), e.data(), v, opt, &st);
  else if (a.driver == "scalapack_model")
    dc::stedc_scalapack_model(a.n, d.data(), e.data(), v, opt, &st);
  else
    throw std::runtime_error("unknown driver '" + a.driver +
                             "' (sequential has no trace; pick a runtime-backed one)");
  trace = st.trace;
  if (report) *report = st.report;
}

int run_trace(Flags& f) {
  const TraceArgs a = parse_trace_args(f);
  rt::Trace trace;
  obs::SolveReport report;
  if (!a.load.empty()) {
    std::string err;
    if (!obs::load_perfetto_trace(read_input(a.load), trace, &err, &report))
      throw std::runtime_error("failed to load " + a.load + ": " + err);
    std::printf("==== dnc trace: %s ====\n", a.load.c_str());
  } else {
    // Solve mode with --roofline: turn per-task counter sampling on for
    // the in-process run (without clobbering an explicit DNC_HWC choice
    // such as DNC_HWC=rusage).
    if (a.roofline) ::setenv("DNC_HWC", "1", /*overwrite=*/0);
    run_solver(a, trace, &report);
    std::printf("==== dnc trace: %s solve, type %d, n=%ld, prec %s ====\n", a.driver.c_str(),
                a.type, a.n, report.precision.empty() ? "f64" : report.precision.c_str());
  }
  // A loaded trace without a dnc_report record (another tool's, or an
  // export that predates the record) has an empty driver.
  const bool has_report = !report.driver.empty();
  std::printf("[build] %s (%s)\n\n", version::kGitCommit, version::kBuildType);
  if (has_report)
    std::printf("%s\n", report.summary_text().c_str());
  else
    std::printf("(no SolveReport on this trace)\n\n");

  // --- scheduler counters of the measured run ---
  if (!trace.sched_counters.empty()) {
    std::printf("-- scheduler --\npeak ready-queue depth %d\n", trace.queue_depth_peak);
    const obs::SchedulerMetrics m = obs::scheduler_metrics(trace);
    if (m.steal_attempts > 0 || m.steals > 0)
      std::printf("steals: %ld ok / %ld attempts / %ld dry scans, local pops: %ld\n",
                  m.steals, m.steal_attempts, m.failed_steals, m.local_pops);
    std::printf("\n");
  }

  // --- per-kernel split of the measured run ---
  std::printf("-- kernel time split --\n%s\n", trace.kernel_summary().c_str());

  // --- roofline: measured per-kind counters vs the machine peak ---
  if (a.roofline) {
    if (trace.hwc_backend.empty()) {
      std::printf("-- roofline --\n"
                  "(no hardware-counter data on this trace; re-run the solve with\n"
                  " DNC_HWC=1 so the slices carry counter deltas)\n\n");
    } else {
      const obs::Roofline roof =
          obs::roofline(trace, has_report ? &report : nullptr, a.peak_gflops);
      std::printf("-- roofline --\n%s\n", obs::render_roofline(roof).c_str());
    }
  }

  // --- critical path ---
  const obs::CriticalPath cp = obs::critical_path(trace);
  std::printf("-- critical path --\n%s\n", cp.render(trace).c_str());

  // --- span law + what-if sweep ---
  const obs::SpanLaw law = obs::span_law(trace);
  std::printf("-- work/span law --\nT1 = %.6f s, Tinf = %.6f s, parallelism = %.2f\n\n",
              law.t1, law.t_inf, law.parallelism);
  std::printf("-- what-if: replay on P virtual workers (bandwidth-aware FIFO replay) --\n");
  std::printf("%8s %12s %9s %9s %11s\n", "workers", "makespan(s)", "speedup", "eff",
              "span-bound");
  std::vector<rt::SimulationResult> replays;
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    const int w = a.workers[i];
    const rt::SimulationResult r = obs::replay_trace(trace, w);
    replays.push_back(r);
    std::printf("%8d %12.6f %9.2f %8.1f%% %11.2f\n", w, r.makespan,
                r.makespan > 0.0 ? replays[0].makespan / r.makespan : 0.0, 100.0 * r.efficiency,
                law.predicted_speedup(w));
  }
  std::printf("(speedup is vs the P=%d replay; span-bound is T1/max(T1/P, Tinf))\n\n",
              a.workers[0]);

  // --- what-if: scheduling policy. Replays the same DAG with priorities
  // honoured vs ignored (plain FIFO), showing what the priority annotations
  // buy at each worker count. ---
  std::printf("-- what-if: priority-aware vs FIFO list scheduling --\n");
  std::printf("%8s %14s %14s %9s\n", "workers", "priority(s)", "fifo(s)", "gain");
  std::vector<double> fifo_makespans;
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    const int w = a.workers[i];
    const rt::SimulationResult rf =
        obs::replay_trace(trace, w, rt::MachineModel{}, rt::SimPolicy::Fifo);
    fifo_makespans.push_back(rf.makespan);
    const double pri = replays[i].makespan;
    std::printf("%8d %14.6f %14.6f %+8.2f%%\n", w, pri, rf.makespan,
                pri > 0.0 ? 100.0 * (rf.makespan - pri) / pri : 0.0);
  }
  std::printf("(gain is FIFO makespan relative to the priority replay; positive\n"
              " means the priority annotations shorten the schedule)\n\n");

  // --- parallelism profile ---
  const obs::ParallelismProfile prof = obs::parallelism_profile(trace);
  std::printf("-- parallelism profile --\n%s\n", prof.ascii(a.profile_width).c_str());

  // --- optional nb sweep: the granularity trade-off (solve mode only) ---
  if (a.nb_sweep && a.load.empty() && a.driver != "mrrr") {
    std::printf("-- what-if: panel width nb (re-solving, simulated 16 workers) --\n");
    std::printf("%8s %12s %12s %9s\n", "nb", "T1(s)", "Tinf(s)", "speedup16");
    for (long div : {4, 6, 8, 12, 16, 24, 32}) {
      TraceArgs anb = a;
      anb.nb = std::max<long>(16, a.n / div);
      anb.workers = {16};
      rt::Trace tnb;
      run_solver(anb, tnb);
      const obs::SpanLaw lnb = obs::span_law(tnb);
      const rt::SimulationResult r1 = obs::replay_trace(tnb, 1);
      const rt::SimulationResult r16 = obs::replay_trace(tnb, 16);
      std::printf("%8ld %12.6f %12.6f %9.2f\n", anb.nb, lnb.t1, lnb.t_inf,
                  r16.makespan > 0.0 ? r1.makespan / r16.makespan : 0.0);
    }
    std::printf("\n");
  }

  // --- machine-readable dump ---
  if (!a.json_out.empty()) {
    std::string js = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"source\": \"%s\",\n  \"git_commit\": \"%s\",\n"
                  "  \"queue_depth_peak\": %d,\n"
                  "  \"t1\": %.9f,\n  \"t_inf\": %.9f,\n  \"parallelism\": %.6f,\n",
                  a.load.empty() ? a.driver.c_str() : a.load.c_str(), version::kGitCommit,
                  trace.queue_depth_peak, law.t1, law.t_inf,
                  law.parallelism);
    js += buf;
    js += "  \"critical_path_kinds\": {";
    bool first = true;
    for (std::size_t k = 0; k < cp.time_by_kind.size(); ++k) {
      if (cp.time_by_kind[k] <= 0.0) continue;
      std::snprintf(buf, sizeof buf, "%s\n    \"%s\": %.9f", first ? "" : ",",
                    rt::json_escape(trace.kind_names[k]).c_str(), cp.time_by_kind[k]);
      js += buf;
      first = false;
    }
    js += "\n  },\n  \"what_if\": [";
    for (std::size_t i = 0; i < replays.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\n    {\"workers\": %d, \"makespan\": %.9f, \"efficiency\": %.6f, "
                    "\"makespan_fifo\": %.9f}",
                    i ? "," : "", a.workers[i], replays[i].makespan, replays[i].efficiency,
                    fifo_makespans[i]);
      js += buf;
    }
    js += "\n  ],\n  \"profile\": ";
    js += prof.to_json();
    js += "}\n";
    write_output(a.json_out, js);
  }
  return 0;
}

// --- metrics --------------------------------------------------------------------

/// The reports of a DNC_HISTORY archive; a line that is not a report is
/// skipped with a note.
std::vector<obs::SolveReport> load_archive(const std::string& path, const char* who) {
  std::vector<obs::SolveReport> reports;
  std::string err;
  long skipped = 0;
  if (!obs::history::load_file(path, reports, &err, &skipped)) throw std::runtime_error(err);
  if (skipped > 0)
    std::fprintf(stderr, "dnc %s: note: skipped %ld line(s) of %s that are not a report\n",
                 who, skipped, path.c_str());
  return reports;
}

int run_metrics(Flags& f) {
  std::vector<std::string> in;
  std::string keyspec;
  bool diff = false, prometheus = false;
  while (f.more()) {
    const std::string flag = f.next();
    if (flag == "--key")
      keyspec = f.value();
    else if (flag == "--diff")
      diff = true;
    else if (flag == "--prometheus")
      prometheus = true;
    else
      in.push_back(f.operand());
  }
  if (in.size() != (diff ? 2u : 1u)) throw UsageError("wrong number of operands");
  if (diff && prometheus) throw UsageError("--prometheus renders one archive, not a --diff");
  obs::history::Key key;
  std::string err;
  if (!obs::history::parse_key(keyspec, key, &err)) throw UsageError("--key: " + err);
  const auto rows = [&](const std::string& path) {
    return obs::history::metrics_rows(load_archive(path, "metrics"), key);
  };
  const std::string filter = keyspec.empty() ? "" : " [" + keyspec + "]";
  std::string out;
  if (diff) {
    const auto b = rows(in[1]);
    out = obs::history::render_metrics("metrics diff a: " + in[0] + " vs b: " + in[1] + filter,
                                       rows(in[0]), &b);
  } else if (prometheus) {
    out = obs::history::prometheus_text(rows(in[0]));
  } else {
    out = obs::history::render_metrics("metrics: " + in[0] + filter, rows(in[0]));
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

// --- diff -----------------------------------------------------------------------

/// One loaded side: the trace and report the file yielded.
struct LoadedSide {
  rt::Trace trace;
  obs::SolveReport report;
  bool has_trace = false;
  bool has_report = false;
};

void load_side(const std::string& path, LoadedSide& out) {
  const std::string text = read_input(path);
  json::Value v;
  std::string err;
  if (!json::parse(text, v, &err)) throw std::runtime_error(path + ": " + err);
  // Shape detection: a Perfetto export is an object with "traceEvents" (or a
  // bare event array); a SolveReport is an object with "driver"+"counters".
  const bool looks_trace = v.is_array() || (v.is_object() && v.find("traceEvents"));
  if (looks_trace) {
    if (!obs::load_perfetto_trace(text, out.trace, &err, &out.report))
      throw std::runtime_error(path + ": " + err);
    out.has_trace = true;
    out.has_report = !out.report.driver.empty();
    return;
  }
  if (!obs::parse_solve_report_value(v, out.report, &err))
    throw std::runtime_error(path + ": neither a trace nor a SolveReport (" + err + ")");
  out.has_report = true;
}

int run_history(const std::string& archive, const std::string& keyspec) {
  obs::history::Key key;
  std::string err;
  if (!obs::history::parse_key(keyspec, key, &err)) throw UsageError("--key: " + err);
  const std::vector<obs::SolveReport> reports = load_archive(archive, "diff");
  const std::vector<obs::SolveReport> ser = obs::history::series(reports, key);
  std::fputs(obs::history::render_series(ser, keyspec.empty() ? "(all)" : keyspec).c_str(),
             stdout);
  const std::vector<obs::SolveReport> per_commit =
      obs::history::latest_per_commit(reports, key);
  if (per_commit.size() > 1 && per_commit.size() < ser.size()) {
    std::fputs("\n", stdout);
    std::fputs(obs::history::render_series(per_commit, "latest per commit").c_str(),
               stdout);
  }
  return 0;
}

int run_diff(Flags& f) {
  std::vector<std::string> paths;
  std::string json_out, history_path, keyspec;
  obs::DiffOptions opt;
  while (f.more()) {
    const std::string flag = f.next();
    if (flag == "--json")
      json_out = f.value();
    else if (flag == "--noise")
      opt.noise_rel = f.number(0.0);
    else if (flag == "--history")
      history_path = f.value();
    else if (flag == "--key")
      keyspec = f.value();
    else
      paths.push_back(f.operand());
  }
  if (!history_path.empty()) return run_history(history_path, keyspec);
  if (paths.size() != 2) throw UsageError("need two files to diff");

  LoadedSide a, b;
  load_side(paths[0], a);
  load_side(paths[1], b);
  obs::DiffSide sa, sb;
  sa.label = paths[0];
  sb.label = paths[1];
  if (a.has_trace) sa.trace = &a.trace;
  if (a.has_report) sa.report = &a.report;
  if (b.has_trace) sb.trace = &b.trace;
  if (b.has_report) sb.report = &b.report;

  const obs::SolveDiff diff = obs::diff_solves(sa, sb, opt);
  std::fputs(diff.render().c_str(), stdout);
  if (!json_out.empty()) write_output(json_out, diff.to_json());
  return 0;
}

// --- compare --------------------------------------------------------------------

/// The last report of `archive` for the bench cell of `row`, or null.
const obs::SolveReport* last_report(const std::vector<obs::SolveReport>& archive,
                                    const obs::CompareRow& row) {
  obs::history::Key key;
  key.driver = row.driver;
  key.family = row.family;
  key.precision = row.precision;
  key.n = row.n;
  const auto it = std::find_if(archive.rbegin(), archive.rend(),
                               [&](const obs::SolveReport& r) { return key.matches(r); });
  return it == archive.rend() ? nullptr : &*it;
}

/// The reports of the DNC_HISTORY archive at `path`; an unreadable archive
/// is a note and no reports, so the gate's verdict still stands.
std::vector<obs::SolveReport> load_attribution_archive(const std::string& path) {
  try {
    return load_archive(path, "compare");
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "dnc compare: note: %s\n", e.what());
    return {};
  }
}

/// Prints a one-paragraph diff_solves attribution for each regressed row
/// whose cell has a report in both archives (capped, worst-first).
void attribute_regressions(const obs::CompareResult& res,
                           const std::vector<obs::SolveReport>& base_archive,
                           const std::vector<obs::SolveReport>& cur_archive) {
  constexpr int kMaxAttributions = 10;
  int shown = 0, missing = 0;
  for (const obs::CompareRow& row : res.rows) {
    if (row.verdict != obs::Verdict::kRegression) continue;
    if (shown >= kMaxAttributions) {
      std::printf("(more regressions; attribution capped at %d)\n", kMaxAttributions);
      break;
    }
    obs::DiffSide a, b;
    a.report = last_report(base_archive, row);
    a.label = "baseline";
    b.report = last_report(cur_archive, row);
    b.label = "current";
    if (a.report == nullptr || b.report == nullptr) {
      ++missing;
      continue;
    }
    const obs::SolveDiff diff = obs::diff_solves(a, b);
    std::printf("attribution %s: %s\n", row.key.c_str(), diff.one_paragraph().c_str());
    ++shown;
  }
  if (missing > 0)
    std::printf("(%d regressed entr%s had no per-entry report on one side)\n", missing,
                missing == 1 ? "y" : "ies");
}

int run_compare(Flags& f) {
  std::vector<std::string> paths;
  double threshold = 0.10;
  double min_time = 0.0;
  obs::BenchStat stat = obs::BenchStat::kMedian;
  bool quiet = false;
  std::string reports_base, reports_cur;
  while (f.more()) {
    const std::string flag = f.next();
    if (flag == "--threshold") {
      threshold = f.number(std::numeric_limits<double>::min());
    } else if (flag == "--stat") {
      const std::string v = f.value();
      if (v != "median" && v != "min") throw UsageError("unknown stat '" + v + "'");
      stat = v == "min" ? obs::BenchStat::kMin : obs::BenchStat::kMedian;
    } else if (flag == "--min-time") {
      min_time = f.number(0.0);
    } else if (flag == "--reports") {
      reports_base = f.value();
      reports_cur = f.value();
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      paths.push_back(f.operand());
    }
  }
  if (paths.size() != 2) throw UsageError("need a baseline and a current artifact");

  obs::BenchArtifact base, cur;
  std::string err;
  if (!obs::load_bench_artifact(paths[0], base, &err) ||
      !obs::load_bench_artifact(paths[1], cur, &err))
    throw std::runtime_error(err);

  const obs::CompareResult res = obs::compare_bench_artifacts(base, cur, threshold, stat, min_time);
  if (!quiet) std::fputs(res.render(threshold).c_str(), stdout);
  if (res.gate_passed()) return 0;
  if (!reports_base.empty())
    attribute_regressions(res, load_attribution_archive(reports_base),
                          load_attribution_archive(reports_cur));
  return 1;
}

struct Command {
  const char* name;
  int (*run)(Flags&);
};

constexpr Command kCommands[] = {{"trace", run_trace},
                                 {"metrics", run_metrics},
                                 {"diff", run_diff},
                                 {"compare", run_compare}};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--version")) {
      std::printf("dnc %s (%s)\n", version::kGitCommit, version::kBuildType);
      return 0;
    }
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(stdout);
      return 0;
    }
  }
  const std::string sub = argc > 1 ? argv[1] : "";
  const Command* cmd = std::find_if(std::begin(kCommands), std::end(kCommands),
                                    [&](const Command& c) { return sub == c.name; });
  if (cmd == std::end(kCommands)) {
    if (!sub.empty()) std::fprintf(stderr, "dnc: unknown subcommand '%s'\n", sub.c_str());
    usage(stderr);
    return 2;
  }
  try {
    Flags flags(argc - 2, argv + 2);
    return cmd->run(flags);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dnc %s: %s\n", cmd->name, e.what());
    usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnc %s: %s\n", cmd->name, e.what());
    return 2;
  }
}
