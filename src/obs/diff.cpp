#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/json.hpp"
#include "common/text.hpp"
#include "obs/analysis.hpp"
#include "obs/hwc.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs {
namespace {

/// Everything diff_solves needs from one side, resolved once. The trace is
/// authoritative for schedule quantities (per-kind busy, idle, critical
/// path); the report for identity, deflation and algorithmic counters.
struct SideView {
  DiffSideSummary sum;
  // kind -> (busy self-seconds, task count)
  std::map<std::string, std::pair<double, long>> kind_busy;
  // kind -> perf ratios (only when the perf backend sampled the side)
  struct HwcRatios {
    double ipc = 0.0, miss_rate = 0.0;
  };
  std::map<std::string, HwcRatios> kind_hwc;
  std::string hwc_backend;
  // kind -> share of critical-path length (traces only)
  std::map<std::string, double> cp_kind_share;
};

SideView resolve_side(const DiffSide& side) {
  SideView v;
  const SolveReport* rep = side.report;
  const rt::Trace* tr = side.trace;
  v.sum.label = side.label;
  if (rep) {
    v.sum.driver = rep->driver;
    v.sum.precision = rep->precision.empty() ? "f64" : rep->precision;
    v.sum.git_commit = rep->git_commit;
    v.sum.timestamp = rep->timestamp;
    v.sum.n = rep->n;
    v.sum.workers = rep->workers();
    v.sum.makespan = rep->seconds;
    if (rep->has_scheduler) {
      v.sum.has_sched = true;
      if (rep->scheduler.makespan > 0.0) v.sum.makespan = rep->scheduler.makespan;
      v.sum.busy = rep->scheduler.total_busy;
      v.sum.idle = rep->scheduler.total_idle;
      v.sum.steals = rep->scheduler.steals;
      v.sum.steals_cross_socket = rep->scheduler.steals_cross_socket;
    }
    v.sum.has_deflation = !rep->merges.empty();
    v.sum.deflated_fraction = rep->deflated_fraction();
    v.sum.gemm_gflops = rep->gemm_gflops();
    // Per-kind data from the report's hwc aggregates (present when the solve
    // sampled counters; seconds are there even under the rusage backend).
    v.hwc_backend = rep->hwc_backend;
    for (const KindHwcTotals& k : rep->kind_hwc) {
      v.kind_busy[k.kind] = {k.seconds, k.tasks};
      if (rep->hwc_backend == "perf") {
        SideView::HwcRatios r;
        if (k.hwc[0] > 0) r.ipc = static_cast<double>(k.hwc[1]) / k.hwc[0];
        if (k.hwc[3] > 0) r.miss_rate = static_cast<double>(k.hwc[2]) / k.hwc[3];
        v.kind_hwc[k.kind] = r;
      }
    }
  }
  if (tr) {
    // The trace overrides the schedule quantities: its clock produced them.
    if (tr->workers > 0) v.sum.workers = tr->workers;
    const double mk = tr->makespan();
    if (mk > 0.0) v.sum.makespan = mk;
    v.sum.has_sched = v.sum.has_sched || !tr->worker_idle.empty();
    double idle = 0.0;
    for (double d : tr->worker_idle) idle += d;
    if (idle > 0.0 || !tr->worker_idle.empty()) v.sum.idle = idle;
    if (!tr->sched_counters.empty()) {
      v.sum.steals = 0;
      v.sum.steals_cross_socket = 0;
      for (const auto& c : tr->sched_counters) {
        v.sum.steals += c.steals;
        v.sum.steals_cross_socket += c.steals_cross_socket;
      }
    }
    v.kind_busy.clear();
    for (const auto& e : tr->events) {
      if (e.worker < 0 || e.kind < 0 ||
          e.kind >= static_cast<int>(tr->kind_names.size()))
        continue;
      auto& kb = v.kind_busy[tr->kind_names[e.kind]];
      kb.first += e.self_duration();
      ++kb.second;
    }
    if (!tr->hwc_backend.empty()) v.hwc_backend = tr->hwc_backend;
    if (tr->hwc_backend == "perf") {
      v.kind_hwc.clear();
      for (const KindHwcTotals& k : kind_hwc_totals(*tr)) {
        SideView::HwcRatios r;
        if (k.hwc[0] > 0) r.ipc = static_cast<double>(k.hwc[1]) / k.hwc[0];
        if (k.hwc[3] > 0) r.miss_rate = static_cast<double>(k.hwc[2]) / k.hwc[3];
        v.kind_hwc[k.kind] = r;
      }
    }
    if (v.sum.gemm_gflops == 0.0 && v.sum.makespan > 0.0)
      v.sum.gemm_gflops = tr->meta_counter("gemm_flops") * 1e-9 / v.sum.makespan;
    if (v.sum.timestamp.empty()) v.sum.timestamp = tr->meta_string("timestamp");
    if (v.sum.driver.empty()) v.sum.driver = tr->meta_string("driver");
    if (v.sum.git_commit.empty()) v.sum.git_commit = tr->meta_string("git_commit");
    if (v.sum.n == 0)
      v.sum.n = static_cast<long>(tr->meta_counter("n"));
    if (v.sum.precision.empty())
      v.sum.precision = tr->meta_counter("precision_bits") == 32.0 ? "f32" : "f64";
    // Critical path (per-kind share of the chain).
    const CriticalPath cp = critical_path(*tr);
    if (cp.length > 0.0) {
      v.sum.has_cp = true;
      v.sum.cp_length = cp.length;
      for (std::size_t k = 0; k < cp.time_by_kind.size() && k < tr->kind_names.size(); ++k)
        if (cp.time_by_kind[k] > 0.0)
          v.cp_kind_share[tr->kind_names[k]] = cp.time_by_kind[k] / cp.length;
    }
  }
  double busy = 0.0;
  for (const auto& [k, bt] : v.kind_busy) busy += bt.first;
  if (busy > 0.0) v.sum.busy = busy;
  if (v.sum.workers < 1) v.sum.workers = 1;
  if (v.sum.label.empty()) {
    v.sum.label = v.sum.git_commit.empty() ? "?" : v.sum.git_commit;
    if (!v.sum.timestamp.empty()) v.sum.label += " " + v.sum.timestamp;
  }
  return v;
}

std::string pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * x);
  return buf;
}

}  // namespace

SolveDiff diff_solves(const DiffSide& a, const DiffSide& b, const DiffOptions& opt) {
  SolveDiff d;
  const SideView va = resolve_side(a);
  const SideView vb = resolve_side(b);
  d.a = va.sum;
  d.b = vb.sum;
  d.delta = d.b.makespan - d.a.makespan;
  d.noise_floor =
      std::max(opt.noise_abs, opt.noise_rel * std::max(d.a.makespan, d.b.makespan));
  d.significant = std::fabs(d.delta) >= d.noise_floor;

  // Identity alignment: mismatches never abort the diff, they only warn --
  // cross-driver or cross-n diffs are sometimes exactly the question.
  if (!va.sum.driver.empty() && !vb.sum.driver.empty() && va.sum.driver != vb.sum.driver) {
    d.comparable = false;
    d.warnings.push_back("driver mismatch: " + va.sum.driver + " vs " + vb.sum.driver);
  }
  if (va.sum.n > 0 && vb.sum.n > 0 && va.sum.n != vb.sum.n) {
    d.comparable = false;
    d.warnings.push_back("n mismatch: " + std::to_string(va.sum.n) + " vs " +
                         std::to_string(vb.sum.n));
  }
  if (!va.sum.precision.empty() && !vb.sum.precision.empty() &&
      va.sum.precision != vb.sum.precision) {
    d.comparable = false;
    d.warnings.push_back("precision mismatch: " + va.sum.precision + " vs " +
                         vb.sum.precision);
  }
  if (va.sum.workers != vb.sum.workers)
    d.warnings.push_back("worker counts differ (" + std::to_string(va.sum.workers) + " vs " +
                         std::to_string(vb.sum.workers) +
                         "); contributions are per-worker normalised");
  if (!va.hwc_backend.empty() && !vb.hwc_backend.empty() && va.hwc_backend != vb.hwc_backend)
    d.warnings.push_back("hwc backend mismatch: " + va.hwc_backend + " vs " + vb.hwc_backend +
                         "; counter deltas suppressed");
  const bool hwc_ok = va.hwc_backend == "perf" && vb.hwc_backend == "perf";

  // --- per-kind rows over the union of kinds ---
  std::map<std::string, KindDelta> rows;
  for (const auto& [kind, bt] : va.kind_busy) {
    KindDelta& r = rows[kind];
    r.kind = kind;
    r.busy_a = bt.first;
    r.tasks_a = bt.second;
  }
  for (const auto& [kind, bt] : vb.kind_busy) {
    KindDelta& r = rows[kind];
    r.kind = kind;
    r.busy_b = bt.first;
    r.tasks_b = bt.second;
  }
  if (hwc_ok) {
    for (auto& [kind, r] : rows) {
      const auto ia = va.kind_hwc.find(kind);
      const auto ib = vb.kind_hwc.find(kind);
      if (ia != va.kind_hwc.end() && ib != vb.kind_hwc.end()) {
        r.has_hwc = true;
        r.ipc_a = ia->second.ipc;
        r.ipc_b = ib->second.ipc;
        r.miss_rate_a = ia->second.miss_rate;
        r.miss_rate_b = ib->second.miss_rate;
      }
    }
  }
  for (const auto& [kind, r] : rows) d.kinds.push_back(r);
  std::sort(d.kinds.begin(), d.kinds.end(), [](const KindDelta& x, const KindDelta& y) {
    return std::fabs(x.delta()) > std::fabs(y.delta());
  });

  // --- additive decomposition (per-worker normalised) ---
  const double wa = va.sum.workers, wb = vb.sum.workers;
  double contrib_sum = 0.0, busy_contrib = 0.0;
  if (!rows.empty()) {
    for (const auto& [kind, r] : rows) {
      DiffComponent c;
      c.component = "busy:" + kind;
      c.seconds = r.busy_b / wb - r.busy_a / wa;
      busy_contrib += c.seconds;
      contrib_sum += c.seconds;
      d.components.push_back(c);
    }
  } else if (va.sum.busy > 0.0 || vb.sum.busy > 0.0) {
    DiffComponent c;
    c.component = "busy";
    c.seconds = vb.sum.busy / wb - va.sum.busy / wa;
    busy_contrib = contrib_sum = c.seconds;
    d.components.push_back(c);
  }
  if (va.sum.has_sched || vb.sum.has_sched) {
    DiffComponent c;
    c.component = "sched_idle";
    c.seconds = vb.sum.idle / wb - va.sum.idle / wa;
    contrib_sum += c.seconds;
    d.components.push_back(c);
  }
  if (!d.components.empty()) {
    const double residual = d.delta - contrib_sum;
    if (std::fabs(residual) > 1e-9) {
      DiffComponent c;
      c.component = "unattributed";
      c.seconds = residual;
      d.components.push_back(c);
    }
  }
  std::sort(d.components.begin(), d.components.end(),
            [](const DiffComponent& x, const DiffComponent& y) {
              return std::fabs(x.seconds) > std::fabs(y.seconds);
            });
  if (d.significant && std::fabs(d.delta) > 0.0) {
    for (DiffComponent& c : d.components) c.share = c.seconds / d.delta;
    d.busy_share = busy_contrib / d.delta;
    if (!d.components.empty()) d.top_component = d.components.front().component;
  }

  // --- critical-path diff ---
  if (va.sum.has_cp && vb.sum.has_cp) {
    for (const auto& [kind, share] : vb.cp_kind_share) {
      const auto it = va.cp_kind_share.find(kind);
      const double sa = it == va.cp_kind_share.end() ? 0.0 : it->second;
      if (share >= opt.cp_share && sa < opt.cp_share) d.cp_entered.push_back(kind);
    }
    for (const auto& [kind, share] : va.cp_kind_share) {
      const auto it = vb.cp_kind_share.find(kind);
      const double sb = it == vb.cp_kind_share.end() ? 0.0 : it->second;
      if (share >= opt.cp_share && sb < opt.cp_share) d.cp_left.push_back(kind);
    }
  }

  // --- explanatory notes (never part of the additive split) ---
  char buf[256];
  if (va.sum.has_deflation && vb.sum.has_deflation) {
    const double df = vb.sum.deflated_fraction - va.sum.deflated_fraction;
    if (std::fabs(df) > 0.02) {
      std::snprintf(buf, sizeof buf,
                    "deflated fraction %.3f -> %.3f (%+.3f): %s deflation means %s secular "
                    "systems and %s GEMM work",
                    va.sum.deflated_fraction, vb.sum.deflated_fraction, df,
                    df < 0 ? "less" : "more", df < 0 ? "larger" : "smaller",
                    df < 0 ? "more" : "less");
      d.notes.push_back(buf);
    }
  }
  if (va.sum.gemm_gflops > 0.0 && vb.sum.gemm_gflops > 0.0) {
    const double rel = vb.sum.gemm_gflops / va.sum.gemm_gflops - 1.0;
    if (std::fabs(rel) > 0.05) {
      std::snprintf(buf, sizeof buf, "GEMM throughput %.1f -> %.1f GF/s (%s)",
                    va.sum.gemm_gflops, vb.sum.gemm_gflops, pct(rel).c_str());
      d.notes.push_back(buf);
    }
  }
  if (va.sum.steals > 0 && vb.sum.steals > 0) {
    const double xa = static_cast<double>(va.sum.steals_cross_socket) / va.sum.steals;
    const double xb = static_cast<double>(vb.sum.steals_cross_socket) / vb.sum.steals;
    if (std::fabs(xb - xa) > 0.10) {
      std::snprintf(buf, sizeof buf,
                    "steal locality shifted: %.0f%% -> %.0f%% of steals cross-socket "
                    "(%ld -> %ld steals total)",
                    100.0 * xa, 100.0 * xb, va.sum.steals, vb.sum.steals);
      d.notes.push_back(buf);
    }
  }
  if (hwc_ok && !d.kinds.empty()) {
    const KindDelta& lead = d.kinds.front();
    if (lead.has_hwc && lead.ipc_a > 0.0) {
      const double rel = lead.ipc_b / lead.ipc_a - 1.0;
      if (std::fabs(rel) > 0.10) {
        std::snprintf(buf, sizeof buf, "%s IPC %.2f -> %.2f (%s), LLC miss %.1f%% -> %.1f%%",
                      lead.kind.c_str(), lead.ipc_a, lead.ipc_b, pct(rel).c_str(),
                      100.0 * lead.miss_rate_a, 100.0 * lead.miss_rate_b);
        d.notes.push_back(buf);
      }
    }
  }
  return d;
}

// --- renderings ------------------------------------------------------------

std::string SolveDiff::render() const {
  std::string out;
  appendf(out, "=== dnc solve diff ===\n");
  const auto side = [&](const char* tag, const DiffSideSummary& s) {
    appendf(out, "%s: %s", tag, s.label.c_str());
    if (!s.driver.empty()) appendf(out, "  driver=%s", s.driver.c_str());
    if (s.n > 0) appendf(out, " n=%ld", s.n);
    if (!s.precision.empty()) appendf(out, " prec=%s", s.precision.c_str());
    appendf(out, " workers=%d", s.workers);
    appendf(out, "\n");
  };
  side("a", a);
  side("b", b);
  for (const std::string& w : warnings) appendf(out, "warning: %s\n", w.c_str());
  appendf(out, "makespan  : %.6f s -> %.6f s  (%+.6f s, %s)\n", a.makespan, b.makespan, delta,
          a.makespan > 0.0 ? pct(delta / a.makespan).c_str() : "n/a");
  if (!significant) {
    appendf(out, "delta within noise (floor %.6f s); no attribution.\n", noise_floor);
    return out;
  }
  if (!components.empty()) {
    appendf(out, "\n-- attribution (additive, per-worker normalised) --\n");
    appendf(out, "%-28s %12s %8s\n", "component", "seconds", "share");
    for (const DiffComponent& c : components)
      appendf(out, "%-28s %+12.6f %7.1f%%\n", c.component.c_str(), c.seconds, 100.0 * c.share);
    appendf(out, "task busy time carries %.1f%% of the delta\n", 100.0 * busy_share);
  }
  if (!kinds.empty()) {
    appendf(out, "\n-- kinds --\n");
    appendf(out, "%-22s %11s %11s %11s %7s %7s", "kind", "busy_a(s)", "busy_b(s)", "delta(s)",
            "tasks_a", "tasks_b");
    const bool any_hwc =
        std::any_of(kinds.begin(), kinds.end(), [](const KindDelta& k) { return k.has_hwc; });
    if (any_hwc) appendf(out, "  %11s %13s", "IPC a->b", "miss%% a->b");
    appendf(out, "\n");
    for (const KindDelta& k : kinds) {
      appendf(out, "%-22s %11.6f %11.6f %+11.6f %7ld %7ld", k.kind.c_str(), k.busy_a, k.busy_b,
              k.delta(), k.tasks_a, k.tasks_b);
      if (k.has_hwc)
        appendf(out, "  %4.2f->%4.2f %5.1f%%->%5.1f%%", k.ipc_a, k.ipc_b,
                100.0 * k.miss_rate_a, 100.0 * k.miss_rate_b);
      appendf(out, "\n");
    }
  }
  if (a.has_cp && b.has_cp) {
    appendf(out, "\n-- critical path --\nlength %.6f s -> %.6f s (%+.6f s)\n", a.cp_length,
            b.cp_length, b.cp_length - a.cp_length);
    const auto list = [&](const char* tag, const std::vector<std::string>& v) {
      appendf(out, "%s: ", tag);
      if (v.empty()) {
        appendf(out, "(none)");
      } else {
        for (std::size_t i = 0; i < v.size(); ++i)
          appendf(out, "%s%s", i ? ", " : "", v[i].c_str());
      }
      appendf(out, "\n");
    };
    list("kinds entered", cp_entered);
    list("kinds left", cp_left);
  }
  if (!notes.empty()) {
    appendf(out, "\n-- notes --\n");
    for (const std::string& n : notes) appendf(out, "* %s\n", n.c_str());
  }
  return out;
}

std::string SolveDiff::one_paragraph() const {
  std::string out;
  if (!significant) {
    appendf(out,
            "makespan %.6f s -> %.6f s (%+.6f s): within noise (floor %.6f s); "
            "no attribution.",
            a.makespan, b.makespan, delta, noise_floor);
    return out;
  }
  appendf(out, "b is %s %s than a (%.6f s -> %.6f s, %+.6f s).",
          a.makespan > 0.0 ? pct(std::fabs(delta) / a.makespan).c_str() + 1 : "",  // drop sign
          delta > 0 ? "slower" : "faster", a.makespan, b.makespan, delta);
  if (!components.empty()) {
    appendf(out, " %s carries the largest share (%+.6f s, %.0f%% of the delta)",
            top_component.c_str(), components.front().seconds,
            100.0 * std::fabs(components.front().share));
    if (components.size() > 1)
      appendf(out, "; next %s (%+.6f s, %.0f%%)", components[1].component.c_str(),
              components[1].seconds, 100.0 * std::fabs(components[1].share));
    appendf(out, "; task busy time in total carries %.0f%%.", 100.0 * busy_share);
  }
  if (!cp_entered.empty()) {
    appendf(out, " Critical path grew %+0.6f s; entering kinds:", b.cp_length - a.cp_length);
    for (std::size_t i = 0; i < cp_entered.size(); ++i)
      appendf(out, "%s %s", i ? "," : "", cp_entered[i].c_str());
    appendf(out, ".");
  }
  if (!notes.empty()) appendf(out, " %s.", notes.front().c_str());
  return out;
}

std::string SolveDiff::to_json() const {
  std::string out = "{\n  \"schema\": \"dnc-diff-v1\",\n";
  const auto side = [&](const char* tag, const DiffSideSummary& s) {
    appendf(out,
            "  \"%s\": {\"label\": \"%s\", \"driver\": \"%s\", \"n\": %ld, "
            "\"precision\": \"%s\", \"git_commit\": \"%s\", \"timestamp\": \"%s\", "
            "\"workers\": %d, \"makespan\": %.9f, \"busy\": %.9f, \"idle\": %.9f, "
            "\"deflated_fraction\": %.6f, \"gemm_gflops\": %.3f, \"cp_length\": %.9f},\n",
            tag, rt::json_escape(s.label).c_str(), rt::json_escape(s.driver).c_str(), s.n,
            rt::json_escape(s.precision).c_str(), rt::json_escape(s.git_commit).c_str(),
            rt::json_escape(s.timestamp).c_str(), s.workers, s.makespan, s.busy, s.idle,
            s.deflated_fraction, s.gemm_gflops, s.cp_length);
  };
  side("a", a);
  side("b", b);
  appendf(out, "  \"delta_seconds\": %.9f,\n  \"noise_floor\": %.9f,\n", delta, noise_floor);
  appendf(out, "  \"significant\": %s,\n  \"comparable\": %s,\n",
          significant ? "true" : "false", comparable ? "true" : "false");
  appendf(out, "  \"busy_share\": %.6f,\n  \"top_component\": \"%s\",\n", busy_share,
          rt::json_escape(top_component).c_str());
  out += "  \"components\": [";
  for (std::size_t i = 0; i < components.size(); ++i)
    appendf(out, "%s\n    {\"component\": \"%s\", \"seconds\": %.9f, \"share\": %.6f}",
            i ? "," : "", rt::json_escape(components[i].component).c_str(),
            components[i].seconds, components[i].share);
  out += components.empty() ? "],\n" : "\n  ],\n";
  out += "  \"kinds\": [";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const KindDelta& k = kinds[i];
    appendf(out,
            "%s\n    {\"kind\": \"%s\", \"busy_a\": %.9f, \"busy_b\": %.9f, "
            "\"tasks_a\": %ld, \"tasks_b\": %ld",
            i ? "," : "", rt::json_escape(k.kind).c_str(), k.busy_a, k.busy_b, k.tasks_a,
            k.tasks_b);
    if (k.has_hwc)
      appendf(out,
              ", \"ipc_a\": %.4f, \"ipc_b\": %.4f, \"miss_rate_a\": %.4f, "
              "\"miss_rate_b\": %.4f",
              k.ipc_a, k.ipc_b, k.miss_rate_a, k.miss_rate_b);
    out += "}";
  }
  out += kinds.empty() ? "],\n" : "\n  ],\n";
  const auto strlist = [&](const char* name, const std::vector<std::string>& v) {
    appendf(out, "  \"%s\": [", name);
    for (std::size_t i = 0; i < v.size(); ++i)
      appendf(out, "%s\"%s\"", i ? ", " : "", rt::json_escape(v[i]).c_str());
    out += "],\n";
  };
  strlist("cp_entered", cp_entered);
  strlist("cp_left", cp_left);
  strlist("notes", notes);
  strlist("warnings", warnings);
  appendf(out, "  \"paragraph\": \"%s\"\n}\n", rt::json_escape(one_paragraph()).c_str());
  return out;
}

// --- SolveReport JSON reader ------------------------------------------------

bool parse_solve_report_value(const json::Value& v, SolveReport& out, std::string* err) {
  if (!v.is_object()) {
    if (err) *err = "report is not a JSON object";
    return false;
  }
  if (!v.find("driver") && !v.find("counters") && !v.find("n")) {
    if (err) *err = "object carries no SolveReport members (driver/n/counters)";
    return false;
  }
  out = SolveReport{};
  out.driver = v.member_string("driver", "");
  out.n = static_cast<long>(v.member_number("n", 0));
  out.threads = static_cast<int>(v.member_number("threads", 0));
  out.seconds = v.member_number("seconds", 0.0);
  out.simd_isa = v.member_string("simd_isa", "");
  out.precision = v.member_string("precision", "f64");
  out.git_commit = v.member_string("git_commit", "");
  out.build_type = v.member_string("build_type", "");
  out.hostname = v.member_string("hostname", "");
  out.timestamp = v.member_string("timestamp", "");
  out.family = v.member_string("family", "");
  if (const json::Value* c = v.find("counters"); c && c->is_object()) {
    for (int i = 0; i < kNumCounters; ++i) {
      if (const json::Value* m = c->find(counter_name(i)); m && m->is_number())
        out.counters[i] = static_cast<std::uint64_t>(m->number);
    }
  }
  if (const json::Value* ms = v.find("merges"); ms && ms->is_array()) {
    for (const json::Value& m : ms->array) {
      MergeRecord r;
      r.level = static_cast<int>(m.member_number("level", 0));
      r.m = static_cast<long>(m.member_number("m", 0));
      r.n1 = static_cast<long>(m.member_number("n1", 0));
      r.k = static_cast<long>(m.member_number("k", 0));
      if (const json::Value* ct = m.find("ctot"); ct && ct->is_array())
        for (std::size_t i = 0; i < 4 && i < ct->array.size(); ++i)
          r.ctot[i] = static_cast<long>(ct->array[i].number_or(0));
      r.t_end = m.member_number("t_end", 0.0);
      out.merges.push_back(r);
    }
  }
  if (const json::Value* mem = v.find("memory"); mem && mem->is_object()) {
    out.memory.workspace_bytes =
        static_cast<std::uint64_t>(mem->member_number("workspace_bytes", 0));
    out.memory.context_bytes = static_cast<std::uint64_t>(mem->member_number("context_bytes", 0));
    out.memory.output_bytes = static_cast<std::uint64_t>(mem->member_number("output_bytes", 0));
    out.memory.rss_hwm_bytes = static_cast<std::uint64_t>(mem->member_number("rss_hwm_bytes", 0));
    out.memory.rss_hwm_delta_bytes =
        static_cast<std::uint64_t>(mem->member_number("rss_hwm_delta_bytes", 0));
  }
  if (const json::Value* h = v.find("hwc"); h && h->is_object()) {
    out.hwc_backend = h->member_string("backend", "");
    if (const json::Value* slots = h->find("slots"); slots && slots->is_array())
      for (const json::Value& s : slots->array) out.hwc_slot_names.push_back(s.string_or(""));
    if (const json::Value* kinds = h->find("kinds"); kinds && kinds->is_array()) {
      for (const json::Value& k : kinds->array) {
        KindHwcTotals t;
        t.kind = k.member_string("kind", "");
        t.tasks = static_cast<long>(k.member_number("tasks", 0));
        t.seconds = k.member_number("seconds", 0.0);
        if (const json::Value* hs = k.find("hwc"); hs && hs->is_array())
          for (std::size_t i = 0; i < static_cast<std::size_t>(rt::kHwcSlots) &&
                                  i < hs->array.size();
               ++i)
            t.hwc[i] = static_cast<std::uint64_t>(hs->array[i].number_or(0));
        out.kind_hwc.push_back(t);
      }
    }
  }
  if (const json::Value* h = v.find("health"); h && h->is_object()) {
    out.has_health = true;
    out.health.sampled_columns = static_cast<int>(h->member_number("sampled_columns", 0));
    out.health.max_rel_residual = h->member_number("max_rel_residual", 0.0);
    out.health.max_ortho_error = h->member_number("max_ortho_error", 0.0);
  }
  if (const json::Value* s = v.find("scheduler"); s && s->is_object()) {
    out.has_scheduler = true;
    out.scheduler.workers = static_cast<int>(s->member_number("workers", 0));
    out.scheduler.tasks = static_cast<long>(s->member_number("tasks", 0));
    out.scheduler.makespan = s->member_number("makespan", 0.0);
    out.scheduler.total_busy = s->member_number("total_busy", 0.0);
    out.scheduler.efficiency = s->member_number("efficiency", 0.0);
    out.scheduler.avg_ready_wait = s->member_number("avg_ready_wait", 0.0);
    out.scheduler.max_ready_wait = s->member_number("max_ready_wait", 0.0);
    out.scheduler.total_idle = s->member_number("total_idle", 0.0);
    out.scheduler.max_queue_depth = static_cast<int>(s->member_number("max_queue_depth", 0));
    out.scheduler.steals = static_cast<long>(s->member_number("steals", 0));
    out.scheduler.steal_attempts = static_cast<long>(s->member_number("steal_attempts", 0));
    out.scheduler.failed_steals = static_cast<long>(s->member_number("failed_steals", 0));
    out.scheduler.local_pops = static_cast<long>(s->member_number("local_pops", 0));
    out.scheduler.placed_max = static_cast<long>(s->member_number("placed_max", 0));
    out.scheduler.placed_min = static_cast<long>(s->member_number("placed_min", 0));
    out.scheduler.steals_same_l3 = static_cast<long>(s->member_number("steals_same_l3", 0));
    out.scheduler.steals_same_socket =
        static_cast<long>(s->member_number("steals_same_socket", 0));
    out.scheduler.steals_cross_socket =
        static_cast<long>(s->member_number("steals_cross_socket", 0));
    out.scheduler.child_tasks = static_cast<long>(s->member_number("child_tasks", 0));
  }
  return true;
}

bool parse_solve_report(const std::string& json_text, SolveReport& out, std::string* err) {
  json::Value v;
  if (!json::parse(json_text, v, err)) return false;
  return parse_solve_report_value(v, out, err);
}

bool load_solve_report_file(const std::string& path, SolveReport& out, std::string* err) {
  json::Value v;
  if (!json::parse_file(path, v, err)) return false;
  return parse_solve_report_value(v, out, err);
}

}  // namespace dnc::obs
