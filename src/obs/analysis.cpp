#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <queue>
#include <unordered_map>

#include "common/error.hpp"

namespace dnc::obs {
namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double duration(const rt::TraceEvent& e) { return std::max(0.0, e.t_end - e.t_start); }

/// Child subtasks (spawn_and_wait) are excluded from the DAG analyses: a
/// parent's [t_start, t_end] window is inclusive of the children it fanned
/// out, so counting both would double the work, and children carry no
/// dependency edges. The parent's inclusive duration stands for both.
bool analyzed(const rt::TraceEvent& e) { return !e.is_child(); }

/// Predecessor/successor adjacency over Trace::edges, restricted to edges
/// whose both endpoints exist in the trace. Successor lists preserve edge
/// order, so the FIFO replay releases successors in submission order.
struct Adjacency {
  std::vector<int> npred;
  std::vector<std::vector<std::size_t>> succ;
};

Adjacency adjacency(const rt::Trace& trace) {
  const std::size_t n = trace.events.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index.emplace(trace.events[i].task_id, i);
  Adjacency adj;
  adj.npred.assign(n, 0);
  adj.succ.assign(n, {});
  for (const auto& [pred, succ_id] : trace.edges) {
    const auto pi = index.find(pred);
    const auto si = index.find(succ_id);
    if (pi == index.end() || si == index.end()) continue;
    adj.succ[pi->second].push_back(si->second);
    ++adj.npred[si->second];
  }
  return adj;
}

}  // namespace

CriticalPath critical_path(const rt::Trace& trace) {
  CriticalPath cp;
  const std::size_t n = trace.events.size();
  if (n == 0) return cp;
  const Adjacency adj = adjacency(trace);

  // Kahn topological order (trace events are usually already topologically
  // sorted -- submission order respects dependencies -- but loaded or
  // hand-built traces need not be). completion(i) = max over preds
  // completion(p), then += dur(i).
  std::vector<double> dist(n, 0.0);
  std::vector<std::ptrdiff_t> parent(n, -1);
  std::vector<int> remaining(adj.npred);
  std::queue<std::size_t> order;
  for (std::size_t i = 0; i < n; ++i)
    if (remaining[i] == 0) order.push(i);

  std::size_t best = 0;
  bool any = false;
  while (!order.empty()) {
    const std::size_t i = order.front();
    order.pop();
    if (analyzed(trace.events[i])) {
      dist[i] += duration(trace.events[i]);
      cp.total_work += duration(trace.events[i]);
      if (!any || dist[i] > dist[best]) best = i;
      any = true;
    }
    for (std::size_t s : adj.succ[i]) {
      if (dist[i] > dist[s]) {
        dist[s] = dist[i];
        parent[s] = static_cast<std::ptrdiff_t>(i);
      }
      if (--remaining[s] == 0) order.push(s);
    }
  }
  if (!any) return cp;

  cp.length = dist[best];
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(best); i >= 0; i = parent[i])
    cp.chain.push_back(static_cast<std::size_t>(i));
  std::reverse(cp.chain.begin(), cp.chain.end());
  cp.time_by_kind.assign(trace.kind_names.size(), 0.0);
  for (std::size_t i : cp.chain) {
    const rt::TraceEvent& e = trace.events[i];
    if (e.kind >= 0 && e.kind < static_cast<int>(cp.time_by_kind.size()))
      cp.time_by_kind[e.kind] += duration(e);
  }
  return cp;
}

std::string CriticalPath::render(const rt::Trace& trace, int max_rows) const {
  std::string out;
  appendf(out, "critical path: %.6f s over %zu tasks (T1 = %.6f s, T1/Tinf = %.2f)\n",
          length, chain.size(), total_work, length > 0.0 ? total_work / length : 0.0);
  // Per-kind attribution, heaviest first: the kernel(s) that bound any
  // parallel execution no matter how many cores are added.
  std::vector<std::size_t> kinds;
  for (std::size_t k = 0; k < time_by_kind.size(); ++k)
    if (time_by_kind[k] > 0.0) kinds.push_back(k);
  std::sort(kinds.begin(), kinds.end(),
            [&](std::size_t a, std::size_t b) { return time_by_kind[a] > time_by_kind[b]; });
  appendf(out, "%-22s %12s %7s\n", "kind on path", "time(s)", "%span");
  for (std::size_t k : kinds)
    appendf(out, "%-22s %12.6f %6.1f%%\n", trace.kind_names[k].c_str(), time_by_kind[k],
            length > 0.0 ? 100.0 * time_by_kind[k] / length : 0.0);
  // The chain itself, runs of equal kinds collapsed.
  appendf(out, "chain (first task first; xN = consecutive tasks of the kind):\n");
  int rows = 0;
  for (std::size_t i = 0; i < chain.size();) {
    const rt::TraceEvent& e = trace.events[chain[i]];
    std::size_t j = i;
    double run_dur = 0.0;
    while (j < chain.size() && trace.events[chain[j]].kind == e.kind) {
      run_dur += std::max(0.0, trace.events[chain[j]].t_end - trace.events[chain[j]].t_start);
      ++j;
    }
    if (++rows > max_rows) {
      appendf(out, "  ... (%zu more tasks)\n", chain.size() - i);
      break;
    }
    const char* name = (e.kind >= 0 && e.kind < static_cast<int>(trace.kind_names.size()))
                           ? trace.kind_names[e.kind].c_str()
                           : "?";
    appendf(out, "  t=%.6f %-20s x%-4zu %10.6f s", e.t_start, name, j - i, run_dur);
    if (e.level >= 0) appendf(out, "  level=%d", e.level);
    if (e.size >= 0) appendf(out, " size=%ld", e.size);
    out += '\n';
    i = j;
  }
  return out;
}

ParallelismProfile parallelism_profile(const rt::Trace& trace) {
  ParallelismProfile p;
  struct Change {
    double t;
    int d_running;
    int d_ready;
  };
  std::vector<Change> changes;
  changes.reserve(trace.events.size() * 2);
  bool any = false;
  for (const auto& e : trace.events) {
    if (e.worker < 0) continue;  // never executed
    if (!analyzed(e)) continue;  // nested work shows as its parent's window
    if (!any) {
      p.t0 = e.t_start;
      p.t1 = e.t_end;
      any = true;
    } else {
      p.t0 = std::min(p.t0, e.t_start);
      p.t1 = std::max(p.t1, e.t_end);
    }
    changes.push_back({e.t_start, +1, 0});
    changes.push_back({e.t_end, -1, 0});
    if (e.t_ready > 0.0 && e.t_ready < e.t_start) {
      changes.push_back({e.t_ready, 0, +1});
      changes.push_back({e.t_start, 0, -1});
    }
  }
  if (!any) return p;
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) { return a.t < b.t; });

  int running = 0, ready = 0;
  double prev_t = changes.front().t;
  for (std::size_t i = 0; i < changes.size();) {
    const double t = changes[i].t;
    p.running_integral += running * (t - prev_t);
    prev_t = t;
    // Coalesce every change at the same instant into one sample.
    int dr = 0, dq = 0;
    while (i < changes.size() && changes[i].t == t) {
      dr += changes[i].d_running;
      dq += changes[i].d_ready;
      ++i;
    }
    running += dr;
    ready += dq;
    p.max_running = std::max(p.max_running, running);
    p.max_ready = std::max(p.max_ready, ready);
    p.samples.push_back({t, running, ready});
  }
  const double span = p.t1 - p.t0;
  p.avg_running = span > 0.0 ? p.running_integral / span : 0.0;
  return p;
}

std::string ParallelismProfile::ascii(int width, int height) const {
  if (samples.empty() || t1 <= t0) return "(empty profile)\n";
  width = std::max(width, 10);
  height = std::max(height, 4);
  // Time-averaged running / ready counts per column.
  std::vector<double> run_col(width, 0.0), ready_col(width, 0.0);
  const double span = t1 - t0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double a = samples[i].t;
    const double b = (i + 1 < samples.size()) ? samples[i + 1].t : t1;
    if (b <= a) continue;
    const double ca = (a - t0) / span * width;
    const double cb = (b - t0) / span * width;
    const int c0 = std::clamp(static_cast<int>(ca), 0, width - 1);
    const int c1 = std::clamp(static_cast<int>(cb), 0, width - 1);
    for (int c = c0; c <= c1; ++c) {
      const double lo = std::max(ca, static_cast<double>(c));
      const double hi = std::min(cb, static_cast<double>(c + 1));
      if (hi <= lo) continue;
      run_col[c] += samples[i].running * (hi - lo);
      ready_col[c] += samples[i].ready * (hi - lo);
    }
  }
  const int peak = std::max(1, std::max(max_running, 1));
  const int rows = std::min(height, peak);
  std::string out;
  appendf(out, "parallelism profile (# running, - ready backlog; peak %d running, %d ready)\n",
          max_running, max_ready);
  for (int r = rows; r >= 1; --r) {
    // Row r covers counts in (thr_lo, inf) where thr_lo maps the row grid
    // onto 0..peak.
    const double thr = static_cast<double>(r - 1) * peak / rows + 0.5;
    appendf(out, "%5.1f |", static_cast<double>(r) * peak / rows);
    for (int c = 0; c < width; ++c) {
      if (run_col[c] >= thr)
        out += '#';
      else if (run_col[c] + ready_col[c] >= thr)
        out += '-';
      else
        out += ' ';
    }
    out += "|\n";
  }
  appendf(out, "      +");
  for (int c = 0; c < width; ++c) out += '-';
  appendf(out, "+\n       0 s%*s%.6f s  (avg running %.2f)\n", std::max(0, width - 14), "",
          span, avg_running);
  return out;
}

std::string ParallelismProfile::to_json() const {
  std::string out = "{\n";
  appendf(out, "  \"t0\": %.9f,\n  \"t1\": %.9f,\n", t0, t1);
  appendf(out, "  \"max_running\": %d,\n  \"max_ready\": %d,\n", max_running, max_ready);
  appendf(out, "  \"avg_running\": %.6f,\n  \"running_integral\": %.9f,\n", avg_running,
          running_integral);
  out += "  \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    appendf(out, "%s[%.9f, %d, %d]", i ? ", " : "", samples[i].t, samples[i].running,
            samples[i].ready);
  }
  out += "]\n}\n";
  return out;
}

double SpanLaw::lower_bound(int workers) const {
  return std::max(workers > 0 ? t1 / workers : t1, t_inf);
}

double SpanLaw::upper_bound(int workers) const {
  return (workers > 0 ? t1 / workers : t1) + t_inf;
}

double SpanLaw::predicted_speedup(int workers) const {
  const double lb = lower_bound(workers);
  return lb > 0.0 ? t1 / lb : 0.0;
}

SpanLaw span_law(const rt::Trace& trace) {
  const CriticalPath cp = critical_path(trace);
  SpanLaw law;
  law.t1 = cp.total_work;
  law.t_inf = cp.length;
  law.parallelism = cp.length > 0.0 ? cp.total_work / cp.length : 0.0;
  return law;
}

rt::SimulationResult replay_trace(const rt::Trace& trace, int workers,
                                  const rt::MachineModel& model, rt::SimPolicy policy) {
  DNC_REQUIRE(workers >= 1, "replay_trace: workers >= 1");
  const std::size_t n = trace.events.size();
  rt::SimulationResult res;
  if (n == 0) return res;
  const Adjacency adj = adjacency(trace);

  std::vector<double> dur(n);
  std::vector<char> membound(n, 0);
  std::size_t replayed = 0;  // child subtasks are not replayed (see analyzed())
  for (std::size_t i = 0; i < n; ++i) {
    if (!analyzed(trace.events[i])) continue;
    ++replayed;
    dur[i] = duration(trace.events[i]);
    res.total_work += dur[i];
    const int k = trace.events[i].kind;
    membound[i] = (k >= 0 && k < static_cast<int>(trace.kind_memory_bound.size()) &&
                   trace.kind_memory_bound[k] != 0)
                      ? 1
                      : 0;
  }
  if (replayed == 0) return res;
  res.critical_path = critical_path(trace).length;

  // List scheduling: the ready queue is seeded in event order with a
  // (priority desc, arrival asc) discipline, and the bandwidth model
  // applies at task start from the instantaneous count: when m
  // memory-bound tasks run and the machine serves `streams` of them at full
  // speed, each runs at streams/m of its nominal rate -- a first-order
  // model that reproduces the stagnation of copy-dominated runs.
  const int total_streams = std::min(workers, model.sockets * model.bw_streams_per_socket);

  struct Running {
    double finish;
    std::size_t task;
    int worker;
  };
  struct Later {
    bool operator()(const Running& a, const Running& b) const { return a.finish > b.finish; }
  };
  std::priority_queue<Running, std::vector<Running>, Later> running;
  struct ReadyEntry {
    int prio;
    std::uint64_t seq;
    std::size_t task;
  };
  struct ReadyOrder {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.prio != b.prio) return a.prio < b.prio;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyOrder> ready;
  std::uint64_t ready_seq = 0;
  const auto push_ready = [&](std::size_t i) {
    const int prio = policy == rt::SimPolicy::Priority ? trace.events[i].priority : 0;
    ready.push({prio, ready_seq++, i});
  };
  std::vector<int> remaining(adj.npred);
  for (std::size_t i = 0; i < n; ++i)
    if (remaining[i] == 0 && analyzed(trace.events[i])) push_ready(i);

  res.schedule.workers = workers;
  res.schedule.kind_names = trace.kind_names;
  res.schedule.kind_memory_bound = trace.kind_memory_bound;
  std::vector<int> free_workers(workers);
  for (int w = 0; w < workers; ++w) free_workers[w] = workers - 1 - w;

  double clock = 0.0;
  int idle_workers = workers;
  int running_membound = 0;
  std::size_t completed = 0;
  while (completed < replayed) {
    while (idle_workers > 0 && !ready.empty()) {
      const std::size_t t = ready.top().task;
      ready.pop();
      --idle_workers;
      double d = dur[t];
      if (membound[t]) {
        ++running_membound;
        const double factor =
            std::max(1.0, static_cast<double>(running_membound) / total_streams);
        d *= factor;
      }
      const int w = free_workers.back();
      free_workers.pop_back();
      running.push({clock + d, t, w});
      rt::TraceEvent ev{trace.events[t].task_id, trace.events[t].kind, w, clock, clock + d};
      ev.priority = trace.events[t].priority;
      res.schedule.events.push_back(ev);
    }
    DNC_REQUIRE(!running.empty(), "replay_trace: deadlock (cyclic edge set?)");
    const Running r = running.top();
    running.pop();
    clock = r.finish;
    ++idle_workers;
    free_workers.push_back(r.worker);
    if (membound[r.task]) --running_membound;
    ++completed;
    for (std::size_t s : adj.succ[r.task]) {
      if (--remaining[s] == 0) push_ready(s);
    }
  }
  res.makespan = clock;
  res.efficiency = res.total_work / (res.makespan * workers);
  return res;
}

}  // namespace dnc::obs
