#include "obs/trace_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/json.hpp"
#include "obs/diff.hpp"

namespace dnc::obs {
namespace {

inline double sec(double microseconds) { return microseconds * 1e-6; }

constexpr int kIntMin = std::numeric_limits<int>::min();

using json::int_member;

}  // namespace

bool load_perfetto_trace(const std::string& json_text, rt::Trace& out, std::string* err,
                         SolveReport* report) {
  out = rt::Trace{};
  if (report) *report = SolveReport{};
  json::Value root;
  if (!json::parse(json_text, root, err)) return false;
  // Accept both the bare event array and the {"traceEvents": [...]} wrapper
  // some tools write.
  const json::Value* events = &root;
  if (root.is_object()) {
    events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      if (err) *err = "no traceEvents array";
      return false;
    }
  }
  if (!events->is_array()) {
    if (err) *err = "top-level JSON is not an event array";
    return false;
  }

  std::unordered_map<std::string, int> kind_index;
  const auto kind_of = [&](const std::string& name) {
    const auto it = kind_index.find(name);
    if (it != kind_index.end()) return it->second;
    const int id = static_cast<int>(out.kind_names.size());
    kind_index.emplace(name, id);
    out.kind_names.push_back(name);
    out.kind_memory_bound.push_back(0);
    return id;
  };

  std::uint64_t synth_id = 1u << 20;  // ids for slices lacking args.task
  for (const json::Value& ev : events->array) {
    if (!ev.is_object()) continue;
    const std::string ph = ev.member_string("ph", "");
    const std::string name = ev.member_string("name", "");
    if (ph == "M") {
      if (name == "dnc_meta") {
        const json::Value* args = ev.find("args");
        if (args == nullptr) continue;
        if (!int_member(*args, "workers", out.workers, 0, out.workers, err)) return false;
        if (const json::Value* kinds = args->find("kinds"); kinds && kinds->is_array()) {
          for (const json::Value& k : kinds->array) {
            const int id = kind_of(k.member_string("name", "?"));
            out.kind_memory_bound[id] =
                k.find("memory_bound") && k.find("memory_bound")->bool_or(false) ? 1 : 0;
          }
        }
        if (const json::Value* idle = args->find("worker_idle"); idle && idle->is_array()) {
          for (const json::Value& v : idle->array) out.worker_idle.push_back(v.number_or(0.0));
        }
        if (!int_member(*args, "queue_depth_peak", out.queue_depth_peak, 0,
                        out.queue_depth_peak, err))
          return false;
        if (const json::Value* sc = args->find("sched_counters"); sc && sc->is_array()) {
          for (const json::Value& c : sc->array) {
            rt::WorkerSchedCounters wc;
            if (!int_member(c, "executed", 0, 0, wc.executed, err) ||
                !int_member(c, "local_pops", 0, 0, wc.local_pops, err) ||
                !int_member(c, "steals", 0, 0, wc.steals, err) ||
                !int_member(c, "steal_attempts", 0, 0, wc.steal_attempts, err) ||
                !int_member(c, "failed_steals", 0, 0, wc.failed_steals, err) ||
                !int_member(c, "placed", 0, 0, wc.placed, err))
              return false;
            out.sched_counters.push_back(wc);
          }
        }
        out.hwc_backend = args->member_string("hwc_backend", out.hwc_backend);
        if (const json::Value* hs = args->find("hwc_slots"); hs && hs->is_array()) {
          for (const json::Value& s : hs->array)
            out.hwc_slot_names.push_back(s.string_or(""));
        }
      } else if (name == "dnc_report") {
        const json::Value* args = ev.find("args");
        SolveReport parsed;
        std::string why = "no args";
        if (args == nullptr || !parse_solve_report_value(*args, parsed, &why)) {
          if (err) *err = "dnc_report: " + why;
          return false;
        }
        if (report) *report = std::move(parsed);
      } else if (name == "dnc_edges") {
        const json::Value* args = ev.find("args");
        const json::Value* edges = args ? args->find("edges") : nullptr;
        if (edges == nullptr || !edges->is_array()) continue;
        for (const json::Value& e : edges->array) {
          if (!e.is_array() || e.array.size() != 2) continue;
          std::uint64_t from = 0, to = 0;
          if (!int_member(e.array[0], "edges", 0, 0, from, err) ||
              !int_member(e.array[1], "edges", 0, 0, to, err))
            return false;
          out.edges.emplace_back(from, to);
        }
      }
      continue;
    }
    if (ph == "C") {
      const json::Value* args = ev.find("args");
      const bool steals = name == "steals_cumulative";
      if (args == nullptr || (!steals && name != "ready_queue_depth")) continue;
      rt::QueueSample q{sec(ev.member_number("ts", 0.0)), 0};
      if (!int_member(*args, steals ? "steals" : "depth", 0, 0, q.depth, err)) return false;
      (steals ? out.steal_samples : out.queue_samples).push_back(q);
      continue;
    }
    if (ph != "X") continue;  // flow events are re-derivable from dnc_edges
    rt::TraceEvent te;
    te.kind = kind_of(name.empty() ? "task" : name);
    if (!int_member(ev, "tid", 0, 0, te.worker, err)) return false;
    te.t_start = sec(ev.member_number("ts", 0.0));
    te.t_end = te.t_start + sec(ev.member_number("dur", 0.0));
    const json::Value* args = ev.find("args");
    if (args != nullptr) {
      if (!int_member(*args, "task", 0, 0, te.task_id, err)) return false;
      if (const json::Value* w = args->find("ready_wait_us"))
        te.t_ready = te.t_start - sec(w->number_or(0.0));
      if (!int_member(*args, "level", -1, kIntMin, te.level, err)) return false;
      if (!int_member(*args, "size", -1, -1, te.size, err) ||
          !int_member(*args, "panel", -1, -1, te.panel, err))
        return false;
      if (!int_member(*args, "prio", 0, kIntMin, te.priority, err)) return false;
      if (!int_member(*args, "parent", -1, -1, te.parent, err)) return false;
      te.nested = sec(args->member_number("nested_us", 0.0));
      if (const json::Value* h = args->find("hwc"); h && h->is_array()) {
        for (int s = 0; s < rt::kHwcSlots && s < static_cast<int>(h->array.size()); ++s)
          if (!int_member(h->array[s], "hwc", 0, 0, te.hwc[s], err)) return false;
      }
    }
    if (args == nullptr || args->find("task") == nullptr) te.task_id = synth_id++;
    out.events.push_back(te);
  }

  if (out.events.empty()) {
    if (err) *err = "trace contains no slice (ph:\"X\") events";
    return false;
  }
  if (out.workers == 0) {
    for (const auto& e : out.events) out.workers = std::max(out.workers, e.worker + 1);
  }
  return true;
}

bool load_perfetto_trace_file(const std::string& path, rt::Trace& out, std::string* err,
                              SolveReport* report) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return load_perfetto_trace(ss.str(), out, err, report);
}

}  // namespace dnc::obs
