#include "obs/trace_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/json.hpp"

namespace dnc::obs {
namespace {

inline double sec(double microseconds) { return microseconds * 1e-6; }

}  // namespace

bool load_perfetto_trace(const std::string& json_text, rt::Trace& out, std::string* err) {
  out = rt::Trace{};
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
        out.workers = static_cast<int>(args->member_number("workers", out.workers));
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
        out.queue_depth_peak =
            static_cast<int>(args->member_number("queue_depth_peak", out.queue_depth_peak));
        if (const json::Value* sc = args->find("sched_counters"); sc && sc->is_array()) {
          for (const json::Value& c : sc->array) {
            rt::WorkerSchedCounters wc;
            wc.executed = static_cast<long>(c.member_number("executed", 0.0));
            wc.local_pops = static_cast<long>(c.member_number("local_pops", 0.0));
            wc.steals = static_cast<long>(c.member_number("steals", 0.0));
            wc.steal_attempts = static_cast<long>(c.member_number("steal_attempts", 0.0));
            wc.failed_steals = static_cast<long>(c.member_number("failed_steals", 0.0));
            wc.placed = static_cast<long>(c.member_number("placed", 0.0));
            wc.steals_same_l3 = static_cast<long>(c.member_number("steals_same_l3", 0.0));
            wc.steals_same_socket =
                static_cast<long>(c.member_number("steals_same_socket", 0.0));
            wc.steals_cross_socket =
                static_cast<long>(c.member_number("steals_cross_socket", 0.0));
            out.sched_counters.push_back(wc);
          }
        }
        out.hwc_backend = args->member_string("hwc_backend", out.hwc_backend);
        if (const json::Value* hs = args->find("hwc_slots"); hs && hs->is_array()) {
          for (const json::Value& s : hs->array)
            out.hwc_slot_names.push_back(s.string_or(""));
        }
        if (const json::Value* mc = args->find("meta_counters"); mc && mc->is_object()) {
          for (const auto& [key, val] : mc->object)
            out.meta_counters.emplace_back(key, val.number_or(0.0));
        }
        if (const json::Value* ms = args->find("meta_strings"); ms && ms->is_object()) {
          for (const auto& [key, val] : ms->object)
            out.meta_strings.emplace_back(key, val.string_or(""));
        }
      } else if (name == "dnc_edges") {
        const json::Value* args = ev.find("args");
        const json::Value* edges = args ? args->find("edges") : nullptr;
        if (edges == nullptr || !edges->is_array()) continue;
        for (const json::Value& e : edges->array) {
          if (!e.is_array() || e.array.size() != 2) continue;
          out.edges.emplace_back(static_cast<std::uint64_t>(e.array[0].number_or(0)),
                                 static_cast<std::uint64_t>(e.array[1].number_or(0)));
        }
      }
      continue;
    }
    if (ph == "C") {
      const json::Value* args = ev.find("args");
      if (name == "ready_queue_depth") {
        out.queue_samples.push_back(
            {sec(ev.member_number("ts", 0.0)),
             args ? static_cast<int>(args->member_number("depth", 0.0)) : 0});
      } else if (name == "steals_cumulative") {
        out.steal_samples.push_back(
            {sec(ev.member_number("ts", 0.0)),
             args ? static_cast<int>(args->member_number("steals", 0.0)) : 0});
      }
      continue;
    }
    if (ph != "X") continue;  // flow events are re-derivable from dnc_edges
    rt::TraceEvent te;
    te.kind = kind_of(name.empty() ? "task" : name);
    te.worker = static_cast<int>(ev.member_number("tid", 0.0));
    te.t_start = sec(ev.member_number("ts", 0.0));
    te.t_end = te.t_start + sec(ev.member_number("dur", 0.0));
    const json::Value* args = ev.find("args");
    if (args != nullptr) {
      te.task_id = static_cast<std::uint64_t>(args->member_number("task", 0.0));
      if (const json::Value* w = args->find("ready_wait_us"))
        te.t_ready = te.t_start - sec(w->number_or(0.0));
      te.level = static_cast<int>(args->member_number("level", -1.0));
      te.size = static_cast<long>(args->member_number("size", -1.0));
      te.panel = static_cast<long>(args->member_number("panel", -1.0));
      te.priority = static_cast<int>(args->member_number("prio", 0.0));
      te.parent = static_cast<long long>(args->member_number("parent", -1.0));
      te.nested = sec(args->member_number("nested_us", 0.0));
      if (const json::Value* h = args->find("hwc"); h && h->is_array()) {
        for (int s = 0; s < rt::kHwcSlots && s < static_cast<int>(h->array.size()); ++s)
          te.hwc[s] = static_cast<std::uint64_t>(h->array[s].number_or(0.0));
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

bool load_perfetto_trace_file(const std::string& path, rt::Trace& out, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return load_perfetto_trace(ss.str(), out, err);
}

}  // namespace dnc::obs
