#include "runtime/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace dnc::rt {

double Trace::makespan() const {
  double t0 = 0.0, t1 = 0.0;
  bool first = true;
  for (const auto& e : events) {
    if (e.worker < 0) continue;  // never executed
    if (first) {
      t0 = e.t_start;
      t1 = e.t_end;
      first = false;
    } else {
      t0 = std::min(t0, e.t_start);
      t1 = std::max(t1, e.t_end);
    }
  }
  return first ? 0.0 : t1 - t0;
}

double Trace::total_busy() const {
  double s = 0.0;
  for (const auto& e : events) {
    if (e.worker < 0) continue;  // consistent with makespan()
    s += e.self_duration();
  }
  return s;
}

double Trace::efficiency() const {
  const double span = makespan();
  if (span <= 0.0 || workers <= 0) return 1.0;
  return total_busy() / (span * workers);
}

std::vector<double> Trace::busy_by_kind() const {
  std::vector<double> acc(kind_names.size(), 0.0);
  for (const auto& e : events) {
    if (e.worker < 0) continue;
    if (e.kind >= 0 && e.kind < static_cast<int>(acc.size())) acc[e.kind] += e.self_duration();
  }
  return acc;
}

std::string Trace::ascii_gantt(int width) const {
  width = std::max(width, 1);
  bool any = false;
  double t0 = 0.0, t1 = 0.0;
  for (const auto& e : events) {
    if (e.worker < 0) continue;
    if (!any) {
      t0 = e.t_start;
      t1 = e.t_end;
      any = true;
    } else {
      t0 = std::min(t0, e.t_start);
      t1 = std::max(t1, e.t_end);
    }
  }
  if (!any || workers <= 0) return "(empty trace)\n";
  const double span = std::max(t1 - t0, 1e-12);
  // For each worker row, pick for every column the kind occupying the most
  // of that time slice.
  std::string out;
  for (int w = 0; w < workers; ++w) {
    std::vector<std::vector<double>> per_kind(kind_names.size(),
                                              std::vector<double>(width, 0.0));
    for (const auto& e : events) {
      if (e.worker != w) continue;
      const double a = (e.t_start - t0) / span * width;
      const double b = (e.t_end - t0) / span * width;
      const int ca = std::clamp(static_cast<int>(a), 0, width - 1);
      const int cb = std::clamp(static_cast<int>(b), 0, width - 1);
      for (int ccol = ca; ccol <= cb; ++ccol) {
        const double lo = std::max(a, static_cast<double>(ccol));
        const double hi = std::min(b, static_cast<double>(ccol + 1));
        if (hi > lo && e.kind >= 0) per_kind[e.kind][ccol] += hi - lo;
      }
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "w%02d |", w);
    out += buf;
    for (int ccol = 0; ccol < width; ++ccol) {
      int best = -1;
      double bv = 0.0;
      for (std::size_t k = 0; k < per_kind.size(); ++k) {
        if (per_kind[k][ccol] > bv) {
          bv = per_kind[k][ccol];
          best = static_cast<int>(k);
        }
      }
      if (best < 0 || bv < 0.05) {
        out += '.';
      } else {
        const std::string& nm = kind_names[best];
        out += nm.empty() ? '?' : nm[0];
      }
    }
    out += "|\n";
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "time axis: %.6f s total; '.' = idle\n", span);
  out += buf;
  return out;
}

std::string Trace::kernel_summary() const {
  const auto acc = busy_by_kind();
  std::vector<long> counts(kind_names.size(), 0);
  for (const auto& e : events) {
    if (e.worker < 0) continue;
    if (e.kind >= 0 && e.kind < static_cast<int>(counts.size())) ++counts[e.kind];
  }
  const double busy = std::max(total_busy(), 1e-12);
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-22s %8s %12s %7s\n", "kernel", "count", "time(s)", "%busy");
  out += buf;
  for (std::size_t k = 0; k < kind_names.size(); ++k) {
    if (counts[k] == 0) continue;
    std::snprintf(buf, sizeof buf, "%-22s %8ld %12.6f %6.1f%%\n", kind_names[k].c_str(),
                  counts[k], acc[k], 100.0 * acc[k] / busy);
    out += buf;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

double Trace::meta_counter(const std::string& name) const {
  for (const auto& [k, v] : meta_counters)
    if (k == name) return v;
  return 0.0;
}

std::string Trace::meta_string(const std::string& name) const {
  for (const auto& [k, v] : meta_strings)
    if (k == name) return v;
  return "";
}

}  // namespace dnc::rt
