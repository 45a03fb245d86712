#include "obs/telemetry.hpp"

#include "obs/crash.hpp"
#include "obs/flight.hpp"
#include "obs/history.hpp"

namespace dnc::obs {

bool solve_telemetry_wanted() noexcept {
  return flight::enabled() || crash::enabled() || history::enabled();
}

void record_solve_telemetry(const SolveReport& report, const rt::Trace* trace) {
  history::append(report);
  flight::observe(report, trace);
  // The crash handlers install from the first observed solve: a process run
  // with only DNC_CRASH_DUMP set needs no other call site.
  if (crash::enabled()) crash::ensure_installed();
}

}  // namespace dnc::obs
