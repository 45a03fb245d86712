// Last-gasp crash dump: fatal-signal handlers that flush the observability
// state an operator would otherwise lose with the process.
//
// The metrics registry and flight recorder export on *clean* exit
// (atexit); a SIGSEGV throws all of that away exactly when it is
// most wanted. With DNC_CRASH_DUMP=<path> set, handlers for SIGSEGV,
// SIGBUS, SIGABRT and SIGFPE best-effort write
//   <path>          crash header (signal, pid, git commit) + Prometheus
//                   text of the final metrics scrape (left out when the
//                   registry mutex is held)
//   <path>.jsonl    the flight-recorder reports of the solve ring (one
//                   report per line; see obs/flight)
// then restore the default disposition and re-raise, so the exit status /
// core dump behaviour of the process is unchanged.
//
// Honesty about limits: the dump path calls non-async-signal-safe code
// (malloc under scrape()/string building). After a heap corruption that can
// itself crash -- a reentry guard turns the second fault into an immediate
// re-raise, and the handler only try-locks the metrics and flight mutexes,
// so the worst case is "no dump", never a hang or loop. For the
// dominant crash classes (null deref, OOB index, assert/abort) the heap is
// intact and the dump succeeds.
//
// Knob:
//   DNC_CRASH_DUMP  unset or an off spelling = no handlers installed;
//                   1/on/true/yes = "dnc_crash.%p.txt"; otherwise the dump
//                   file path (%p expands to the pid when the env is read).
//
// Installation is lazy (first record_solve_telemetry / explicit
// ensure_installed) and idempotent.
#pragma once

#include <string>

namespace dnc::obs::crash {

/// True when DNC_CRASH_DUMP configures a dump path (an env::Gate: read
/// once, cached).
bool enabled() noexcept;
/// Re-reads DNC_CRASH_DUMP (tests setenv mid-process). Does not uninstall
/// already-installed handlers; they consult the refreshed path.
void refresh_from_env() noexcept;

/// Installs the signal handlers when enabled; safe to call repeatedly.
/// Returns true when handlers are (now) installed.
bool ensure_installed();

/// Expanded dump path ("" when disabled).
std::string dump_path();

/// The dump body builder, exposed for tests: crash header + metrics
/// Prometheus text (when the metrics mutex is free). `sig` 0 renders "test" as the signal name.
std::string dump_text(int sig);

}  // namespace dnc::obs::crash
