// One front door for every DNC_* environment knob.
//
// Historically each subsystem called std::getenv and hand-rolled its own
// parsing; this header centralises the typed getters. README's
// "Environment knob reference" table documents every knob (test_env checks
// it against the names the code reads). Getters re-read the
// environment on every call by design -- tests setenv() mid-process and
// expect the next solve to notice -- so subsystems that want
// parse-once-per-run semantics cache the result themselves at a lifecycle
// boundary (e.g. scheduler start) rather than per task.
#pragma once

#include <atomic>
#include <string>

namespace dnc::env {

/// Raw getenv: nullptr when unset. Prefer the typed getters below.
const char* raw(const char* name) noexcept;

/// True when the variable is set to a non-empty value.
bool is_set(const char* name) noexcept;

/// String value, or `dflt` when unset/empty.
std::string str(const char* name, const std::string& dflt = "");

/// Boolean knob: unset/empty returns `dflt`; "0"/"off"/"false"/"no" are
/// false, anything else is true (so DNC_X=1 and DNC_X=on both enable).
bool flag(const char* name, bool dflt = false) noexcept;

/// The on/off knob of one observability module (DNC_FLIGHT, DNC_HISTORY,
/// DNC_CRASH_DUMP), with one spelling rule for all of them:
///   unset, "", "0", "off", "false", "no"  -> off
///   "1", "on", "true", "yes"              -> on with the module's default
///   anything else                         -> on with that value (a path,
///                                            or prefix)
/// The module's `configure` hook gets the resolved value (nullptr = off),
/// reads its sub-knobs (e.g. DNC_FLIGHT_LATENCY) into its own state and
/// returns whether the module is on; it may refuse a value it cannot use.
/// The verdict is cached in a tri-state atomic, so after the first call
/// enabled() is one relaxed load and a branch. A hook must not run
/// enabled() of its own gate, and a module must not call enabled() while
/// holding a lock its hook takes.
class Gate {
 public:
  using Configure = bool (*)(const char* value);

  constexpr Gate(const char* name, const char* on_value, Configure configure) noexcept
      : name_(name), on_value_(on_value), configure_(configure) {}

  bool enabled() noexcept {
    const int s = state_.load(std::memory_order_relaxed);
    return s < 0 ? refresh() : s != 0;
  }

  /// Re-reads the variable and reconfigures the module (tests setenv
  /// mid-process). Returns the new verdict.
  bool refresh() noexcept;

 private:
  const char* name_;
  const char* on_value_;
  Configure configure_;
  std::atomic<int> state_{-1};  ///< -1 = not read yet, else 0 off / 1 on
};

/// Integer knob; returns `dflt` when unset or unparsable.
long integer(const char* name, long dflt) noexcept;

/// Floating-point knob; returns `dflt` when unset or unparsable.
double number(const char* name, double dflt) noexcept;

}  // namespace dnc::env
