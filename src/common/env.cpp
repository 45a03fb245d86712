#include "common/env.hpp"

#include <cstdlib>
#include <cstring>

namespace dnc::env {

const char* raw(const char* name) noexcept { return std::getenv(name); }

bool is_set(const char* name) noexcept {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

std::string str(const char* name, const std::string& dflt) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : dflt;
}

namespace {

bool is_one_of(const char* v, const char* const (&words)[4]) noexcept {
  for (const char* w : words)
    if (std::strcmp(v, w) == 0) return true;
  return false;
}

constexpr const char* kOff[] = {"0", "off", "false", "no"};
constexpr const char* kOn[] = {"1", "on", "true", "yes"};

}  // namespace

bool flag(const char* name, bool dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return !is_one_of(v, kOff);
}

bool Gate::refresh() noexcept {
  const char* v = std::getenv(name_);
  if (v == nullptr || *v == '\0' || is_one_of(v, kOff))
    v = nullptr;
  else if (is_one_of(v, kOn))
    v = on_value_;
  const bool on = configure_(v);
  state_.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

long integer(const char* name, long dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return end != v ? parsed : dflt;
}

double number(const char* name, double dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end != v ? parsed : dflt;
}

}  // namespace dnc::env
