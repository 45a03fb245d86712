// Error handling utilities shared by all dnc libraries.
//
// Numerical routines report convergence failures through dnc::NumericalError
// (carrying a LAPACK-style info code); precondition violations throw
// dnc::InvalidArgument. Hot loops use DNC_ASSERT, which compiles away in
// release builds unless DNC_ENABLE_ASSERTS is defined.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/real_traits.hpp"

namespace dnc {

/// Thrown when a caller violates a documented precondition.
class InvalidArgument : public std::invalid_argument {
 public:
  explicit InvalidArgument(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown when an iterative numerical method fails to converge.
/// `info` follows LAPACK conventions (index of the failing element/block).
class NumericalError : public std::runtime_error {
 public:
  NumericalError(const std::string& what, long info_code)
      : std::runtime_error(what + " (info=" + std::to_string(info_code) + ")"), info(info_code) {}
  long info;
};

#define DNC_REQUIRE(cond, msg)                  \
  do {                                          \
    if (!(cond)) throw ::dnc::InvalidArgument(msg); \
  } while (0)

/// The input contract of the public solvers: every entry of the fp64
/// tridiagonal (d[0..n), e[0..n-1)) is finite. Checked once on entry,
/// before any task runs, so a bad input raises InvalidArgument (naming
/// `who` and the first bad entry) instead of failing inside a task body.
inline void require_finite(const char* who, std::ptrdiff_t n, const double* d, const double* e) {
  if (n < 0) throw InvalidArgument(std::string(who) + ": n must be >= 0");
  for (std::ptrdiff_t i = 0; i < n; ++i)
    if (!std::isfinite(d[i]) || (i + 1 < n && !std::isfinite(e[i])))
      throw InvalidArgument(std::string(who) + ": non-finite entry in " +
                            (std::isfinite(d[i]) ? "e[" : "d[") + std::to_string(i) + "]");
}

/// dstemr's scaling: the power of two (so exact) that brings tnrm = max|T|
/// of a finite fp64 tridiagonal into [sqrt(safmin/prec),
/// min(sqrt(prec/safmin), safmin^(-1/4))] at the working precision Real;
/// 1 when tnrm already lies there or is 0. A finite T scaled by it solves
/// without over- or underflow, and narrows to fp32 without either.
template <typename Real>
double range_scale(double tnrm) {
  const double safmin = real_traits<Real>::safmin();
  const double prec = real_traits<Real>::prec();
  const double rmin = std::sqrt(safmin / prec);
  const double rmax = std::min(std::sqrt(prec / safmin), 1.0 / std::sqrt(std::sqrt(safmin)));
  if (tnrm > 0.0 && tnrm < rmin) return std::ldexp(1.0, std::ilogb(rmin / tnrm) + 1);
  if (tnrm > rmax && std::isfinite(tnrm)) return std::ldexp(1.0, std::ilogb(rmax / tnrm));
  return 1.0;
}

#if defined(DNC_ENABLE_ASSERTS) || !defined(NDEBUG)
#define DNC_ASSERT(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      throw ::dnc::InvalidArgument(std::string("assertion failed: ") + #cond + \
                                   " at " + __FILE__ + ":" + std::to_string(__LINE__)); \
  } while (0)
#else
#define DNC_ASSERT(cond) ((void)0)
#endif

}  // namespace dnc
