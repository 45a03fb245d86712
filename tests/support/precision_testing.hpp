// Precision-aware tolerances for tests that run the solvers through
// Options::precision (and therefore honour DNC_PREC).
//
// The numerical suites are calibrated against fp64 machine epsilon. When the
// whole suite re-runs under DNC_PREC=f32 (see tests/CMakeLists.txt) every
// residual grows by eps32/eps64.
#pragma once

#include <gtest/gtest.h>

#include <limits>

#include "common/precision.hpp"

namespace dnc::test_support {

/// Machine epsilon of the precision the solve's *results* are accurate to:
/// fp32 eps under DNC_PREC=f32, fp64 eps otherwise.
inline double result_eps() {
  return default_precision() == Precision::F32
             ? static_cast<double>(std::numeric_limits<float>::epsilon())
             : std::numeric_limits<double>::epsilon();
}

/// Multiplier for tolerances written as fp64 literals (1e-13 and friends):
/// 1 under f64, eps32/eps64 (~5.4e8) under f32.
inline double tol_scale() {
  return result_eps() / std::numeric_limits<double>::epsilon();
}

}  // namespace dnc::test_support
