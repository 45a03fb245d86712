// Solve-precision selection shared by the D&C and MRRR drivers.
//
// Two working precisions are exposed through Options / the DNC_PREC
// environment knob:
//   F64           classic IEEE double solve (default, matches the paper)
//   F32           full solve in IEEE float: 8-lane AVX2 kernels, half the
//                 memory traffic, fp32-grade accuracy
// F32RefineF64 is an alias of F64: every driver solves it exactly as F64
// and reports it as "f64". The constant stays for callers that name it.
#pragma once

#include <cstring>

#include "common/env.hpp"

namespace dnc {

enum class Precision { F64, F32, F32RefineF64 };

/// Canonical spelling, also the accepted DNC_PREC values.
inline const char* precision_name(Precision p) noexcept {
  return p == Precision::F32 ? "f32" : "f64";
}

/// Parses a DNC_PREC-style spelling; unknown strings map to F64.
inline Precision parse_precision(const char* s) noexcept {
  if (s == nullptr) return Precision::F64;
  if (std::strcmp(s, "f32") == 0 || std::strcmp(s, "fp32") == 0 ||
      std::strcmp(s, "single") == 0)
    return Precision::F32;
  return Precision::F64;
}

/// Default for Options::precision: $DNC_PREC, read at each Options
/// construction so tests can setenv() mid-process.
inline Precision default_precision() noexcept {
  return parse_precision(env::raw("DNC_PREC"));
}

}  // namespace dnc
