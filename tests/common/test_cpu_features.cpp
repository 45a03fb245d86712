#include "common/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/aligned_buffer.hpp"

namespace dnc {
namespace {

TEST(CpuFeatures, DetectIsStableAndNamed) {
  const SimdIsa a = detect_simd_isa();
  EXPECT_EQ(a, detect_simd_isa());  // cached, never flips
  EXPECT_NE(simd_isa_name(a), nullptr);
  EXPECT_GT(std::strlen(simd_isa_name(a)), 0u);
}

TEST(CpuFeatures, NamesRoundTripThroughParse) {
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    SimdIsa parsed;
    ASSERT_TRUE(parse_simd_isa(simd_isa_name(isa), parsed));
    EXPECT_EQ(parsed, isa);
  }
}

TEST(CpuFeatures, RequestedNeverExceedsHardware) {
  // Whatever DNC_SIMD says, the request is clamped by the probe.
  EXPECT_LE(static_cast<int>(requested_simd_isa()), static_cast<int>(detect_simd_isa()));
}

TEST(AlignedBuffer, ReturnsAlignedGrowOnlyStorage) {
  AlignedBuffer buf;
  EXPECT_EQ(buf.capacity(), 0u);
  double* p = buf.reserve(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % AlignedBuffer::kAlignment, 0u);
  EXPECT_GE(buf.capacity(), 100u);
  // Shrinking requests keep the same storage.
  EXPECT_EQ(buf.reserve(10), p);
  // Growth still returns aligned storage and updates capacity.
  double* q = buf.reserve(100000);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % AlignedBuffer::kAlignment, 0u);
  EXPECT_GE(buf.capacity(), 100000u);
  // The full reserved range must be writable (ASan would trip otherwise).
  for (std::size_t i = 0; i < 100000; ++i) q[i] = 1.0;
}

}  // namespace
}  // namespace dnc
