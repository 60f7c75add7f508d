// IEEE 754 binary16 ("half", Ascend float16) implemented from scratch.
//
// The Ascend cube unit consumes float16 operands and accumulates into
// float32; the vector unit operates on float16 directly. This type gives the
// simulator bit-exact float16 storage semantics: every arithmetic operation
// promotes to float, computes, and rounds back to the nearest representable
// binary16 value (round-to-nearest-even), including subnormals, infinities
// and NaN propagation.
//
// Conversion is the hottest single operation in the whole simulator (every
// emulated vector/cube lane crosses half<->float at least twice), so both
// directions are inline here and use the F16C hardware instructions when
// the translation unit is compiled with them available (-mf16c, wired up by
// the top-level CMake when the compiler supports it). The portable
// bit-twiddling implementations are kept — as the fallback, and under the
// *_portable names so tests can pin hardware/software bit-equivalence
// (tests/test_half.cpp runs the exhaustive h->f sweep and a stratified
// f->h sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__F16C__)
#include <immintrin.h>
#define ASCEND_HALF_HW 1
#endif

namespace ascend {

namespace detail {

inline std::uint32_t float_bits(float f) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}
inline float bits_float(std::uint32_t u) noexcept {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Software binary32 -> binary16 with round-to-nearest-even, bit-exact
/// against the F16C hardware conversion (pinned by tests).
inline std::uint16_t float_to_half_bits_portable(float f) noexcept {
  const std::uint32_t u = float_bits(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  const std::uint32_t abs = u & 0x7fffffffu;

  if (abs >= 0x7f800000u) {  // Inf or NaN
    if (abs > 0x7f800000u) {
      // NaN: keep top mantissa bits, force quiet bit so payload is non-zero.
      std::uint32_t mant = (abs & 0x007fffffu) >> 13;
      return static_cast<std::uint16_t>(sign | 0x7c00u | mant | 0x0200u);
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x477ff000u) {
    // Overflows half range after rounding (>= 65520 rounds to inf).
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  int exp = static_cast<int>((abs >> 23)) - 127;  // unbiased exponent
  std::uint32_t mant = abs & 0x007fffffu;

  if (exp < -24) {
    // Too small: rounds to signed zero (values >= 2^-25 with mantissa may
    // round up to the smallest subnormal; check the boundary).
    if (exp == -25 && mant != 0) {
      return static_cast<std::uint16_t>(sign | 1u);  // round up to 2^-24
    }
    return static_cast<std::uint16_t>(sign);
  }
  if (exp < -14) {
    // Subnormal half. Implicit leading 1 becomes explicit.
    mant |= 0x00800000u;
    const int shift = -exp - 14 + 13;  // bits to drop (14..24)
    const std::uint32_t dropped = mant & ((1u << shift) - 1u);
    std::uint32_t result = mant >> shift;
    const std::uint32_t halfway = 1u << (shift - 1);
    if (dropped > halfway || (dropped == halfway && (result & 1u))) ++result;
    return static_cast<std::uint16_t>(sign | result);
  }

  // Normal half. Round mantissa from 23 to 10 bits (RNE).
  std::uint32_t result =
      static_cast<std::uint32_t>(exp + 15) << 10 | (mant >> 13);
  const std::uint32_t dropped = mant & 0x1fffu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (result & 1u))) ++result;
  // Mantissa carry may overflow into the exponent; that is correct
  // behaviour (e.g. rounding 2047.5 ulps up to the next binade), and may
  // produce inf for the largest values.
  return static_cast<std::uint16_t>(sign | result);
}

/// Software binary16 -> binary32 (exact; every half is representable).
inline float half_bits_to_float_portable(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x03ffu;

  if (exp == 0) {
    if (mant == 0) return bits_float(sign);  // signed zero
    // Subnormal: normalise.
    int e = -1;
    do {
      ++e;
      mant <<= 1;
    } while ((mant & 0x0400u) == 0);
    mant &= 0x03ffu;
    const std::uint32_t fexp = static_cast<std::uint32_t>(127 - 15 - e);
    return bits_float(sign | (fexp << 23) | (mant << 13));
  }
  if (exp == 0x1fu) {  // inf / NaN
    // NaN payloads are widened into the top mantissa bits with the quiet
    // bit forced, matching VCVTPH2PS (IEEE convertFormat quietens
    // signaling NaNs; already-quiet payloads carry the bit anyway).
    const std::uint32_t quiet = mant != 0 ? 0x00400000u : 0u;
    return bits_float(sign | 0x7f800000u | quiet | (mant << 13));
  }
  return bits_float(sign | ((exp - 15 + 127) << 23) | (mant << 13));
}

inline std::uint16_t float_to_half_bits(float f) noexcept {
#if defined(ASCEND_HALF_HW)
  // VCVTPS2PH with RNE: identical rounding, subnormal and NaN-quieting
  // behaviour to the portable path (MXCSR DAZ/FTZ are never enabled in
  // this process).
  return static_cast<std::uint16_t>(_mm_extract_epi16(
      _mm_cvtps_ph(_mm_set_ss(f), _MM_FROUND_TO_NEAREST_INT |
                                      _MM_FROUND_NO_EXC),
      0));
#else
  return float_to_half_bits_portable(f);
#endif
}

inline float half_bits_to_float(std::uint16_t h) noexcept {
#if defined(ASCEND_HALF_HW)
  return _mm_cvtss_f32(
      _mm_cvtph_ps(_mm_cvtsi32_si128(static_cast<int>(h))));
#else
  return half_bits_to_float_portable(h);
#endif
}

}  // namespace detail

class half {
 public:
  half() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors built-in float
  // conversions so kernels can mix half and float naturally.
  half(float f) noexcept : bits_(detail::float_to_half_bits(f)) {}
  explicit half(double d) noexcept : half(static_cast<float>(d)) {}
  explicit half(int i) noexcept : half(static_cast<float>(i)) {}

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator float() const noexcept { return detail::half_bits_to_float(bits_); }

  static half from_bits(std::uint16_t b) noexcept {
    half h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const noexcept { return bits_; }

  half& operator+=(half o) noexcept { return *this = half(float(*this) + float(o)); }
  half& operator-=(half o) noexcept { return *this = half(float(*this) - float(o)); }
  half& operator*=(half o) noexcept { return *this = half(float(*this) * float(o)); }
  half& operator/=(half o) noexcept { return *this = half(float(*this) / float(o)); }

  friend half operator+(half a, half b) noexcept { return half(float(a) + float(b)); }
  friend half operator-(half a, half b) noexcept { return half(float(a) - float(b)); }
  friend half operator*(half a, half b) noexcept { return half(float(a) * float(b)); }
  friend half operator/(half a, half b) noexcept { return half(float(a) / float(b)); }
  friend half operator-(half a) noexcept { return half(-float(a)); }

  friend bool operator==(half a, half b) noexcept { return float(a) == float(b); }
  friend bool operator!=(half a, half b) noexcept { return float(a) != float(b); }
  friend bool operator<(half a, half b) noexcept { return float(a) < float(b); }
  friend bool operator<=(half a, half b) noexcept { return float(a) <= float(b); }
  friend bool operator>(half a, half b) noexcept { return float(a) > float(b); }
  friend bool operator>=(half a, half b) noexcept { return float(a) >= float(b); }

  bool isnan() const noexcept {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  bool isinf() const noexcept { return (bits_ & 0x7fffu) == 0x7c00u; }

  static half max() noexcept { return from_bits(0x7bffu); }       // 65504
  static half lowest() noexcept { return from_bits(0xfbffu); }    // -65504
  static half infinity() noexcept { return from_bits(0x7c00u); }
  static half quiet_nan() noexcept { return from_bits(0x7e00u); }
  static half epsilon() noexcept { return from_bits(0x1400u); }   // 2^-10

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be 2 bytes");

// ---------------------------------------------------------------------------
// Bulk conversions. The simulator's emulated vector/cube loops cross
// half<->float for whole tiles at a time; converting 8 lanes per instruction
// (VCVTPH2PS / VCVTPS2PH) instead of one keeps the emulation off the
// conversion bottleneck. Bit-identical to converting element by element.
// The 8-lane loops run to n rounded down to a multiple of 8 rather than
// testing `i + 8 <= n`: that unsigned sum may wrap, so the compiler cannot
// bound the loop's exit index by n, and in inlined copies with a constant n
// it analysed a scalar tail whose trip count n - i underflows to ~2^63.

/// dst[i] = float(src[i]) for i in [0, n).
inline void half_to_float_n(const half* src, float* dst,
                            std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(ASCEND_HALF_HW) && defined(__AVX2__)
  for (const std::size_t n8 = n - n % 8; i < n8; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

/// dst[i] = half(src[i]) for i in [0, n), rounding to nearest even.
inline void float_to_half_n(const float* src, half* dst,
                            std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(ASCEND_HALF_HW) && defined(__AVX2__)
  for (const std::size_t n8 = n - n % 8; i < n8; i += 8) {
    const __m128i h = _mm256_cvtps_ph(
        _mm256_loadu_ps(src + i),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
#endif
  for (; i < n; ++i) dst[i] = half(src[i]);
}

}  // namespace ascend
