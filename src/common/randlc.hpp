#pragma once

#include <cstddef>
#include <cstdint>

namespace npb {

namespace rng_detail {

inline constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;
inline constexpr double kR46 = 0x1p-46;

// Signed casts: cheaper than unsigned ones, and every value is below 2^46.
inline std::uint64_t to_int(double v) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}
inline double to_double(std::uint64_t v) noexcept {
  return static_cast<double>(static_cast<std::int64_t>(v));
}
inline std::uint64_t mul46(std::uint64_t a, std::uint64_t x) noexcept {
  return (a * x) & kMask46;
}

}  // namespace rng_detail

/// The NPB pseudorandom number generator: the linear congruential recurrence
///   x_{k+1} = a * x_k  (mod 2^46)
/// evaluated on 64-bit integers.  The product a * x is exact mod 2^64, and
/// 2^46 divides 2^64, so keeping its low 46 bits gives the Fortran RANDLC
/// sequence (the double-split form) bit for bit, which is what makes NPB
/// workloads reproducible across languages.
///
/// Input contract, for randlc, vranlc and randlc_skip: the seed `x` and the
/// multiplier `a` are integer-valued doubles in [0, 2^46), the domain on which
/// the double-split form was exact.  Outside it the result is not the NPB
/// sequence, and for a value that does not fit in int64_t the double-to-
/// integer conversion is undefined behaviour.
///
/// randlc advances `x` in place to a * x (mod 2^46) and returns the new
/// x * 2^-46, a value in (0, 1) for a non-zero seed and an odd multiplier.
inline double randlc(double& x, double a) noexcept {
  using namespace rng_detail;
  x = to_double(mul46(to_int(a), to_int(x)));
  return kR46 * x;
}

/// Generates `n` consecutive randlc values into y[0..n), advancing `x`.
void vranlc(std::size_t n, double& x, double a, double* y) noexcept;

/// Returns the seed advanced by `steps` randlc steps without generating the
/// values in between (NPB's ipow46 idiom, used by EP, FT and IS to give each
/// thread or block its own offset into one stream).
double randlc_skip(double seed, double a, unsigned long long steps) noexcept;

/// Default NPB seed and multiplier (5^13).
inline constexpr double kDefaultSeed = 314159265.0;
inline constexpr double kDefaultMultiplier = 1220703125.0;

}  // namespace npb
