#include "common/randlc.hpp"

namespace npb {

using namespace rng_detail;

void vranlc(std::size_t n, double& x, double a, double* y) noexcept {
  // Four leapfrog streams, one step apart, each advancing by a^4: the four
  // multiplies of an iteration are independent, so they overlap instead of
  // waiting on each other.  A tail of n mod 4 serial steps finishes the run.
  const std::uint64_t a1 = to_int(a);
  std::uint64_t s = to_int(x);
  std::size_t i = 0;
  if (n >= 4) {
    const std::uint64_t a2 = mul46(a1, a1);
    const std::uint64_t a4 = mul46(a2, a2);
    std::uint64_t st[4];
    for (auto& v : st) v = s = mul46(a1, s);
    for (;;) {
      for (int k = 0; k < 4; ++k) y[i + k] = kR46 * to_double(st[k]);
      if ((i += 4) + 4 > n) break;
      for (auto& v : st) v = mul46(a4, v);
    }
    s = st[3];
  }
  for (; i < n; ++i) {
    s = mul46(a1, s);
    y[i] = kR46 * to_double(s);
  }
  x = to_double(s);
}

double randlc_skip(double seed, double a, unsigned long long steps) noexcept {
  // Square-and-multiply: x <- a^steps * x (mod 2^46).
  std::uint64_t t = to_int(a);
  std::uint64_t x = to_int(seed);
  for (; steps != 0; steps >>= 1) {
    if (steps & 1ULL) x = mul46(t, x);
    t = mul46(t, t);
  }
  return to_double(x);
}

}  // namespace npb
