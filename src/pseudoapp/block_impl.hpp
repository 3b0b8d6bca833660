#pragma once

// 5x5 block primitives operating inside flat policy-checked workspaces —
// the analogues of NPB BT/LU's matvec_sub, matmul_sub, binvcrhs.  A "block"
// is 25 consecutive doubles (row-major) at `base`; a "vector" is 5.
//
// Every primitive is force-inlined into its caller.  Their fixed 5-wide
// loops go through NPB_FIXED_FOR: under an unchecked policy (native, the
// f77 -O3 stand-in) they are fully unrolled, so a block's operands live in
// registers with constant offsets; under a checked policy (java) they stay
// rolled, as a 1.1-1.3-era JIT could not unroll across its bounds tests.
// Either way each element sees the same operations in the same order, so
// the two shapes are bitwise equal.

#include <cmath>

#include "array/array.hpp"
#include "pseudoapp/system.hpp"

/// `for header { body }`, fully unrolled when the access policy P is
/// unchecked and left rolled when it is checked.  `header` is the
/// parenthesized loop header; its trip count must be at most 5.  The
/// branch is chosen by `if constexpr` on P, so every instantiation has one
/// definition whatever the TU's flags (the pragma needs a literal count).
#define NPB_FIXED_FOR(P, header, ...)                  \
  if constexpr (P::kChecked) {                         \
    for header { __VA_ARGS__ }                         \
  } else {                                             \
    _Pragma("GCC unroll 5") for header { __VA_ARGS__ } \
  }

namespace npb::pseudoapp {

/// Element i of the block at offset `base` of a checked array: each access
/// indexes the array itself, one bounds test against its whole length.
template <class A>
struct CheckedBlock {
  A& a;
  std::size_t base;
  decltype(auto) operator[](std::size_t i) const { return a[base + i]; }
};

/// The 5-vector or 5x5 block at offset `base` of `a`.  Unchecked, a raw
/// pointer: the offset is resolved once and the unrolled kernel addresses
/// every element at a constant displacement.  Checked, a view that keeps
/// the array's per-access bounds test.
template <class P, class A>
auto block_at(A& a, std::size_t base) {
  if constexpr (P::kChecked)
    return CheckedBlock<A>{a, base};
  else
    return &a[base];
}

/// y[yb..yb+5) -= A[ab..] * x[xb..xb+5)
template <class P, class AA, class AX, class AY>
[[gnu::always_inline]] inline void mv5_sub(const AA& a, std::size_t ab, const AX& x,
                                           std::size_t xb, AY& y, std::size_t yb) {
  const auto A = block_at<P>(a, ab);
  const auto X = block_at<P>(x, xb);
  const auto Y = block_at<P>(y, yb);
  NPB_FIXED_FOR(P, (int i = 0; i < kComps; ++i), {
    double s = 0.0;
    NPB_FIXED_FOR(P, (int j = 0; j < kComps; ++j), {
      s += A[i * kComps + j] * X[j];
      P::muladds(1);
    })
    Y[i] -= s;
    P::flops(11);
  })
}

/// C[cb..] -= A[ab..] * B[bb..]
template <class P, class AA, class AB, class AC>
[[gnu::always_inline]] inline void mm5_sub(const AA& a, std::size_t ab, const AB& b,
                                           std::size_t bb, AC& c, std::size_t cb) {
  const auto A = block_at<P>(a, ab);
  const auto B = block_at<P>(b, bb);
  const auto C = block_at<P>(c, cb);
  NPB_FIXED_FOR(P, (int i = 0; i < kComps; ++i), {
    NPB_FIXED_FOR(P, (int j = 0; j < kComps; ++j), {
      double s = 0.0;
      NPB_FIXED_FOR(P, (int k = 0; k < kComps; ++k), {
        s += A[i * kComps + k] * B[k * kComps + j];
        P::muladds(1);
      })
      C[i * kComps + j] -= s;
      P::flops(11);
    })
  })
}

/// In-place LU factorization (Doolittle, no pivoting — the diagonal blocks
/// of these solvers are strongly diagonally dominant) of the block at ab.
template <class P, class AA>
[[gnu::always_inline]] inline void lu5_factor(AA& a, std::size_t ab) {
  const auto A = block_at<P>(a, ab);
  NPB_FIXED_FOR(P, (int k = 0; k < kComps; ++k), {
    const double pivot = 1.0 / A[k * kComps + k];
    NPB_FIXED_FOR(P, (int i = k + 1; i < kComps; ++i), {
      const double lik = A[i * kComps + k] * pivot;
      A[i * kComps + k] = lik;
      NPB_FIXED_FOR(P, (int j = k + 1; j < kComps; ++j), {
        A[i * kComps + j] -= lik * A[k * kComps + j];
        P::muladds(1);
      })
      P::flops(10);
    })
  })
}

/// x[xb..xb+5) = A^{-1} x using the factored block at ab.
template <class P, class AA, class AX>
[[gnu::always_inline]] inline void lu5_solve_vec(const AA& a, std::size_t ab, AX& x,
                                                 std::size_t xb) {
  const auto A = block_at<P>(a, ab);
  const auto X = block_at<P>(x, xb);
  NPB_FIXED_FOR(P, (int i = 1; i < kComps; ++i), {
    double s = X[i];
    NPB_FIXED_FOR(P, (int j = 0; j < i; ++j), {
      s -= A[i * kComps + j] * X[j];
      P::muladds(1);
    })
    X[i] = s;
    P::flops(2 * i);
  })
  NPB_FIXED_FOR(P, (int i = kComps - 1; i >= 0; --i), {
    double s = X[i];
    NPB_FIXED_FOR(P, (int j = i + 1; j < kComps; ++j), {
      s -= A[i * kComps + j] * X[j];
      P::muladds(1);
    })
    X[i] = s / A[i * kComps + i];
    P::flops(2 * (kComps - i));
  })
}

/// X[xb..] = A^{-1} X for a full 5x5 block X, column by column.
template <class P, class AA, class AX>
[[gnu::always_inline]] inline void lu5_solve_block(const AA& a, std::size_t ab, AX& x,
                                                   std::size_t xb) {
  const auto A = block_at<P>(a, ab);
  const auto X = block_at<P>(x, xb);
  NPB_FIXED_FOR(P, (int col = 0; col < kComps; ++col), {
    NPB_FIXED_FOR(P, (int i = 1; i < kComps; ++i), {
      double s = X[i * kComps + col];
      NPB_FIXED_FOR(P, (int j = 0; j < i; ++j), {
        s -= A[i * kComps + j] * X[j * kComps + col];
        P::muladds(1);
      })
      X[i * kComps + col] = s;
    })
    NPB_FIXED_FOR(P, (int i = kComps - 1; i >= 0; --i), {
      double s = X[i * kComps + col];
      NPB_FIXED_FOR(P, (int j = i + 1; j < kComps; ++j), {
        s -= A[i * kComps + j] * X[j * kComps + col];
        P::muladds(1);
      })
      X[i * kComps + col] = s / A[i * kComps + i];
    })
    P::flops(50);
  })
}

}  // namespace npb::pseudoapp
