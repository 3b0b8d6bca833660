// Unit tests for the pseudo-application substrate: the synthetic system
// constants, dense 5x5 helpers, block primitives, and field machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pseudoapp/block_impl.hpp"
#include "pseudoapp/field_impl.hpp"
#include "pseudoapp/system.hpp"

namespace npb::pseudoapp {
namespace {

using npb::Checked;
using npb::Unchecked;

TEST(System, MatInverseRoundTrip) {
  const System s = make_system(0.1);
  for (const Mat5* m : {&s.tx, &s.ty, &s.tz}) {
    const Mat5 inv = mat_inverse(*m);
    const Mat5 prod = mat_mul(*m, inv);
    for (int i = 0; i < kComps; ++i)
      for (int j = 0; j < kComps; ++j)
        EXPECT_NEAR(prod[static_cast<std::size_t>(i * kComps + j)], i == j ? 1.0 : 0.0,
                    1e-12);
  }
}

TEST(System, ConvectionMatricesHaveTheirEigenbasis) {
  // Ad * Td == Td * diag(lambda_d): columns of Td are eigenvectors.
  const System s = make_system(0.05);
  auto check = [](const Mat5& A, const Mat5& T, const Vec5& lam) {
    const Mat5 at = mat_mul(A, T);
    for (int i = 0; i < kComps; ++i)
      for (int j = 0; j < kComps; ++j)
        EXPECT_NEAR(at[static_cast<std::size_t>(i * kComps + j)],
                    T[static_cast<std::size_t>(i * kComps + j)] *
                        lam[static_cast<std::size_t>(j)],
                    1e-12);
  };
  check(s.ax, s.tx, s.lx);
  check(s.ay, s.ty, s.ly);
  check(s.az, s.tz, s.lz);
}

TEST(System, DirectionsAreGenuinelyDistinct) {
  const System s = make_system(0.05);
  EXPECT_NE(s.ax, s.ay);
  EXPECT_NE(s.ay, s.az);
  EXPECT_NE(s.lx, s.ly);
}

TEST(System, PhiFieldBoundedAndNonConstant) {
  double lo = 1e9, hi = -1e9;
  for (double x : {0.1, 0.3, 0.7})
    for (double y : {0.2, 0.6})
      for (double z : {0.15, 0.85}) {
        const double p = phi_field(x, y, z);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
  EXPECT_GE(lo, 0.8);
  EXPECT_LE(hi, 1.2);
  EXPECT_GT(hi - lo, 1e-3);
}

TEST(System, ExactSolutionIsSmoothPolynomial) {
  const Vec5 a = exact_solution(0.0, 0.0, 0.0);
  const Vec5 b = exact_solution(1.0, 1.0, 1.0);
  for (int m = 0; m < kComps; ++m) {
    EXPECT_TRUE(std::isfinite(a[static_cast<std::size_t>(m)]));
    EXPECT_NE(a[static_cast<std::size_t>(m)], b[static_cast<std::size_t>(m)]);
  }
}

// ---- block primitives -------------------------------------------------
// Each Block test runs the primitives under both access policies: Unchecked
// compiles their fixed 5-wide loops fully unrolled, Checked keeps them
// rolled.  Both shapes must give bitwise-equal outputs.

template <class P>
std::vector<double> contents(const Array1<double, P>& a) {
  return {a.data(), a.data() + a.size()};
}

/// x = A^-1 rhs through lu5_factor + lu5_solve_vec.
template <class P>
std::vector<double> lu5_solve(const double (&src)[25], const double (&rhs)[5]) {
  Array1<double, P> a(25), x(5);
  for (int i = 0; i < 25; ++i) a[static_cast<std::size_t>(i)] = src[i];
  for (int i = 0; i < 5; ++i) x[static_cast<std::size_t>(i)] = rhs[i];
  lu5_factor<P>(a, 0);
  lu5_solve_vec<P>(a, 0, x, 0);
  return contents(x);
}

TEST(Block, Lu5SolveInvertsDenseSystem) {
  // A well-conditioned, diagonally dominant test block.
  const double src[25] = {5, 1, 0.5, 0, 0.2, 1, 6, 1, 0.3, 0, 0.5, 1,  7,
                          1, 0, 0,   1, 1,   8, 1, 0.2, 0, 0.3, 1,  9};
  const double rhs[5] = {1, -2, 3, -4, 5};
  const std::vector<double> x = lu5_solve<Unchecked>(src, rhs);
  EXPECT_EQ(x, lu5_solve<Checked>(src, rhs));
  // Check A*x == rhs with the original matrix.
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 5; ++j) s += src[i * 5 + j] * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(s, rhs[i], 1e-10);
  }
}

/// X = A^-1 through lu5_factor + lu5_solve_block on the identity.
template <class P>
std::vector<double> lu5_inverse(const double (&src)[25]) {
  Array1<double, P> a(25), x(25);
  for (int i = 0; i < 25; ++i) {
    a[static_cast<std::size_t>(i)] = src[i];
    x[static_cast<std::size_t>(i)] = (i % 6 == 0) ? 1.0 : 0.0;  // identity
  }
  lu5_factor<P>(a, 0);
  lu5_solve_block<P>(a, 0, x, 0);
  return contents(x);
}

TEST(Block, Lu5SolveBlockInvertsAllColumns) {
  const double src[25] = {4, 1, 0, 0, 0, 1, 5, 1, 0, 0, 0, 1, 6,
                          1, 0, 0, 0, 1, 7, 1, 0, 0, 0, 1, 8};
  const std::vector<double> x = lu5_inverse<Unchecked>(src);
  EXPECT_EQ(x, lu5_inverse<Checked>(src));
  // A * A^-1 == I.
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) {
      double s = 0.0;
      for (int k = 0; k < 5; ++k) s += src[i * 5 + k] * x[static_cast<std::size_t>(k * 5 + j)];
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-10);
    }
}

/// y = 10 - A x and C = 1 - A B, each block at a non-zero offset inside one
/// shared workspace (A at 0, B at 25, C at 50, x at 75, y at 80).
template <class P>
std::vector<double> mv_mm_sub() {
  Array1<double, P> w(85);
  for (int i = 0; i < 25; ++i) {
    w[static_cast<std::size_t>(i)] = 0.1 * i - 0.7;
    w[static_cast<std::size_t>(25 + i)] = 0.05 * i + 0.2;
    w[static_cast<std::size_t>(50 + i)] = 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    w[static_cast<std::size_t>(75 + i)] = i + 1.0;
    w[static_cast<std::size_t>(80 + i)] = 10.0;
  }
  mv5_sub<P>(w, 0, w, 75, w, 80);
  mm5_sub<P>(w, 0, w, 25, w, 50);
  return contents(w);
}

TEST(Block, MvSubAndMmSubMatchDenseAlgebra) {
  const std::vector<double> w = mv_mm_sub<Unchecked>();
  EXPECT_EQ(w, mv_mm_sub<Checked>());
  const auto a = [&](int e) { return w[static_cast<std::size_t>(e)]; };
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 5; ++j) s += a(i * 5 + j) * (j + 1.0);
    EXPECT_NEAR(a(80 + i), 10.0 - s, 1e-12);
  }
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) {
      double s = 0.0;
      for (int k = 0; k < 5; ++k) s += a(i * 5 + k) * a(25 + k * 5 + j);
      EXPECT_NEAR(a(50 + i * 5 + j), 1.0 - s, 1e-12);
    }
}

// ---- fields ------------------------------------------------------------

TEST(Fields, ForcingMakesExactSolutionStationary) {
  // The defining property: with u == ue, the rhs must vanish identically.
  Fields<Unchecked> f(10);
  init_fields(f);
  for (long i = 0; i < 10; ++i)
    for (long j = 0; j < 10; ++j)
      for (long k = 0; k < 10; ++k)
        for (int m = 0; m < kComps; ++m)
          f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
              static_cast<std::size_t>(k), static_cast<std::size_t>(m)) =
              f.ue(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                   static_cast<std::size_t>(k), static_cast<std::size_t>(m));
  compute_rhs_planes(f, 1, 9);
  const Vec5 norms = rhs_norms(f);
  for (int m = 0; m < kComps; ++m)
    EXPECT_LT(norms[static_cast<std::size_t>(m)], 1e-12) << "component " << m;
}

TEST(Fields, InitialGuessMatchesExactOnBoundaryOnly) {
  Fields<Unchecked> f(8);
  init_fields(f);
  // Boundary equal.
  for (long j = 0; j < 8; ++j)
    for (long k = 0; k < 8; ++k)
      for (int m = 0; m < kComps; ++m) {
        EXPECT_EQ(f.u(0, static_cast<std::size_t>(j), static_cast<std::size_t>(k),
                      static_cast<std::size_t>(m)),
                  f.ue(0, static_cast<std::size_t>(j), static_cast<std::size_t>(k),
                       static_cast<std::size_t>(m)));
      }
  // Interior perturbed.
  const Vec5 err = error_norms(f);
  for (int m = 0; m < kComps; ++m)
    EXPECT_GT(err[static_cast<std::size_t>(m)], 1e-4);
}

TEST(Fields, RhsNormsSeeTheResidual) {
  Fields<Unchecked> f(8);
  init_fields(f);
  compute_rhs_planes(f, 1, 7);
  const Vec5 norms = rhs_norms(f);
  for (int m = 0; m < kComps; ++m)
    EXPECT_GT(norms[static_cast<std::size_t>(m)], 1e-6);
}

}  // namespace
}  // namespace npb::pseudoapp
