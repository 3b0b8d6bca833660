// Mathematical unit tests for MG's grid operators: periodic ghost exchange,
// stencil action on known fields, restriction/interpolation consistency,
// and norm behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "mg/mg_impl.hpp"

namespace npb::mg_detail {
namespace {

using G = Grid<Unchecked>;

G make_grid(long n) {
  const auto s = static_cast<std::size_t>(n + 2);
  return G(s, s, s);
}

void fill_interior(G& g, long n, double (*f)(long, long, long)) {
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k)
        g(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
          static_cast<std::size_t>(k)) = f(i, j, k);
}

TEST(Comm3, GhostsArePeriodicImages) {
  const long n = 8;
  G g = make_grid(n);
  fill_interior(g, n, [](long i, long j, long k) {
    return static_cast<double>(100 * i + 10 * j + k);
  });
  comm3(g, n);
  // Face ghosts equal the opposite interior face, every axis.
  for (long a = 1; a <= n; ++a)
    for (long b = 1; b <= n; ++b) {
      EXPECT_EQ(g(0, static_cast<std::size_t>(a), static_cast<std::size_t>(b)),
                g(static_cast<std::size_t>(n), static_cast<std::size_t>(a),
                  static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(n + 1), static_cast<std::size_t>(a),
                  static_cast<std::size_t>(b)),
                g(1, static_cast<std::size_t>(a), static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(a), 0, static_cast<std::size_t>(b)),
                g(static_cast<std::size_t>(a), static_cast<std::size_t>(n),
                  static_cast<std::size_t>(b)));
      EXPECT_EQ(g(static_cast<std::size_t>(a), static_cast<std::size_t>(b), 0),
                g(static_cast<std::size_t>(a), static_cast<std::size_t>(b),
                  static_cast<std::size_t>(n)));
    }
  // Corner ghost wraps all three axes.
  EXPECT_EQ(g(0, 0, 0), g(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                          static_cast<std::size_t>(n)));
}

TEST(Stencil27, AnnihilatesConstantsWhenWeightsSumToZero) {
  // The Poisson operator kA has weight sum -8/3 + 6*0 + 12/6 + 8/12 = 0,
  // so A(constant field) == 0 and the residual of u=const, v=0 is 0.
  const long n = 8;
  G u = make_grid(n), v = make_grid(n), r = make_grid(n);
  fill_interior(u, n, [](long, long, long) { return 3.7; });
  comm3(u, n);
  stencil27<Unchecked, StencilOp::Resid>(u, &v, r, kA, n, 1, n + 1);
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k)
        EXPECT_NEAR(r(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k)),
                    0.0, 1e-13);
}

TEST(Stencil27, ActsAsNegativeDefiniteOnOddModes) {
  // For the highest-frequency mode s(i,j,k) = (-1)^(i+j+k), faces/edges/
  // corners alternate sign: A s = (a0 - 6a1 + 12a2*... ) computable exactly.
  const long n = 8;
  G u = make_grid(n), v = make_grid(n), r = make_grid(n);
  fill_interior(u, n, [](long i, long j, long k) {
    return ((i + j + k) % 2 == 0) ? 1.0 : -1.0;
  });
  comm3(u, n);
  stencil27<Unchecked, StencilOp::Resid>(u, &v, r, kA, n, 1, n + 1);
  // Neighbour parities: 6 faces flip sign, 12 edges keep it, 8 corners flip.
  const double expected_factor = -(kA[0] - 6.0 * kA[1] + 12.0 * kA[2] - 8.0 * kA[3]);
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k) {
        const double s = ((i + j + k) % 2 == 0) ? 1.0 : -1.0;
        EXPECT_NEAR(r(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                      static_cast<std::size_t>(k)),
                    expected_factor * s, 1e-12);
      }
}

TEST(Rprj3, PreservesConstantsUpToWeightSum) {
  // Full-weighting weights sum to 0.5 + 6*0.25 + 12*0.125 + 8*0.0625 = 4,
  // so restricting a constant field gives 4x the constant.
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(fine, nf, [](long, long, long) { return 1.5; });
  comm3(fine, nf);
  rprj3<Unchecked>(fine, coarse, nc, 1, nc + 1);
  for (long i = 1; i <= nc; ++i)
    for (long j = 1; j <= nc; ++j)
      for (long k = 1; k <= nc; ++k)
        EXPECT_NEAR(coarse(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k)),
                    6.0, 1e-13);
}

TEST(Interp, ReproducesConstantsExactly) {
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(coarse, nc, [](long, long, long) { return 2.25; });
  comm3(coarse, nc);
  interp<Unchecked>(coarse, fine, nf, 1, nf + 1);
  for (long i = 1; i <= nf; ++i)
    for (long j = 1; j <= nf; ++j)
      for (long k = 1; k <= nf; ++k)
        EXPECT_NEAR(fine(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                         static_cast<std::size_t>(k)),
                    2.25, 1e-13);
}

TEST(Interp, AlignedPointsCopyAndMidpointsAverage) {
  const long nf = 8, nc = 4;
  G fine = make_grid(nf), coarse = make_grid(nc);
  fill_interior(coarse, nc, [](long i, long, long) { return static_cast<double>(i); });
  comm3(coarse, nc);
  interp<Unchecked>(coarse, fine, nf, 1, nf + 1);
  // Even fine index 2c copies coarse(c); odd index 2c-1 averages c-1 and c
  // (with periodic wrap at the boundary).
  EXPECT_NEAR(fine(2, 2, 2), 1.0, 1e-13);
  EXPECT_NEAR(fine(4, 2, 2), 2.0, 1e-13);
  EXPECT_NEAR(fine(3, 2, 2), 1.5, 1e-13);
  EXPECT_NEAR(fine(1, 2, 2), 0.5 * (coarse(0, 1, 1) + coarse(1, 1, 1)), 1e-13);
}

TEST(L2Norm, MatchesHandComputedValue) {
  const long n = 4;
  G g = make_grid(n);
  fill_interior(g, n, [](long, long, long) { return 2.0; });
  // sqrt(sum(4) / 64) = sqrt(4) = 2.
  EXPECT_NEAR(l2norm(g, n), 2.0, 1e-14);
}

TEST(Zran3, PlacesExactlyTenPlusAndTenMinusOnes) {
  const long n = 16;
  G v = make_grid(n);
  zran3(v, n);
  int plus = 0, minus = 0, other = 0;
  for (long i = 1; i <= n; ++i)
    for (long j = 1; j <= n; ++j)
      for (long k = 1; k <= n; ++k) {
        const double x = v(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                           static_cast<std::size_t>(k));
        if (x == 1.0) {
          ++plus;
        } else if (x == -1.0) {
          ++minus;
        } else if (x != 0.0) {
          ++other;
        }
      }
  EXPECT_EQ(plus, 10);
  EXPECT_EQ(minus, 10);
  EXPECT_EQ(other, 0);
}

TEST(MgCycle, EachVCycleContractsTheResidual) {
  // Run MG manually for 1 vs 2 vs 3 iterations: the residual norm sequence
  // must be strictly decreasing (the multigrid property itself).
  double prev = 1e300;
  for (int iters = 1; iters <= 3; ++iters) {
    const MgParams p{5, iters};
    const MgOutput o = mg_run<Unchecked>(p, par::Launch{});
    EXPECT_LT(o.rnm2_final, prev) << iters << " iterations";
    EXPECT_LT(o.rnm2_final, o.rnm2_initial);
    prev = o.rnm2_final;
  }
}

}  // namespace
}  // namespace npb::mg_detail
