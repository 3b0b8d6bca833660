// Implementation-level tests for the EP, IS and CG kernels that the
// benchmark-level tests can't see: block independence, ranking semantics,
// matrix structure, and the CG solve itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cg/cg_impl.hpp"
#include "ep/ep_impl.hpp"
#include "is/is_impl.hpp"

namespace npb {
namespace {

// ---- EP --------------------------------------------------------------

TEST(EpBlocks, BlocksAreDeterministicAndOrderIndependent) {
  using namespace ep_detail;
  Array1<double, Unchecked> buf(static_cast<std::size_t>(2 * kBlockPairs));
  BlockAccum fwd, rev;
  for (long b = 0; b < 4; ++b) ep_block<Unchecked>(b, buf, fwd);
  for (long b = 3; b >= 0; --b) ep_block<Unchecked>(b, buf, rev);
  // Counts are integers: identical regardless of block order.
  EXPECT_EQ(fwd.accepted, rev.accepted);
  for (int l = 0; l < kAnnuli; ++l)
    EXPECT_EQ(fwd.q[static_cast<std::size_t>(l)], rev.q[static_cast<std::size_t>(l)]);
  // Sums only reassociate.
  EXPECT_NEAR(fwd.sx, rev.sx, 1e-9);
}

TEST(EpBlocks, AcceptanceNearPiOverFourPerBlock) {
  using namespace ep_detail;
  Array1<double, Unchecked> buf(static_cast<std::size_t>(2 * kBlockPairs));
  BlockAccum acc;
  ep_block<Unchecked>(17, buf, acc);
  const double rate = acc.accepted / static_cast<double>(kBlockPairs);
  EXPECT_NEAR(rate, 0.7853981633974483, 0.01);
}

// ---- IS --------------------------------------------------------------

TEST(IsGenerate, KeysInRangeAndCentered) {
  using namespace is_detail;
  const long n = 20000, max_key = 1L << 11;
  Array1<int, Unchecked> keys(static_cast<std::size_t>(n));
  is_generate(keys, max_key, 0, n);
  double mean = 0.0;
  for (long i = 0; i < n; ++i) {
    const int k = keys[static_cast<std::size_t>(i)];
    ASSERT_GE(k, 0);
    ASSERT_LT(k, max_key);
    mean += k;
  }
  // Sum of four uniforms has mean 2 => keys centred at max_key/2.
  EXPECT_NEAR(mean / static_cast<double>(n), static_cast<double>(max_key) / 2.0,
              0.02 * static_cast<double>(max_key));
}

TEST(IsGenerate, ChunkedGenerationEqualsWholeSweep) {
  using namespace is_detail;
  const long n = 4096, max_key = 1L << 11;
  Array1<int, Unchecked> whole(static_cast<std::size_t>(n));
  Array1<int, Unchecked> chunks(static_cast<std::size_t>(n));
  is_generate(whole, max_key, 0, n);
  is_generate(chunks, max_key, 0, 1000);
  is_generate(chunks, max_key, 1000, 1700);
  is_generate(chunks, max_key, 1700, n);
  for (long i = 0; i < n; ++i)
    EXPECT_EQ(whole[static_cast<std::size_t>(i)], chunks[static_cast<std::size_t>(i)])
        << "key " << i;
}

TEST(IsRank, HistogramScanCountsKeysAtMost) {
  using namespace is_detail;
  const long n = 5000, max_key = 256;
  Array1<int, Unchecked> keys(static_cast<std::size_t>(n));
  is_generate(keys, max_key, 0, n);
  Array1<int, Unchecked> hist(static_cast<std::size_t>(max_key));
  is_rank_serial(keys, n, hist, max_key);
  // hist[k] == |{ keys <= k }|: cross-check against a sorted copy.
  std::vector<int> sorted(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) sorted[static_cast<std::size_t>(i)] =
      keys[static_cast<std::size_t>(i)];
  std::sort(sorted.begin(), sorted.end());
  for (long k = 0; k < max_key; k += 17) {
    const auto expect = std::upper_bound(sorted.begin(), sorted.end(),
                                         static_cast<int>(k)) -
                        sorted.begin();
    EXPECT_EQ(hist[static_cast<std::size_t>(k)], static_cast<int>(expect))
        << "bucket " << k;
  }
  EXPECT_EQ(hist[static_cast<std::size_t>(max_key - 1)], static_cast<int>(n));
}

// ---- CG --------------------------------------------------------------

TEST(CgMatrix, IsSymmetricWithFullDiagonal) {
  using namespace cg_detail;
  CgParams p = cg_params(ProblemClass::S);
  p.n = 300;  // small instance for a dense cross-check
  const Csr<Unchecked> m = make_matrix<Unchecked>(p);
  // Dense mirror.
  std::vector<double> dense(static_cast<std::size_t>(p.n * p.n), 0.0);
  for (long i = 0; i < m.n; ++i)
    for (long e = m.rowptr[static_cast<std::size_t>(i)];
         e < m.rowptr[static_cast<std::size_t>(i + 1)]; ++e)
      dense[static_cast<std::size_t>(i * p.n + m.colidx[static_cast<std::size_t>(e)])] =
          m.values[static_cast<std::size_t>(e)];
  for (long i = 0; i < p.n; ++i) {
    EXPECT_NE(dense[static_cast<std::size_t>(i * p.n + i)], 0.0) << "diag " << i;
    for (long j = i + 1; j < p.n; ++j)
      EXPECT_NEAR(dense[static_cast<std::size_t>(i * p.n + j)],
                  dense[static_cast<std::size_t>(j * p.n + i)], 1e-14);
  }
}

TEST(CgMatrix, RowptrIsMonotoneAndColumnsSorted) {
  using namespace cg_detail;
  const Csr<Unchecked> m = make_matrix<Unchecked>(cg_params(ProblemClass::S));
  for (long i = 0; i < m.n; ++i) {
    const long e0 = m.rowptr[static_cast<std::size_t>(i)];
    const long e1 = m.rowptr[static_cast<std::size_t>(i + 1)];
    ASSERT_LE(e0, e1);
    for (long e = e0 + 1; e < e1; ++e)
      EXPECT_LT(m.colidx[static_cast<std::size_t>(e - 1)],
                m.colidx[static_cast<std::size_t>(e)]);
  }
}

TEST(CgSolve, ConjGradSolvesToMachinePrecision) {
  using namespace cg_detail;
  CgParams p = cg_params(ProblemClass::S);
  p.n = 500;
  const Csr<Unchecked> m = make_matrix<Unchecked>(p);
  const long n = m.n;
  Array1<double, Unchecked> x(static_cast<std::size_t>(n), 1.0);
  Array1<double, Unchecked> z(static_cast<std::size_t>(n));
  Array1<double, Unchecked> r(static_cast<std::size_t>(n));
  Array1<double, Unchecked> pv(static_cast<std::size_t>(n));
  Array1<double, Unchecked> q(static_cast<std::size_t>(n));
  CgScalars sc;
  par::Serial serial;
  conj_grad(m, x, z, r, pv, q, 25, serial, sc);
  EXPECT_LT(sc.rnorm, 1e-10);
  // And A z really reproduces x.
  spmv_rows(m, z, q, 0, n);
  double maxerr = 0.0;
  for (long i = 0; i < n; ++i)
    maxerr = std::fmax(maxerr,
                       std::fabs(q[static_cast<std::size_t>(i)] - 1.0));
  EXPECT_LT(maxerr, 1e-9);
}

TEST(CgSolve, SpmvMatchesDenseMultiply) {
  using namespace cg_detail;
  CgParams p = cg_params(ProblemClass::S);
  p.n = 200;
  const Csr<Unchecked> m = make_matrix<Unchecked>(p);
  Array1<double, Unchecked> x(static_cast<std::size_t>(p.n));
  Array1<double, Unchecked> y(static_cast<std::size_t>(p.n));
  double seed = 808.0;
  for (long i = 0; i < p.n; ++i)
    x[static_cast<std::size_t>(i)] = 2.0 * randlc(seed, kDefaultMultiplier) - 1.0;
  spmv_rows(m, x, y, 0, p.n);
  for (long i = 0; i < p.n; i += 23) {
    double expect = 0.0;
    for (long e = m.rowptr[static_cast<std::size_t>(i)];
         e < m.rowptr[static_cast<std::size_t>(i + 1)]; ++e)
      expect += m.values[static_cast<std::size_t>(e)] *
                x[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(e)])];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expect, 1e-12);
  }
}

}  // namespace
}  // namespace npb
