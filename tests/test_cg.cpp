#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "cg/cg.hpp"
#include "cg/cg_impl.hpp"
#include "common/reference.hpp"
#include "common/verify.hpp"

namespace npb {
namespace {

RunConfig cfg_s(Mode m, int threads) {
  RunConfig c;
  c.cls = ProblemClass::S;
  c.mode = m;
  c.threads = threads;
  return c;
}

const RunResult& serial_native_s() {
  static const RunResult r = run_cg(cfg_s(Mode::Native, 0));
  return r;
}

TEST(Cg, ParamsMatchNpbShapes) {
  EXPECT_EQ(cg_params(ProblemClass::S).n, 1400);
  EXPECT_EQ(cg_params(ProblemClass::A).n, 14000);
  EXPECT_EQ(cg_params(ProblemClass::A).nonzer, 11);
  EXPECT_DOUBLE_EQ(cg_params(ProblemClass::A).shift, 20.0);
  EXPECT_EQ(cg_params(ProblemClass::B).niter, 75);
}

TEST(Cg, SerialNativeVerifies) {
  const RunResult& r = serial_native_s();
  EXPECT_TRUE(r.verified) << r.verify_detail;
  ASSERT_EQ(r.checksums.size(), 3u);
  // zeta must sit between 0 and the shift (negative-definite shifted matrix).
  EXPECT_GT(r.checksums[0], 0.0);
  EXPECT_LT(r.checksums[0], cg_params(ProblemClass::S).shift);
}

TEST(Cg, ZetaConverged) {
  // The last outer iteration's zeta should be close to the running mean of
  // all 15 (inverse power iteration converges fast here).
  const RunResult& r = serial_native_s();
  const double mean = r.checksums[2] / 15.0;
  EXPECT_NEAR(r.checksums[0], mean, 0.35 * std::abs(mean));
}

TEST(Cg, JavaModeMatchesNativeChecksums) {
  // Same arithmetic modulo FMA contraction differences; the CG recurrences
  // are stable, so agreement is tight but not bitwise.
  const RunResult b = run_cg(cfg_s(Mode::Java, 0));
  const RunResult& a = serial_native_s();
  EXPECT_TRUE(b.verified) << b.verify_detail;
  EXPECT_TRUE(approx_equal(a.checksums[0], b.checksums[0]))
      << a.checksums[0] << " vs " << b.checksums[0];
}

class CgThreads : public ::testing::TestWithParam<int> {};

TEST_P(CgThreads, ThreadedMatchesSerial) {
  const RunResult par = run_cg(cfg_s(Mode::Native, GetParam()));
  EXPECT_TRUE(par.verified) << par.verify_detail;
  const RunResult& serial = serial_native_s();
  for (std::size_t i = 0; i < serial.checksums.size(); ++i)
    EXPECT_TRUE(approx_equal(par.checksums[i], serial.checksums[i]))
        << "checksum " << i << ": " << par.checksums[i] << " vs "
        << serial.checksums[i];
}

INSTANTIATE_TEST_SUITE_P(Counts, CgThreads, ::testing::Values(1, 2, 3, 4));

// ---- matrix assembly oracle -------------------------------------------------

struct PlainCsr {
  std::vector<long> rowptr;
  std::vector<int> colidx;
  std::vector<double> values;
};

/// The straightforward assembly make_matrix must reproduce bit for bit: the
/// same generation loop, every outer-product term added into a per-row
/// std::map (so each entry sums from 0.0 in generation order), then
/// rcond - shift added to the diagonal last.
PlainCsr map_assembly(const CgParams& p) {
  const long n = p.n;
  std::vector<std::map<int, double>> rows(static_cast<std::size_t>(n));
  double seed = kDefaultSeed;
  const double ratio = std::pow(p.rcond, 1.0 / static_cast<double>(n));
  double omega = 1.0;
  std::vector<int> pos;
  std::vector<double> val;
  for (long i = 0; i < n; ++i) {
    pos.clear();
    val.clear();
    while (pos.size() < static_cast<std::size_t>(p.nonzer)) {
      const double ve = randlc(seed, kDefaultMultiplier);
      const double vl = randlc(seed, kDefaultMultiplier);
      const int idx = static_cast<int>(vl * static_cast<double>(n));
      if (idx >= n) continue;
      bool dup = false;
      for (int q : pos) dup = dup || (q == idx);
      if (dup) continue;
      pos.push_back(idx);
      val.push_back(ve);
    }
    bool has_i = false;
    for (std::size_t q = 0; q < pos.size(); ++q)
      if (pos[q] == static_cast<int>(i)) {
        val[q] = 0.5;
        has_i = true;
      }
    if (!has_i) {
      pos.push_back(static_cast<int>(i));
      val.push_back(0.5);
    }
    for (std::size_t a = 0; a < pos.size(); ++a)
      for (std::size_t b = 0; b < pos.size(); ++b)
        rows[static_cast<std::size_t>(pos[a])][pos[b]] += omega * val[a] * val[b];
    omega *= ratio;
  }
  for (long i = 0; i < n; ++i)
    rows[static_cast<std::size_t>(i)][static_cast<int>(i)] += p.rcond - p.shift;

  PlainCsr m;
  m.rowptr.push_back(0);
  for (const auto& r : rows) {
    for (const auto& [c, v] : r) {
      m.colidx.push_back(c);
      m.values.push_back(v);
    }
    m.rowptr.push_back(static_cast<long>(m.colidx.size()));
  }
  return m;
}

template <class T, class A>
bool same_bits(const std::vector<T>& want, const A& got) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) == 0;
}

template <class P>
void expect_matches_oracle(ProblemClass cls, const PlainCsr& want) {
  const cg_detail::Csr<P> got = cg_detail::make_matrix<P>(cg_params(cls));
  EXPECT_EQ(got.n, cg_params(cls).n);
  EXPECT_TRUE(same_bits(want.rowptr, got.rowptr)) << to_string(cls);
  EXPECT_TRUE(same_bits(want.colidx, got.colidx)) << to_string(cls);
  EXPECT_TRUE(same_bits(want.values, got.values)) << to_string(cls);
}

class CgAssembly : public ::testing::TestWithParam<ProblemClass> {};

TEST_P(CgAssembly, MatrixIsBitwiseEqualToTheMapAssembly) {
  const PlainCsr want = map_assembly(cg_params(GetParam()));
  expect_matches_oracle<Unchecked>(GetParam(), want);
  expect_matches_oracle<Checked>(GetParam(), want);
}

INSTANTIATE_TEST_SUITE_P(Classes, CgAssembly,
                         ::testing::Values(ProblemClass::S, ProblemClass::W),
                         [](const auto& info) { return to_string(info.param); });

// The class S checksums are pinned bit for bit, so an assembly change that
// moves a single matrix rounding fails here even where the tolerance checks
// above pass.  Serial and one-thread runs equal the frozen reference table.
// Four ranks split every dot product into four ordered partial sums, which
// round differently from the serial sum, so that cell has its own frozen
// values.  x86-64 only, like the BT/SP/LU pin: targets with FMA
// legitimately round the native mode differently.
TEST(Cg, ClassSChecksumsArePinnedBitwise) {
#if defined(__x86_64__)
  const auto ref = reference_checksums("CG", ProblemClass::S);
  ASSERT_TRUE(ref.has_value());
  const std::vector<double> four_ranks = {0x1.0e45cb7799d7dp+3, 0x1.d376b4e326964p-50,
                                          0x1.006fe698cac53p+7};
  for (const int threads : {0, 1, 4}) {
    const RunResult r = threads == 0 ? serial_native_s() : run_cg(cfg_s(Mode::Native, threads));
    const std::vector<double>& want = threads == 4 ? four_ranks : *ref;
    ASSERT_EQ(r.checksums.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(r.checksums[i], want[i])
          << std::hexfloat << "threads=" << threads << " checksum " << i << ": "
          << r.checksums[i] << " vs " << want[i];
  }
#else
  GTEST_SKIP() << "bitwise reference pin is defined for x86-64 (no FMA) only";
#endif
}

TEST(Cg, WarmupDoesNotChangeResults) {
  RunConfig c = cfg_s(Mode::Native, 2);
  const RunResult plain = run_cg(c);
  c.warmup_spins = 200000;  // the paper's CG fix
  const RunResult warmed = run_cg(c);
  for (std::size_t i = 0; i < plain.checksums.size(); ++i)
    EXPECT_EQ(plain.checksums[i], warmed.checksums[i]) << "checksum " << i;
}

TEST(Cg, DeterministicAcrossRuns) {
  const RunResult a = run_cg(cfg_s(Mode::Native, 2));
  const RunResult b = run_cg(cfg_s(Mode::Native, 2));
  for (std::size_t i = 0; i < a.checksums.size(); ++i)
    EXPECT_EQ(a.checksums[i], b.checksums[i]);
}

}  // namespace
}  // namespace npb
