#include <gtest/gtest.h>

#include "common/verify.hpp"
#include "ep/ep.hpp"

namespace npb {
namespace {

RunConfig cfg_s(Mode m, int threads) {
  RunConfig c;
  c.cls = ProblemClass::S;
  c.mode = m;
  c.threads = threads;
  return c;
}

TEST(Ep, ParamsGrowWithClass) {
  EXPECT_EQ(ep_params(ProblemClass::S).log2_pairs, 24);
  EXPECT_EQ(ep_params(ProblemClass::W).log2_pairs, 25);
  EXPECT_EQ(ep_params(ProblemClass::A).log2_pairs, 28);
  EXPECT_LT(ep_params(ProblemClass::A).log2_pairs, ep_params(ProblemClass::B).log2_pairs);
}

TEST(Ep, SerialNativeVerifies) {
  const RunResult r = run_ep(cfg_s(Mode::Native, 0));
  EXPECT_TRUE(r.verified) << r.verify_detail;
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_EQ(r.name, "EP");
  ASSERT_EQ(r.checksums.size(), 13u);
}

TEST(Ep, JavaModeMatchesNativeExactly) {
  // Bounds checks must not perturb arithmetic: identical instruction stream
  // modulo the checks, so checksums agree bit-for-bit.
  const RunResult a = run_ep(cfg_s(Mode::Native, 0));
  const RunResult b = run_ep(cfg_s(Mode::Java, 0));
  ASSERT_EQ(a.checksums.size(), b.checksums.size());
  for (std::size_t i = 0; i < a.checksums.size(); ++i)
    EXPECT_EQ(a.checksums[i], b.checksums[i]) << "checksum " << i;
}

// External anchor: the Gaussian sums of NPB's published ep.f verification
// for class B (2^31 values), met within the NPB epsilon, plus the frozen
// reference.  Four threads reduce in a different order than the serial run
// the reference was frozen from, so sx/sy agree to rounding, counts exactly.
TEST(Ep, ClassBMatchesPublishedNpbSums) {
  RunConfig c;
  c.cls = ProblemClass::B;
  c.mode = Mode::Native;
  c.threads = 4;
  const RunResult r = run_ep(c);
  EXPECT_TRUE(r.reference_checked);
  EXPECT_TRUE(r.verified) << r.verify_detail;
  ASSERT_EQ(r.checksums.size(), 13u);
  EXPECT_TRUE(approx_equal(r.checksums[0], 4.033815542441498e4)) << r.checksums[0];
  EXPECT_TRUE(approx_equal(r.checksums[1], -2.660669192809235e4)) << r.checksums[1];
}

class EpThreads : public ::testing::TestWithParam<int> {};

TEST_P(EpThreads, ThreadedMatchesSerial) {
  const RunResult serial = run_ep(cfg_s(Mode::Native, 0));
  const RunResult par = run_ep(cfg_s(Mode::Native, GetParam()));
  EXPECT_TRUE(par.verified) << par.verify_detail;
  ASSERT_EQ(par.checksums.size(), serial.checksums.size());
  // Annulus counts and acceptance are integer-valued: must match exactly.
  for (std::size_t i = 2; i < serial.checksums.size(); ++i)
    EXPECT_EQ(par.checksums[i], serial.checksums[i]) << "checksum " << i;
  // Gaussian sums are reduced in a different order: near-equal (relative).
  EXPECT_TRUE(approx_equal(par.checksums[0], serial.checksums[0]))
      << par.checksums[0] << " vs " << serial.checksums[0];
  EXPECT_TRUE(approx_equal(par.checksums[1], serial.checksums[1]))
      << par.checksums[1] << " vs " << serial.checksums[1];
}

INSTANTIATE_TEST_SUITE_P(Counts, EpThreads, ::testing::Values(1, 2, 3, 4, 7));

TEST(Ep, WarmupOptionDoesNotChangeResults) {
  RunConfig c = cfg_s(Mode::Native, 2);
  const RunResult a = run_ep(c);
  c.warmup_spins = 100000;
  const RunResult b = run_ep(c);
  for (std::size_t i = 2; i < a.checksums.size(); ++i)
    EXPECT_EQ(a.checksums[i], b.checksums[i]);
}

TEST(Ep, SpinBarrierTeamProducesSameResults) {
  RunConfig c = cfg_s(Mode::Native, 3);
  const RunResult a = run_ep(c);
  c.barrier = BarrierKind::SpinSense;
  const RunResult b = run_ep(c);
  for (std::size_t i = 0; i < a.checksums.size(); ++i)
    EXPECT_EQ(a.checksums[i], b.checksums[i]);
}

}  // namespace
}  // namespace npb
