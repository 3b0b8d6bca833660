// Benchmark-level tests for the three pseudo-applications.  Shared harness:
// each must verify serially, match across modes, and match serial results
// from any thread count (LU via its pipelined wavefront).

#include <gtest/gtest.h>

#include <functional>

#include "bt/bt.hpp"
#include "common/mode.hpp"
#include "common/reference.hpp"
#include "common/verify.hpp"
#include "lu/lu.hpp"
#include "sp/sp.hpp"

namespace npb {
namespace {

struct AppCase {
  const char* name;
  RunResult (*fn)(const RunConfig&);
};

class PseudoApp : public ::testing::TestWithParam<AppCase> {
 protected:
  static RunConfig cfg_s(Mode m, int threads) {
    RunConfig c;
    c.cls = ProblemClass::S;
    c.mode = m;
    c.threads = threads;
    return c;
  }
  // One serial native run per benchmark, shared across tests in this binary.
  static const RunResult& serial(const AppCase& app) {
    static std::map<std::string, RunResult> cache;
    auto it = cache.find(app.name);
    if (it == cache.end())
      it = cache.emplace(app.name, app.fn(cfg_s(Mode::Native, 0))).first;
    return it->second;
  }
};

TEST_P(PseudoApp, SerialNativeVerifies) {
  const RunResult& r = serial(GetParam());
  EXPECT_TRUE(r.verified) << r.verify_detail;
  ASSERT_EQ(r.checksums.size(), 10u);  // 5 residual + 5 error norms
  EXPECT_EQ(r.name, GetParam().name);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.mops, 0.0);
}

TEST_P(PseudoApp, ResidualReachesTightTolerance) {
  const RunResult& r = serial(GetParam());
  for (std::size_t m = 0; m < 5; ++m)
    EXPECT_LT(r.checksums[m], 1e-4) << "residual component " << m;
}

TEST_P(PseudoApp, JavaModeMatchesNative) {
  const RunResult b = GetParam().fn(cfg_s(Mode::Java, 0));
  EXPECT_TRUE(b.verified) << b.verify_detail;
  const RunResult& a = serial(GetParam());
  for (std::size_t i = 0; i < a.checksums.size(); ++i) {
    // Converged norms are tiny; compare with a scale-aware tolerance: both
    // runs must agree on where they converged to.
    EXPECT_NEAR(a.checksums[i], b.checksums[i], 1e-8 + 0.05 * a.checksums[i])
        << "checksum " << i;
  }
}

TEST_P(PseudoApp, TwoThreadsMatchSerial) {
  const RunResult par = GetParam().fn(cfg_s(Mode::Native, 2));
  EXPECT_TRUE(par.verified) << par.verify_detail;
  const RunResult& ser = serial(GetParam());
  for (std::size_t i = 0; i < ser.checksums.size(); ++i)
    EXPECT_NEAR(par.checksums[i], ser.checksums[i], 1e-8 + 0.05 * ser.checksums[i])
        << "checksum " << i;
}

TEST_P(PseudoApp, ManyThreadsMatchSerial) {
  const RunResult par = GetParam().fn(cfg_s(Mode::Native, 5));
  EXPECT_TRUE(par.verified) << par.verify_detail;
  const RunResult& ser = serial(GetParam());
  for (std::size_t i = 0; i < ser.checksums.size(); ++i)
    EXPECT_NEAR(par.checksums[i], ser.checksums[i], 1e-8 + 0.05 * ser.checksums[i])
        << "checksum " << i;
}

TEST_P(PseudoApp, SpinBarrierVariantVerifies) {
  RunConfig c = cfg_s(Mode::Native, 3);
  c.barrier = BarrierKind::SpinSense;
  const RunResult r = GetParam().fn(c);
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

// The class S checksums are bitwise equal across modes and thread counts
// and equal to the frozen reference table, so a kernel change that moves a
// single rounding fails here even where the 5% checks above still pass.
// x86-64 only: baseline x86-64 code has no FMA, so -ffp-contract=fast in
// the native TUs cannot fuse anything; targets with FMA legitimately round
// the native mode differently.
TEST_P(PseudoApp, ClassSChecksumsEqualTheReferenceBitwise) {
#if defined(__x86_64__)
  const auto ref = reference_checksums(GetParam().name, ProblemClass::S);
  ASSERT_TRUE(ref.has_value());
  struct Cell {
    Mode mode;
    int threads;
  };
  for (const Cell c : {Cell{Mode::Native, 0}, Cell{Mode::Native, 1}, Cell{Mode::Native, 4},
                       Cell{Mode::Java, 0}, Cell{Mode::Java, 4}}) {
    const RunResult r = c.threads == 0 && c.mode == Mode::Native
                            ? serial(GetParam())
                            : GetParam().fn(cfg_s(c.mode, c.threads));
    EXPECT_EQ(r.checksums, *ref) << to_string(c.mode) << " threads=" << c.threads;
  }
#else
  GTEST_SKIP() << "bitwise reference pin is defined for x86-64 (no FMA) only";
#endif
}

INSTANTIATE_TEST_SUITE_P(Apps, PseudoApp,
                         ::testing::Values(AppCase{"BT", &run_bt},
                                           AppCase{"SP", &run_sp},
                                           AppCase{"LU", &run_lu}),
                         [](const auto& info) { return info.param.name; });

// ---- benchmark-specific details -----------------------------------------

TEST(BtSpLu, ParamsFollowNpbGridSizes) {
  EXPECT_EQ(bt_params(ProblemClass::S).n, 12);
  EXPECT_EQ(bt_params(ProblemClass::A).n, 64);
  EXPECT_EQ(sp_params(ProblemClass::W).n, 36);
  EXPECT_EQ(sp_params(ProblemClass::A).n, 64);
  EXPECT_EQ(lu_params(ProblemClass::W).n, 33);
  EXPECT_EQ(lu_params(ProblemClass::A).n, 64);
  EXPECT_EQ(bt_params(ProblemClass::B).n, 102);
}

TEST(BtSpLu, LuHyperplaneVariantMatchesPipelinedBitwise) {
  // Both sweep orders are topological for the SSOR dependency DAG, so the
  // hyperplane variant must reproduce the pipelined results exactly.
  RunConfig c;
  c.cls = ProblemClass::S;
  c.mode = Mode::Native;
  for (int threads : {0, 2, 4}) {
    c.threads = threads;
    const RunResult a = run_lu(c);
    const RunResult b = run_lu_hp(c);
    EXPECT_TRUE(b.verified) << b.verify_detail;
    ASSERT_EQ(a.checksums.size(), b.checksums.size());
    for (std::size_t i = 0; i < a.checksums.size(); ++i)
      EXPECT_EQ(a.checksums[i], b.checksums[i])
          << "threads=" << threads << " checksum " << i;
  }
}

TEST(BtSpLu, LuPipelineHandlesMoreThreadsThanPlanes) {
  // 12^3 grid has 10 interior planes; 12 threads leaves some ranks with
  // empty slabs — the pipeline must still terminate and verify.
  RunConfig c;
  c.cls = ProblemClass::S;
  c.mode = Mode::Native;
  c.threads = 12;
  const RunResult r = run_lu(c);
  EXPECT_TRUE(r.verified) << r.verify_detail;
}

}  // namespace
}  // namespace npb
