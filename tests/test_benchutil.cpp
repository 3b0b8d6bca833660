#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util.hpp"

namespace npb::benchutil {
namespace {

Args parse_argv(std::vector<const char*> argv, Args defaults = {}) {
  argv.insert(argv.begin(), "bench");
  return parse(static_cast<int>(argv.size()),
               const_cast<char**>(argv.data()), defaults);
}

class BenchUtil : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("NPB_CLASS");
    unsetenv("NPB_THREADS");
  }
};

TEST_F(BenchUtil, DefaultsSurviveNoArgs) {
  const Args a = parse_argv({});
  EXPECT_EQ(a.cls, ProblemClass::S);
  EXPECT_EQ(a.threads, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(a.warmup);
}

TEST_F(BenchUtil, ParsesClassThreadsWarmup) {
  const Args a = parse_argv({"--class=A", "--threads=0,4,16", "--warmup"});
  EXPECT_EQ(a.cls, ProblemClass::A);
  EXPECT_EQ(a.threads, (std::vector<int>{0, 4, 16}));
  EXPECT_TRUE(a.warmup);
}

TEST_F(BenchUtil, EnvironmentFallsBackBehindFlags) {
  setenv("NPB_CLASS", "W", 1);
  setenv("NPB_THREADS", "0,8", 1);
  const Args env_only = parse_argv({});
  EXPECT_EQ(env_only.cls, ProblemClass::W);
  EXPECT_EQ(env_only.threads, (std::vector<int>{0, 8}));
  const Args flag_wins = parse_argv({"--class=B"});
  EXPECT_EQ(flag_wins.cls, ProblemClass::B);
  unsetenv("NPB_CLASS");
  unsetenv("NPB_THREADS");
}

TEST_F(BenchUtil, BadInputIsIgnoredNotFatal) {
  const Args a =
      parse_argv({"--class=Q", "--threads=", "--bogus", "--threads=-1,2"});
  EXPECT_EQ(a.cls, ProblemClass::S);
  EXPECT_EQ(a.threads, (std::vector<int>{0, 1, 2}));
}

TEST_F(BenchUtil, LabelFormatsPaperStyle) {
  EXPECT_EQ(label("BT", ProblemClass::A), "BT.A");
  EXPECT_EQ(label("IS", ProblemClass::S), "IS.S");
}

TEST_F(BenchUtil, TimedRunReportsFailuresAsNegative) {
  const auto unverified = [](const RunConfig& cfg) {
    RunResult r;
    r.name = "STUB";
    r.cls = cfg.cls;
    r.seconds = 1.5;
    r.verified = false;
    return r;
  };
  EXPECT_EQ(timed_run(unverified, RunConfig{}), -1.0);
}

}  // namespace
}  // namespace npb::benchutil
