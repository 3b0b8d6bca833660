#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "par/exec.hpp"
#include "par/parallel_for.hpp"
#include "par/partition.hpp"
#include "par/pipeline.hpp"
#include "par/region.hpp"
#include "par/team.hpp"

namespace npb {
namespace {

// ---- partition properties ------------------------------------------------

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<long, long, int>> {};

TEST_P(PartitionProperty, CoversRangeExactlyOnceAndBalanced) {
  const auto [lo, hi, nranks] = GetParam();
  std::vector<int> hits(static_cast<std::size_t>(std::max(hi - lo, 0L)), 0);
  long minsize = hi - lo, maxsize = 0;
  long prev_hi = lo;
  for (int r = 0; r < nranks; ++r) {
    const Range rg = partition(lo, hi, r, nranks);
    EXPECT_EQ(rg.lo, prev_hi) << "blocks must be contiguous and ordered";
    prev_hi = rg.hi;
    minsize = std::min(minsize, rg.size());
    maxsize = std::max(maxsize, rg.size());
    for (long i = rg.lo; i < rg.hi; ++i) hits[static_cast<std::size_t>(i - lo)]++;
  }
  EXPECT_EQ(prev_hi, std::max(lo, hi));
  for (int h : hits) EXPECT_EQ(h, 1);
  if (hi - lo >= nranks) {
    EXPECT_LE(maxsize - minsize, 1) << "imbalance > 1";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProperty,
    ::testing::Values(std::tuple{0L, 100L, 1}, std::tuple{0L, 100L, 3},
                      std::tuple{0L, 100L, 16}, std::tuple{5L, 7L, 4},
                      std::tuple{0L, 0L, 4}, std::tuple{-10L, 10L, 7},
                      std::tuple{0L, 1L, 8}, std::tuple{3L, 64L, 61}));

TEST(Partition, EmptyWhenMoreRanksThanWork) {
  int nonempty = 0;
  for (int r = 0; r < 8; ++r)
    if (!partition(0, 3, r, 8).empty()) ++nonempty;
  EXPECT_EQ(nonempty, 3);
}

// ---- WorkerTeam ------------------------------------------------------------

TEST(WorkerTeam, RunsEveryRankExactlyOnce) {
  WorkerTeam team(4);
  std::vector<std::atomic<int>> hits(4);
  team.run([&](int rank) { hits[static_cast<std::size_t>(rank)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerTeam, ReusableAcrossManyRuns) {
  WorkerTeam team(3);
  std::atomic<int> total{0};
  for (int it = 0; it < 50; ++it) team.run([&](int) { total++; });
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerTeam, PropagatesWorkerExceptionToMaster) {
  WorkerTeam team(2);
  EXPECT_THROW(team.run([&](int rank) {
    if (rank == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // Team survives a throwing run.
  std::atomic<int> n{0};
  team.run([&](int) { n++; });
  EXPECT_EQ(n.load(), 2);
}

TEST(WorkerTeam, BarrierSeparatesPhases) {
  WorkerTeam team(4);
  std::vector<int> phase1(4, 0);
  std::atomic<bool> violated{false};
  team.run([&](int rank) {
    phase1[static_cast<std::size_t>(rank)] = 1;
    team.barrier();
    // After the barrier every rank must observe every phase-1 write.
    for (int v : phase1)
      if (v != 1) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(WorkerTeam, WarmupOptionStillRunsWork) {
  WorkerTeam team(2, TeamOptions{BarrierKind::CondVar, 10000});
  std::atomic<int> n{0};
  team.run([&](int) { n++; });
  EXPECT_EQ(n.load(), 2);
}

// run() is templated over the callable (type-erased to a function pointer
// internally, not std::function), so any callable shape must behave the same:
// generic lambda, capturing lambda, mutable functor, and an actual
// std::function passed straight through.
TEST(WorkerTeam, TemplatedRunAcceptsAnyCallableWithIdenticalResults) {
  WorkerTeam team(4);
  auto compute = [](int rank) { return std::sin(static_cast<double>(rank + 1)); };

  std::vector<double> from_lambda(4, 0.0);
  team.run([&](int rank) {
    from_lambda[static_cast<std::size_t>(rank)] = compute(rank);
  });

  std::vector<double> from_function(4, 0.0);
  const std::function<void(int)> fn = [&](int rank) {
    from_function[static_cast<std::size_t>(rank)] = compute(rank);
  };
  team.run(fn);

  struct Functor {
    std::vector<double>* out;
    std::atomic<int> calls{0};
    void operator()(int rank) {
      calls.fetch_add(1, std::memory_order_relaxed);
      (*out)[static_cast<std::size_t>(rank)] =
          std::sin(static_cast<double>(rank + 1));
    }
  };
  std::vector<double> from_functor(4, 0.0);
  Functor functor{&from_functor};
  team.run(functor);
  // run() must have invoked the caller's object, not a copy.
  EXPECT_EQ(functor.calls.load(), 4);

  for (int r = 0; r < 4; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(from_lambda[i], from_function[i]);
    EXPECT_EQ(from_lambda[i], from_functor[i]);
  }
}

class BarrierKinds : public ::testing::TestWithParam<BarrierKind> {};

TEST_P(BarrierKinds, ManyIterationsStayInLockstep) {
  WorkerTeam team(4, TeamOptions{GetParam(), 0});
  std::vector<std::atomic<long>> step(4);
  std::atomic<bool> violated{false};
  team.run([&](int rank) {
    for (long s = 0; s < 200; ++s) {
      step[static_cast<std::size_t>(rank)] = s;
      team.barrier();
      for (const auto& other : step)
        if (other.load() < s) violated = true;
      team.barrier();
    }
  });
  EXPECT_FALSE(violated.load());
}

INSTANTIATE_TEST_SUITE_P(Both, BarrierKinds,
                         ::testing::Values(BarrierKind::CondVar,
                                           BarrierKind::SpinSense));

// Every (barrier kind x schedule) combination must rethrow a worker
// exception to the master, leave the team usable, and run a correct
// scheduled loop immediately afterwards — a throwing rank abandons its
// claiming loop, so the queue-drain path is exercised too.
class BarrierBySchedule
    : public ::testing::TestWithParam<std::tuple<BarrierKind, Schedule>> {};

TEST_P(BarrierBySchedule, WorkerExceptionRethrowsAndTeamRecovers) {
  const auto [kind, sched] = GetParam();
  WorkerTeam team(4, TeamOptions{kind, 0, sched});
  EXPECT_EQ(team.schedule().kind, sched.kind);

  EXPECT_THROW(
      parallel_for(team, 0, 1000,
                   [&](long i) {
                     if (i == 437) throw std::runtime_error("boom");
                   }),
      std::runtime_error);

  // The team (and the default-schedule path through team.schedule()) must
  // still produce exactly-once coverage after the aborted run.
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(team, 0, 1000,
               [&](long i) { hits[static_cast<std::size_t>(i)]++; });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);

  // Reductions stay deterministic on the recovered team.
  auto body = [](long i) { return std::cos(static_cast<double>(i)); };
  EXPECT_EQ(parallel_reduce_sum(team, 0, 5000, body),
            parallel_reduce_sum(team, 0, 5000, body));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BarrierBySchedule,
    ::testing::Combine(::testing::Values(BarrierKind::CondVar,
                                         BarrierKind::SpinSense),
                       ::testing::Values(Schedule::static_(),
                                         Schedule::dynamic(16),
                                         Schedule::guided())));

// ---- ParallelRegion / spmd -------------------------------------------------

// The in-region collectives promise bit-identical results to their forked
// counterparts for a fixed schedule and team size — that is the property the
// fused time-step drivers rest on (test_differential then checks it end to
// end per benchmark).  Exercised here per schedule kind because Static and
// Dynamic/Guided take entirely different code paths (partition vs. re-armed
// ChunkQueue; rank-order vs. chunk-order combine).
class SpmdBySchedule : public ::testing::TestWithParam<Schedule> {};

TEST_P(SpmdBySchedule, InRegionCollectivesMatchForkedPrimitives) {
  const Schedule sched = GetParam();
  const long n = 10007;  // prime extent: uneven blocks, ragged chunk tail
  WorkerTeam team(4);
  auto body = [](long i) { return std::sin(static_cast<double>(i)) * 1e-3; };

  std::vector<double> forked_vals(static_cast<std::size_t>(n), 0.0);
  parallel_for(team, sched, 0, n, [&](long i) {
    forked_vals[static_cast<std::size_t>(i)] = body(i);
  });
  const double forked_sum = parallel_reduce_sum(team, sched, 0, n, body);

  std::vector<double> fused_vals(static_cast<std::size_t>(n), 0.0);
  std::vector<std::atomic<int>> range_hits(static_cast<std::size_t>(n));
  double fused_sum = 0.0, fused_dot = 0.0;
  spmd(team, [&](ParallelRegion& rg, int rank) {
    rg.for_each(rank, sched, 0, n, [&](long i) {
      fused_vals[static_cast<std::size_t>(i)] = body(i);
    });
    rg.ranges(rank, sched, 0, n, [&](int, long lo, long hi) {
      for (long i = lo; i < hi; ++i)
        range_hits[static_cast<std::size_t>(i)]++;
    });
    const double s = rg.reduce_sum(rank, sched, 0, n, body);
    // Rank-ordered scalar combine: every rank must get the same total back.
    const Range r = partition(0, n, rank, rg.size());
    double mine = 0.0;
    for (long i = r.lo; i < r.hi; ++i) mine += body(i);
    const double d = rg.reduce_partials(rank, mine);
    if (rank == 0) {
      fused_sum = s;
      fused_dot = d;
    }
  });

  for (long i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ASSERT_EQ(fused_vals[u], forked_vals[u]) << "for_each diverged at " << i;
    ASSERT_EQ(range_hits[u].load(), 1) << "ranges missed or repeated " << i;
  }
  EXPECT_EQ(fused_sum, forked_sum)
      << "in-region reduce_sum is not bit-identical to the forked reduction";
  // reduce_partials combines in rank order, exactly like the Static forked
  // reduction over the same partition.
  EXPECT_EQ(fused_dot, parallel_reduce_sum(team, Schedule{}, 0, n, body));
}

/// A non-double reduction type: the ordered combine takes any `+=` type.
struct SumCount {
  double sum = 0.0;
  long count = 0;
  SumCount& operator+=(const SumCount& o) {
    sum += o.sum;
    count += o.count;
    return *this;
  }
};

// One step body run under the three execution shapes of par/exec.hpp:
// ranges cover every index once, single() runs once, a workspace is built
// at most once per rank, and the ordered reductions — of doubles and of a
// non-double type — are bit-identical between the forked and fused shapes
// (the serial one sums a single partial, so only its count must agree).
TEST_P(SpmdBySchedule, ExecShapesAgreeOnEveryCollective) {
  const Schedule sched = GetParam();
  const long n = 10007;
  WorkerTeam team(4);
  auto value = [](long i) { return std::sin(static_cast<double>(i)) * 1e-3; };
  struct Result {
    double sum = 0.0;
    SumCount sc;
    int singles = 0;
    int built = 0;
    bool covered = true;
  };
  auto run_shape = [&](WorkerTeam* tm, bool fused) {
    Result res;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    std::atomic<int> built{0};
    par::run(tm, fused, [&](auto& ex) {
      auto ws = ex.workspace([&] {
        built.fetch_add(1, std::memory_order_relaxed);
        return std::vector<long>(1, 0);
      });
      ex.ranges(sched, 0, n, [&](int rank, long lo, long hi) {
        ws[rank][0] += hi - lo;
        for (long i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
      });
      ex.sync();
      const double s = ex.template reduce<double>(
          sched, 0, n, [&](int, long lo, long hi) {
            double acc = 0.0;
            for (long i = lo; i < hi; ++i) acc += value(i);
            return acc;
          });
      const SumCount c = ex.template reduce<SumCount>(
          sched, 0, n, [&](int, long lo, long hi) {
            SumCount acc;
            for (long i = lo; i < hi; ++i) {
              acc.sum += value(i);
              ++acc.count;
            }
            return acc;
          });
      ex.single([&] {
        res.sum = s;
        res.sc = c;
        ++res.singles;
      });
    });
    for (auto& h : hits) res.covered = res.covered && h.load() == 1;
    res.built = built.load();
    return res;
  };

  const Result serial = run_shape(nullptr, false);
  const Result forked = run_shape(&team, false);
  const Result fused = run_shape(&team, true);
  for (const Result* r : {&serial, &forked, &fused}) {
    EXPECT_TRUE(r->covered);
    EXPECT_EQ(r->singles, 1);
    EXPECT_EQ(r->sc.count, n);
  }
  EXPECT_EQ(serial.built, 1);
  EXPECT_LE(forked.built, team.size());
  EXPECT_EQ(fused.built, team.size());
  EXPECT_EQ(forked.sum, fused.sum);
  EXPECT_EQ(forked.sc.sum, fused.sc.sum);
  EXPECT_EQ(forked.sum, parallel_reduce_sum(team, sched, 0, n, value));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpmdBySchedule,
    ::testing::Values(Schedule::static_(), Schedule::dynamic(64),
                      Schedule::guided()),
    [](const ::testing::TestParamInfo<Schedule>& info) {
      return to_string(info.param.kind);
    });

TEST(Spmd, BackToBackRegionsOnOneTeamStayCorrect) {
  WorkerTeam team(3);
  std::vector<std::atomic<int>> hits(500);
  for (int round = 0; round < 20; ++round) {
    spmd(team, [&](ParallelRegion& rg, int rank) {
      rg.for_each(rank, Schedule::dynamic(8), 0, 500,
                  [&](long i) { hits[static_cast<std::size_t>(i)]++; });
    });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 20);
}

// A rank throwing *between* in-region barriers is the hard failure mode of
// fusion: its siblings are parked at (or headed for) a barrier the thrower
// will never reach.  The abortable barrier must release them, spmd() must
// rethrow the original exception on the master, and the team — including its
// barrier, which was poisoned mid-region — must come back fully usable.
class SpmdAbort : public ::testing::TestWithParam<BarrierKind> {};

TEST_P(SpmdAbort, WorkerThrowBetweenBarriersRethrowsAndTeamRecovers) {
  WorkerTeam team(4, TeamOptions{GetParam(), 0});
  std::atomic<int> reached_tail{0};
  EXPECT_THROW(
      spmd(team,
           [&](ParallelRegion& rg, int rank) {
             rg.barrier();
             if (rank == 2) throw std::runtime_error("boom");
             rg.barrier();  // siblings park here; abort() releases them
             reached_tail++;
             rg.barrier();
           }),
      std::runtime_error);
  EXPECT_EQ(reached_tail.load(), 0)
      << "a rank ran past the aborted barrier instead of unwinding";

  // The poisoned barrier was reset by the rethrow path: a fresh fused region
  // with scheduled collectives and a plain forked loop must both work.
  std::vector<std::atomic<int>> hits(1000);
  double sum = 0.0;
  spmd(team, [&](ParallelRegion& rg, int rank) {
    rg.for_each(rank, Schedule::dynamic(16), 0, 1000,
                [&](long i) { hits[static_cast<std::size_t>(i)]++; });
    const double s = rg.reduce_sum(rank, Schedule{}, 0, 1000, [](long i) {
      return std::cos(static_cast<double>(i));
    });
    if (rank == 0) sum = s;
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(sum, parallel_reduce_sum(team, Schedule{}, 0, 1000, [](long i) {
              return std::cos(static_cast<double>(i));
            }));
}

INSTANTIATE_TEST_SUITE_P(Both, SpmdAbort,
                         ::testing::Values(BarrierKind::CondVar,
                                           BarrierKind::SpinSense));

// Barrier::abort() must be idempotent under concurrent aborts — several
// ranks throwing in the same region, or a rank racing the watchdog thread,
// all poison the same barrier.  Exactly one abort epoch may result: waiters
// get released once, every racer's abort() returns, and one reset() restores
// the barrier to full service.
class BarrierConcurrentAbort : public ::testing::TestWithParam<BarrierKind> {};

TEST_P(BarrierConcurrentAbort, ManyConcurrentAbortsActAsOne) {
  constexpr int kWaiters = 3;
  constexpr int kAborters = 8;
  for (int round = 0; round < 25; ++round) {
    // n = kWaiters + 1: the extra participant never arrives, so the waiters
    // can only be released by the racing abort() calls.
    auto barrier = make_barrier(GetParam(), kWaiters + 1);
    std::atomic<int> released{0};
    std::vector<std::thread> threads;
    threads.reserve(kWaiters + kAborters);
    for (int w = 0; w < kWaiters; ++w)
      threads.emplace_back([&] {
        if (!barrier->arrive_and_wait()) released.fetch_add(1);
      });
    for (int a = 0; a < kAborters; ++a)
      threads.emplace_back([&] { barrier->abort(); });
    for (auto& t : threads) t.join();
    EXPECT_EQ(released.load(), kWaiters);
    EXPECT_TRUE(barrier->aborted());
    // Late arrivals into a poisoned barrier bounce straight out.
    EXPECT_FALSE(barrier->arrive_and_wait());

    // One reset clears all racers' worth of poison and the partial count.
    barrier->reset();
    EXPECT_FALSE(barrier->aborted());
    std::vector<std::thread> again;
    std::atomic<int> passed{0};
    again.reserve(kWaiters + 1);
    for (int w = 0; w < kWaiters + 1; ++w)
      again.emplace_back([&] {
        if (barrier->arrive_and_wait()) passed.fetch_add(1);
      });
    for (auto& t : again) t.join();
    EXPECT_EQ(passed.load(), kWaiters + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Both, BarrierConcurrentAbort,
                         ::testing::Values(BarrierKind::CondVar,
                                           BarrierKind::SpinSense));

// The team-level variant: several ranks throwing in one region race their
// abort() calls through worker_main; the master must see exactly one failure,
// and the team must come back reusable.
TEST(SpmdConcurrentAbort, MultipleThrowingRanksRecoverCleanly) {
  WorkerTeam team(4);
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(spmd(team,
                      [&](ParallelRegion& rg, int rank) {
                        rg.barrier();
                        if (rank != 0) throw std::runtime_error("boom");
                        rg.barrier();
                      }),
                 std::runtime_error);
    std::atomic<int> ran{0};
    team.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
  }
}

// ---- parallel_for / reduce -------------------------------------------------

TEST(ParallelFor, TouchesEachIndexOnce) {
  WorkerTeam team(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(team, 0, 1000, [&](long i) { hits[static_cast<std::size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRanges, RanksSeeTheirOwnBlock) {
  WorkerTeam team(4);
  std::vector<Range> got(4);
  parallel_ranges(team, 10, 110, [&](int rank, long lo, long hi) {
    got[static_cast<std::size_t>(rank)] = {lo, hi};
  });
  long covered = 0;
  for (const Range& r : got) covered += r.size();
  EXPECT_EQ(covered, 100);
}

TEST(ParallelReduce, MatchesSerialSum) {
  WorkerTeam team(4);
  const double par = parallel_reduce_sum(team, 1, 100001, [](long i) {
    return 1.0 / static_cast<double>(i);
  });
  double ser = 0.0;
  for (long i = 1; i < 100001; ++i) ser += 1.0 / static_cast<double>(i);
  EXPECT_NEAR(par, ser, 1e-9);
}

TEST(ParallelReduce, DeterministicForFixedThreadCount) {
  WorkerTeam team(4);
  auto body = [](long i) { return std::sin(static_cast<double>(i)); };
  const double a = parallel_reduce_sum(team, 0, 50000, body);
  const double b = parallel_reduce_sum(team, 0, 50000, body);
  EXPECT_EQ(a, b);
}

// Regression for the scratch-buffer reduction: the partials must be combined
// in rank order (bitwise-reproducible against a hand-rolled rank-ordered
// sum), and the scratch is the team's own reusable buffer, not a fresh
// allocation per call.
TEST(ParallelReduce, CombinesPartialsInRankOrderUsingTeamScratch) {
  const int nthreads = 3;
  const long lo = 0, hi = 10007;  // prime extent: uneven blocks
  WorkerTeam team(nthreads);
  auto body = [](long i) { return std::sin(static_cast<double>(i)) * 1e-3; };

  double expected = 0.0;
  for (int rank = 0; rank < nthreads; ++rank) {
    const Range r = partition(lo, hi, rank, nthreads);
    double s = 0.0;
    for (long i = r.lo; i < r.hi; ++i) s += body(i);
    expected += s;  // rank order, like the master's combine loop
  }
  EXPECT_EQ(parallel_reduce_sum(team, lo, hi, body), expected);

  detail::PaddedDouble* scratch = team.reduce_scratch();
  parallel_reduce_sum(team, lo, hi, body);
  EXPECT_EQ(team.reduce_scratch(), scratch)
      << "reduction must reuse the per-team scratch buffer";
}

// ---- PipelineSync ----------------------------------------------------------

TEST(PipelineSync, OrdersNeighbourSteps) {
  const int n = 4;
  const long steps = 100;
  WorkerTeam team(n);
  PipelineSync sync(n);
  sync.reset();
  // Each rank advances only after its left neighbour passed the same step;
  // post() releases the progress store, wait_for() acquires it.
  std::vector<std::atomic<long>> progress(static_cast<std::size_t>(n));
  for (auto& p : progress) p = -1;
  std::atomic<bool> violated{false};
  team.run([&](int rank) {
    for (long s = 0; s < steps; ++s) {
      if (rank > 0) {
        sync.wait_for(rank - 1, s);
        if (progress[static_cast<std::size_t>(rank - 1)].load(
                std::memory_order_relaxed) < s)
          violated = true;
      }
      progress[static_cast<std::size_t>(rank)].store(s, std::memory_order_relaxed);
      sync.post(rank, s);
    }
  });
  EXPECT_FALSE(violated.load());
  for (auto& p : progress) EXPECT_EQ(p.load(), steps - 1);
}

TEST(PipelineSync, ResetAllowsReuse) {
  PipelineSync sync(2);
  sync.post(0, 5);
  sync.wait_for(0, 5);  // returns immediately
  sync.reset();
  sync.post(0, 0);
  sync.wait_for(0, 0);
  SUCCEED();
}

}  // namespace
}  // namespace npb
