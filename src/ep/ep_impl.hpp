#pragma once

// Kernel template for EP.  Explicitly instantiated in ep_native.cpp and
// ep_java.cpp under the two compile-flag environments (see the top-level
// CMakeLists for the flag sets); the extern template declarations at the
// bottom keep other translation units from instantiating it implicitly.

#include <array>
#include <cmath>
#include <cstdint>

#include "array/array.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/exec.hpp"
#include "par/team.hpp"

namespace npb::ep_detail {

inline constexpr double kEpSeed = 271828183.0;
inline constexpr long kBlockPairs = 1L << 16;
inline constexpr int kAnnuli = 10;

struct EpOutput {
  double sx = 0.0;
  double sy = 0.0;
  double accepted = 0.0;
  std::array<double, kAnnuli> q{};
  double seconds = 0.0;
};

struct BlockAccum {
  double sx = 0.0;
  double sy = 0.0;
  double accepted = 0.0;
  std::array<double, kAnnuli> q{};

  /// Field-wise sum: the ordered combine of EP's reduction.
  BlockAccum& operator+=(const BlockAccum& o) noexcept {
    sx += o.sx;
    sy += o.sy;
    accepted += o.accepted;
    for (int l = 0; l < kAnnuli; ++l)
      q[static_cast<std::size_t>(l)] += o.q[static_cast<std::size_t>(l)];
    return *this;
  }
};

/// Processes one block of kBlockPairs pairs starting at pair offset
/// block * kBlockPairs, accumulating into `acc`.  `buf` is the caller's
/// scratch of 2*kBlockPairs doubles.
template <class P>
void ep_block(long block, Array1<double, P>& buf, BlockAccum& acc) {
  const auto nvals = static_cast<std::size_t>(2 * kBlockPairs);
  double x = randlc_skip(kEpSeed, kDefaultMultiplier,
                         static_cast<unsigned long long>(block) * nvals);
  vranlc(nvals, x, kDefaultMultiplier, buf.data());

  for (long i = 0; i < kBlockPairs; ++i) {
    const double x1 = 2.0 * buf[static_cast<std::size_t>(2 * i)] - 1.0;
    const double x2 = 2.0 * buf[static_cast<std::size_t>(2 * i) + 1] - 1.0;
    const double t = x1 * x1 + x2 * x2;
    P::flops(7);
    P::muladds(2);
    if (t <= 1.0) {
      const double tf = std::sqrt(-2.0 * std::log(t) / t);
      const double gx = x1 * tf;
      const double gy = x2 * tf;
      acc.sx += gx;
      acc.sy += gy;
      const auto l = static_cast<std::size_t>(std::fmax(std::fabs(gx), std::fabs(gy)));
      acc.q[l] += 1.0;
      acc.accepted += 1.0;
      P::flops(8);
    }
  }
}

template <class P>
EpOutput ep_run(int log2_pairs, const par::Launch& run) {
  const long npairs = 1L << log2_pairs;
  const long nblocks = (npairs + kBlockPairs - 1) / kBlockPairs;

  const obs::RegionId r_blocks = obs::region("EP/blocks");

  EpOutput out;
  const double t0 = wtime();

  TeamRef team_ref(run.threads, run.topts, run.pooled);
  // EP's only buffers are per-rank block scratch allocated on the workers
  // themselves (already the right first touch); the scope keeps the mem
  // context uniform across benchmarks.
  const mem::ScopedTeamPlacement placement(team_ref.get(), run.topts.schedule);
  // EP is one shot, so the whole computation is one retry step.  The
  // combined output fields are the only carried state: the partial
  // accumulators are rebuilt per attempt, and the combined totals are
  // registered as checkpoint spans so a retry starts them over and a
  // durable resume restores the finished totals.
  fault::Checkpoint ckpt;
  ckpt.add(&out.sx, sizeof out.sx);
  ckpt.add(&out.sy, sizeof out.sy);
  ckpt.add(&out.accepted, sizeof out.accepted);
  ckpt.add(out.q.data(), out.q.size() * sizeof(double));
  // The step is one reduction and nothing else, which is one dispatch in
  // either shape; it runs forked, so its partials combine on the master
  // after the join instead of behind two region barriers.
  fault::Steps steps(team_ref.get(), /*fused=*/false, ckpt);
  steps.step(1, [&](auto& ex) {
    auto bufs = ex.workspace(
        [] { return Array1<double, P>(static_cast<std::size_t>(2 * kBlockPairs)); });
    // Blocks are independent (each seeds itself by skip-ahead), so any
    // schedule partitions them safely: one accumulator per rank (Static)
    // or per chunk (Dynamic/Guided), combined in that order, so the sums
    // do not depend on which rank wins a claim.
    const BlockAccum acc = ex.template reduce<BlockAccum>(
        run.topts.schedule, 0, nblocks, [&](int rank, long lo, long hi) {
          Array1<double, P>& buf = bufs[rank];
          obs::ScopedTimer ot(r_blocks);
          BlockAccum a;
          for (long b = lo; b < hi; ++b) ep_block<P>(b, buf, a);
          return a;
        });
    ex.single([&] {
      out.sx = acc.sx;
      out.sy = acc.sy;
      out.accepted = acc.accepted;
      out.q = acc.q;
    });
  });

  out.seconds = wtime() - t0;
  return out;
}

extern template EpOutput ep_run<Unchecked>(int, const par::Launch&);
extern template EpOutput ep_run<Checked>(int, const par::Launch&);

}  // namespace npb::ep_detail
