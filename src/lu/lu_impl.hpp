#pragma once

// Kernel template for LU; explicitly instantiated in lu_native.cpp and
// lu_java.cpp (see ep_impl.hpp for the pattern).

#include <algorithm>

#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/exec.hpp"
#include "par/pipeline.hpp"
#include "par/team.hpp"
#include "pseudoapp/app.hpp"
#include "pseudoapp/block_impl.hpp"
#include "pseudoapp/field_impl.hpp"

namespace npb::lu_detail {

using namespace pseudoapp;

inline constexpr double kOmega = 1.2;  ///< SSOR relaxation (NPB uses 1.2)

/// Sweep directions: the lower sweep (NPB jacld/blts) couples each cell to
/// its p - e_d neighbours, the upper sweep (jacu/buts) to its p + e_d ones.
inline constexpr int kLower = -1;
inline constexpr int kUpper = +1;

template <class P>
using CellVec = FixedArray<double, kComps, P>;

/// tv -= N v (lower) or tv += N v (upper) for the neighbour n = p + S e_d,
/// with N = omega * dt * (S * phi * Ad / 2h - nu/h^2 I) the neighbour
/// coupling block (NPB jacld/jacu).  Each entry of N is computed at its
/// use, so the block never goes through memory; v is read once.
template <int S, class P>
[[gnu::always_inline]] inline void couple(const Fields<P>& f, const Mat5& Ad, double ph,
                                          double dt, std::size_t ni, std::size_t nj,
                                          std::size_t nk, CellVec<P>& tv) {
  const double s = S;
  const double inv2h = 1.0 / (2.0 * f.h);
  const double invh2 = 1.0 / (f.h * f.h);
  CellVec<P> v;
  NPB_FIXED_FOR(P, (int l = 0; l < kComps; ++l), {
    v[static_cast<std::size_t>(l)] = f.rhs(ni, nj, nk, static_cast<std::size_t>(l));
  })
  NPB_FIXED_FOR(P, (int m = 0; m < kComps; ++m), {
    double sum = 0.0;
    NPB_FIXED_FOR(P, (int l = 0; l < kComps; ++l), {
      const double conv = s * ph * Ad[static_cast<std::size_t>(m * kComps + l)] * inv2h;
      const double diff = m == l ? f.sys.nu * invh2 : 0.0;
      const double nml = kOmega * dt * (conv - diff);
      sum += nml * v[static_cast<std::size_t>(l)];
      P::flops(5);
      P::muladds(1);
    })
    if constexpr (S == kLower)
      tv[static_cast<std::size_t>(m)] -= sum;
    else
      tv[static_cast<std::size_t>(m)] += sum;
    P::flops(11);
  })
}

/// Relaxes cell (i, j, k) in sweep direction S.  Lower (NPB blts):
/// rhs(p) = D^{-1} (dt*rhs(p) - sum of lower-neighbour couplings).  Upper
/// (NPB buts): rhs(p) -= D^{-1} (sum of upper-neighbour couplings).  The
/// diagonal block D = I + dt (6 nu/h^2 + 18 eps4) I + dt sigma phi B is
/// built and factored afresh for every cell, as NPB does.
template <int S, class P>
void relax_cell(Fields<P>& f, double dt, long i, long j, long k) {
  const auto I = static_cast<std::size_t>(i);
  const auto J = static_cast<std::size_t>(j);
  const auto K = static_cast<std::size_t>(k);
  const double ph = f.phi(I, J, K);
  CellVec<P> tv;
  if constexpr (S == kLower) {
    NPB_FIXED_FOR(P, (int m = 0; m < kComps; ++m), {
      tv[static_cast<std::size_t>(m)] = dt * f.rhs(I, J, K, static_cast<std::size_t>(m));
    })
  }
  const auto nb = [](std::size_t c) { return S == kLower ? c - 1 : c + 1; };
  couple<S>(f, f.sys.ax, ph, dt, nb(I), J, K, tv);
  couple<S>(f, f.sys.ay, ph, dt, I, nb(J), K, tv);
  couple<S>(f, f.sys.az, ph, dt, I, J, nb(K), tv);

  FixedArray<double, 25, P> d;
  const double invh2 = 1.0 / (f.h * f.h);
  const double diag = 1.0 + dt * (6.0 * f.sys.nu * invh2 + 18.0 * f.sys.eps4);
  NPB_FIXED_FOR(P, (int r = 0; r < kComps; ++r), {
    NPB_FIXED_FOR(P, (int c = 0; c < kComps; ++c), {
      const auto e = static_cast<std::size_t>(r * kComps + c);
      d[e] = (r == c ? diag : 0.0) + dt * f.sys.sigma * ph * f.sys.reaction[e];
      P::flops(3);
    })
  })
  lu5_factor<P>(d, 0);
  lu5_solve_vec<P>(d, 0, tv, 0);
  NPB_FIXED_FOR(P, (int m = 0; m < kComps; ++m), {
    if constexpr (S == kLower)
      f.rhs(I, J, K, static_cast<std::size_t>(m)) = tv[static_cast<std::size_t>(m)];
    else
      f.rhs(I, J, K, static_cast<std::size_t>(m)) -= tv[static_cast<std::size_t>(m)];
  })
}

/// The interior-cell update u += tmp * rhs over i-planes [lo, hi).
template <class P>
void add_planes(Fields<P>& f, double tmp, long lo, long hi) {
  const long n = f.n;
  for (long i = lo; i < hi; ++i)
    for (long j = 1; j < n - 1; ++j)
      for (long k = 1; k < n - 1; ++k)
        for (int m = 0; m < kComps; ++m)
          f.u(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
              static_cast<std::size_t>(k), static_cast<std::size_t>(m)) +=
              tmp * f.rhs(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                          static_cast<std::size_t>(k), static_cast<std::size_t>(m));
}

/// LU's NPB-style section timers, interned in report order.
struct LuRegions {
  obs::RegionId rhs = obs::region("LU/rhs");
  obs::RegionId lower = obs::region("LU/lower");
  obs::RegionId upper = obs::region("LU/upper");
  obs::RegionId add = obs::region("LU/add");
};

/// The driver both LU variants share: set-up, the SSOR step loop and the
/// final norms.  Each step computes the rhs over static slabs, then runs
/// sweeps(rx, f, dt, slab) and the correction as one rank-resident section
/// (its own dispatch when forked, part of the step's region when fused);
/// `sweeps` leaves every rank's writes published (it ends on a barrier).
/// pre(team) runs once per step before the section (pipeline resets).  The
/// serial shape runs the same sweeps as rank 0 of 1.
template <class P, class Pre, class Sweeps>
AppOutput lu_drive(const AppParams& prm, const par::Launch& run,
                   const LuRegions& regions, const Pre& pre,
                   const Sweeps& sweeps) {
  // Team before the fields: under FirstTouch each rank commits the
  // k-plane slabs it will sweep, instead of every page faulting in on
  // the master during init_fields.
  TeamRef team_ref(run.threads, run.topts, run.pooled);
  WorkerTeam* team = team_ref.get();
  // Loops here partition statically whatever the team's default schedule.
  const mem::ScopedTeamPlacement placement(team, Schedule{});

  Fields<P> f(prm.n);
  init_fields(f);
  const long n = prm.n;
  const double dt = prm.dt;
  const double tmp = 1.0 / (kOmega * (2.0 - kOmega));

  auto rhs = [&](auto& ex) {
    ex.ranges(Schedule{}, 1, n - 1,
              [&](int, long lo, long hi) { compute_rhs_planes(f, lo, hi); });
  };

  AppOutput out;
  par::run(team, false, rhs);
  out.rhs_initial = rhs_norms(f);
  out.err_initial = error_norms(f);

  // One SSOR time step is the retry unit; u is the only cross-step state
  // (rhs is rebuilt from u each attempt), so the checkpoint is just u.
  fault::Checkpoint ckpt;
  ckpt.add(f.u.data(), f.u.size() * sizeof(double));
  fault::Steps steps(team, run.fused, ckpt);

  const double t0 = wtime();
  for (int it = 0; it < prm.iterations; ++it) {
    // Forked: an rhs dispatch, then one region for the sweeps and the add
    // (2 dispatches per step).  Fused: all of it in one region, the rhs
    // published by one more barrier.
    steps.step(it, [&](auto& ex) {
      {
        obs::ScopedTimer ot(regions.rhs);
        rhs(ex);
      }
      ex.single([&] { pre(ex.team()); });
      ex.sync();  // publishes the rhs planes and the pre-step state
      ex.region([&](auto& rx) {
        const Range ir = partition(1, n - 1, rx.rank(), rx.size());
        sweeps(rx, f, dt, ir);
        obs::ScopedTimer ot(regions.add);
        add_planes(f, tmp, ir.lo, ir.hi);
      });
    });
  }
  out.seconds = wtime() - t0;

  par::run(team, false, rhs);
  out.rhs_final = rhs_norms(f);
  out.err_final = error_norms(f);
  return out;
}

/// The pipelined LU: SSOR sweeps wavefront-ordered over i-planes, each rank
/// owning a j-slab — the paper's LU signature, synchronization *inside* the
/// loop over one grid dimension (point-to-point PipelineSync handoffs, one
/// barrier between the lower and upper sweeps).  Phase timers run per rank,
/// so LU/lower and LU/upper report per-rank pipeline skew.
template <class P>
AppOutput lu_run(const AppParams& prm, const par::Launch& run) {
  const LuRegions regions;
  const int width = run.threads > 0 ? run.threads : 1;
  PipelineSync sync_lower(width);
  PipelineSync sync_upper(width);
  // Wavefront waits must unwind as RegionAborted when a fault kills the
  // region mid-pipeline; point the spin loops at the team actually running
  // this attempt (it changes after degradation).  Ranks above a degraded
  // width leave their cells idle.
  auto pre = [&](WorkerTeam* tm) {
    sync_lower.reset();
    sync_upper.reset();
    sync_lower.set_abort_source(tm);
    sync_upper.set_abort_source(tm);
  };
  auto sweeps = [&](auto& rx, Fields<P>& f, double dt, Range jr) {
    const int rank = rx.rank();
    const int nt = rx.size();
    const long n = f.n;
    {
      obs::ScopedTimer ot(regions.lower);
      for (long i = 1; i < n - 1; ++i) {
        if (rank > 0) sync_lower.wait_for(rank - 1, i);
        for (long j = jr.lo; j < jr.hi; ++j)
          for (long k = 1; k < n - 1; ++k) relax_cell<kLower>(f, dt, i, j, k);
        sync_lower.post(rank, i);
      }
    }
    rx.sync();
    {
      obs::ScopedTimer ot(regions.upper);
      for (long i = n - 2; i >= 1; --i) {
        const long step = (n - 2) - i;
        if (rank < nt - 1) sync_upper.wait_for(rank + 1, step);
        for (long j = jr.hi - 1; j >= jr.lo; --j)
          for (long k = n - 2; k >= 1; --k) relax_cell<kUpper>(f, dt, i, j, k);
        sync_upper.post(rank, step);
      }
    }
    rx.sync();
  };
  return lu_drive<P>(prm, run, regions, pre, sweeps);
}

/// The LU-HP variant (NPB ships it alongside the pipelined LU): sweeps run
/// over hyperplanes i+j+k = l, whose cells are mutually independent, with a
/// team barrier between consecutive hyperplanes instead of point-to-point
/// pipelining (~6n barriers per iteration versus the pipelined version's
/// ~2n handoffs).  Both orders are topological for the SSOR dependency DAG,
/// so the results are bitwise identical to lu_run's — only the
/// synchronization pattern (and hence scalability) differs.
template <class P>
AppOutput lu_run_hp(const AppParams& prm, const par::Launch& run) {
  const LuRegions regions;
  auto sweeps = [&](auto& rx, Fields<P>& f, double dt, Range ir) {
    const long hi = f.n - 2;  // interior indices 1..hi
    // Visits every cell of hyperplane i+j+k == l whose i lies in ir.
    auto plane_cells = [&](long l, auto&& cell) {
      const long imin = std::max(1L, l - 2 * hi);
      const long imax = std::min(hi, l - 2);
      for (long i = std::max(imin, ir.lo); i <= std::min(imax, ir.hi - 1); ++i) {
        const long jmin = std::max(1L, l - i - hi);
        const long jmax = std::min(hi, l - i - 1);
        for (long j = jmin; j <= jmax; ++j) cell(i, j, l - i - j);
      }
    };
    {
      obs::ScopedTimer ot(regions.lower);
      for (long l = 3; l <= 3 * hi; ++l) {
        plane_cells(l, [&](long i, long j, long k) { relax_cell<kLower>(f, dt, i, j, k); });
        rx.sync();
      }
    }
    obs::ScopedTimer ot(regions.upper);
    for (long l = 3 * hi; l >= 3; --l) {
      plane_cells(l, [&](long i, long j, long k) { relax_cell<kUpper>(f, dt, i, j, k); });
      rx.sync();
    }
  };
  return lu_drive<P>(prm, run, regions, [](WorkerTeam*) {}, sweeps);
}

extern template AppOutput lu_run<Unchecked>(const AppParams&, const par::Launch&);
extern template AppOutput lu_run<Checked>(const AppParams&, const par::Launch&);
extern template AppOutput lu_run_hp<Unchecked>(const AppParams&, const par::Launch&);
extern template AppOutput lu_run_hp<Checked>(const AppParams&, const par::Launch&);

}  // namespace npb::lu_detail
