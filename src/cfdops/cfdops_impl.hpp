#pragma once

// Kernel templates for the basic CFD operations; explicitly instantiated in
// cfdops_native.cpp, cfdops_java.cpp and cfdops_vec.cpp over (policy, array
// family, vectorization).

#include <cstdint>
#include <optional>

#include "array/array.hpp"
#include "array/mdarray.hpp"
#include "cfdops/cfdops.hpp"
#include "common/wtime.hpp"
#include "mem/mem.hpp"
#include "par/exec.hpp"
#include "par/team.hpp"
#include "simd/simd.hpp"

namespace npb::cfdops_detail {

/// All five kernels over one (policy, array-family, vectorization)
/// combination.  A3/A4/A5 are Array3/4/5 for the linearized translation and
/// MdArray3/4/5 for the dimension-preserving one.  V=true selects the
/// hand-vectorized inner loops (--mode=vec): lanes run along the contiguous
/// trailing dimension, which only exists for the linearized family, so vec is
/// only ever instantiated over (Unchecked, Array3/4/5).  Each timed loop runs
/// under the config's execution shape (par/exec.hpp): serially, as one
/// fork/join dispatch per repetition (fused=false, the paper's per-loop cost
/// model), or as one SPMD region whose ranks stay resident across the
/// repetitions (fused=true).  The static partition is the same in all three,
/// so checksums match bit-for-bit.
template <class P, template <class, class> class A3, template <class, class> class A4,
          template <class, class> class A5, bool V = false>
struct Kernels {
  static_assert(!V || !P::kChecked, "vec kernels require unchecked access");
  using G3 = A3<double, P>;
  using G4 = A4<double, P>;
  using G5 = A5<double, P>;

  static void fill3(G3& g, long n1, long n2, long n3, double scale) {
    for (long i = 0; i < n1; ++i)
      for (long j = 0; j < n2; ++j)
        for (long k = 0; k < n3; ++k)
          g(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
            static_cast<std::size_t>(k)) =
              scale * (0.31 * static_cast<double>(i) + 0.53 * static_cast<double>(j) +
                       0.71 * static_cast<double>(k));
  }

  static double sum3(const G3& g, long n1, long n2, long n3) {
    double s = 0.0;
    for (long i = 0; i < n1; ++i)
      for (long j = 0; j < n2; ++j)
        for (long k = 0; k < n3; ++k)
          s += g(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                 static_cast<std::size_t>(k));
    return s;
  }

  static CfdResult assignment(const CfdConfig& cfg, WorkerTeam* team) {
    G3 in(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
          static_cast<std::size_t>(cfg.n3));
    G3 out(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
           static_cast<std::size_t>(cfg.n3));
    fill3(in, cfg.n1, cfg.n2, cfg.n3, 1.0e-3);
    P::reset_counts();
    const double t0 = wtime();
    par::run(team, cfg.fused, [&](auto& ex) {
      for (int rep = 0; rep < cfg.reps; ++rep) {
        ex.ranges(Schedule{}, 0, cfg.n1, [&](int, long lo, long hi) {
          for (long i = lo; i < hi; ++i)
            for (long j = 0; j < cfg.n2; ++j) {
              const auto I = static_cast<std::size_t>(i);
              const auto J = static_cast<std::size_t>(j);
              if constexpr (V) {
                // Lane copy along the contiguous k row; bit-identical to the
                // scalar assignment (Exact tier).
                const double* ip = &in(I, J, 0);
                double* op = &out(I, J, 0);
                long k = 0;
                for (; k + simd::Dvec::width <= cfg.n3; k += simd::Dvec::width)
                  simd::store(op + k, simd::load(ip + k));
                if (k < cfg.n3)
                  simd::store_partial(op + k, static_cast<int>(cfg.n3 - k),
                                      simd::load_partial(ip + k,
                                                         static_cast<int>(cfg.n3 - k)));
              } else {
                for (long k = 0; k < cfg.n3; ++k)
                  out(I, J, static_cast<std::size_t>(k)) =
                      in(I, J, static_cast<std::size_t>(k));
              }
            }
        });
        ex.sync();
      }
    });
    const double secs = wtime() - t0;
    P::take_snapshot();
    return {secs, sum3(out, cfg.n1, cfg.n2, cfg.n3)};
  }

  static CfdResult stencil(const CfdConfig& cfg, WorkerTeam* team, int radius) {
    G3 in(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
          static_cast<std::size_t>(cfg.n3));
    G3 out(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
           static_cast<std::size_t>(cfg.n3));
    fill3(in, cfg.n1, cfg.n2, cfg.n3, 1.0e-3);
    const double c0 = radius == 1 ? 0.5 : 0.4;
    const double c1 = 1.0 / 12.0;
    const double c2 = 1.0 / 24.0;
    const long r = radius;
    P::reset_counts();
    const double t0 = wtime();
    par::run(team, cfg.fused, [&](auto& ex) {
      for (int rep = 0; rep < cfg.reps; ++rep) {
        ex.ranges(Schedule{}, r, cfg.n1 - r, [&](int, long lo, long hi) {
          for (long i = lo; i < hi; ++i)
            for (long j = r; j < cfg.n2 - r; ++j) {
              const auto I = static_cast<std::size_t>(i);
              const auto J = static_cast<std::size_t>(j);
              if constexpr (V) {
                // Lanes run along the contiguous k row; the star neighbours are
                // unit offsets within the row (k +/- d) and fixed row offsets
                // across it (i/j +/- d).  The neighbour sum replicates the scalar
                // left-to-right association per element, so any drift against
                // scalar comes only from FMA contraction (tight tier).
                const double* pc = &in(I, J, 0);
                const double* pim = &in(I - 1, J, 0);
                const double* pip = &in(I + 1, J, 0);
                const double* pjm = &in(I, J - 1, 0);
                const double* pjp = &in(I, J + 1, 0);
                // The radius-2 rows only exist (i, j >= 2) when radius == 2.
                const double* pim2 = nullptr;
                const double* pip2 = nullptr;
                const double* pjm2 = nullptr;
                const double* pjp2 = nullptr;
                if (radius == 2) {
                  pim2 = &in(I - 2, J, 0);
                  pip2 = &in(I + 2, J, 0);
                  pjm2 = &in(I, J - 2, 0);
                  pjp2 = &in(I, J + 2, 0);
                }
                double* po = &out(I, J, 0);
                const simd::Dvec vc0 = simd::Dvec::broadcast(c0);
                const simd::Dvec vc1 = simd::Dvec::broadcast(c1);
                const simd::Dvec vc2 = simd::Dvec::broadcast(c2);
                constexpr long W = simd::Dvec::width;
                long k = r;
                for (; k + W <= cfg.n3 - r; k += W) {
                  simd::Dvec nb = simd::load(pim + k) + simd::load(pip + k);
                  nb += simd::load(pjm + k);
                  nb += simd::load(pjp + k);
                  nb += simd::load(pc + k - 1);
                  nb += simd::load(pc + k + 1);
                  simd::Dvec v = vc0 * simd::load(pc + k) + vc1 * nb;
                  if (radius == 2) {
                    simd::Dvec nb2 = simd::load(pim2 + k) + simd::load(pip2 + k);
                    nb2 += simd::load(pjm2 + k);
                    nb2 += simd::load(pjp2 + k);
                    nb2 += simd::load(pc + k - 2);
                    nb2 += simd::load(pc + k + 2);
                    v += vc2 * nb2;
                  }
                  simd::store(po + k, v);
                }
                for (; k < cfg.n3 - r; ++k) {
                  const auto K = static_cast<std::size_t>(k);
                  double v = c0 * in(I, J, K) +
                             c1 * (in(I - 1, J, K) + in(I + 1, J, K) + in(I, J - 1, K) +
                                   in(I, J + 1, K) + in(I, J, K - 1) + in(I, J, K + 1));
                  if (radius == 2)
                    v += c2 * (in(I - 2, J, K) + in(I + 2, J, K) + in(I, J - 2, K) +
                               in(I, J + 2, K) + in(I, J, K - 2) + in(I, J, K + 2));
                  out(I, J, K) = v;
                }
                P::flops(static_cast<std::uint64_t>(13 + (radius == 2 ? 7 : 0)) *
                         static_cast<std::uint64_t>(cfg.n3 - 2 * r));
              } else {
                for (long k = r; k < cfg.n3 - r; ++k) {
                  const auto K = static_cast<std::size_t>(k);
                  double v = c0 * in(I, J, K) +
                             c1 * (in(I - 1, J, K) + in(I + 1, J, K) + in(I, J - 1, K) +
                                   in(I, J + 1, K) + in(I, J, K - 1) + in(I, J, K + 1));
                  P::flops(13);
                  if (radius == 2) {
                    v += c2 * (in(I - 2, J, K) + in(I + 2, J, K) + in(I, J - 2, K) +
                               in(I, J + 2, K) + in(I, J, K - 2) + in(I, J, K + 2));
                    P::flops(7);
                  }
                  out(I, J, K) = v;
                }
              }
            }
        });
        ex.sync();
      }
    });
    const double secs = wtime() - t0;
    P::take_snapshot();
    return {secs, sum3(out, cfg.n1, cfg.n2, cfg.n3)};
  }

  static CfdResult matvec(const CfdConfig& cfg, WorkerTeam* team) {
    G5 mats(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
            static_cast<std::size_t>(cfg.n3), 5, 5);
    G4 vin(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
           static_cast<std::size_t>(cfg.n3), 5);
    G4 vout(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
            static_cast<std::size_t>(cfg.n3), 5);
    for (long i = 0; i < cfg.n1; ++i)
      for (long j = 0; j < cfg.n2; ++j)
        for (long k = 0; k < cfg.n3; ++k) {
          const auto I = static_cast<std::size_t>(i);
          const auto J = static_cast<std::size_t>(j);
          const auto K = static_cast<std::size_t>(k);
          for (std::size_t m = 0; m < 5; ++m) {
            vin(I, J, K, m) = 1.0e-4 * static_cast<double>((i + 2 * j + 3 * k) % 17) +
                              0.01 * static_cast<double>(m);
            for (std::size_t l = 0; l < 5; ++l)
              mats(I, J, K, m, l) = (m == l ? 1.0 : 0.01 * static_cast<double>((i + j + k) % 5));
          }
        }
    P::reset_counts();
    const double t0 = wtime();
    par::run(team, cfg.fused, [&](auto& ex) {
      for (int rep = 0; rep < cfg.reps; ++rep) {
        ex.ranges(Schedule{}, 0, cfg.n1, [&](int, long lo, long hi) {
          for (long i = lo; i < hi; ++i)
            for (long j = 0; j < cfg.n2; ++j)
              for (long k = 0; k < cfg.n3; ++k) {
                const auto I = static_cast<std::size_t>(i);
                const auto J = static_cast<std::size_t>(j);
                const auto K = static_cast<std::size_t>(k);
                if constexpr (V) {
                  // Each 5-term row dot runs as a lane dot over the contiguous
                  // matrix row against the contiguous 5-vector (reassociates;
                  // the vec tolerance tier bounds the checksum drift).
                  const double* mp = &mats(I, J, K, 0, 0);
                  const double* xp = &vin(I, J, K, 0);
                  double* yp = &vout(I, J, K, 0);
                  for (int m = 0; m < 5; ++m)
                    yp[m] = simd::dot(mp + m * 5, xp, 5);
                  P::muladds(25);
                  P::flops(50);
                } else {
                  for (std::size_t m = 0; m < 5; ++m) {
                    double s = 0.0;
                    for (std::size_t l = 0; l < 5; ++l) {
                      s += mats(I, J, K, m, l) * vin(I, J, K, l);
                      P::muladds(1);
                    }
                    vout(I, J, K, m) = s;
                    P::flops(10);
                  }
                }
              }
        });
        ex.sync();
      }
    });
    const double secs = wtime() - t0;
    P::take_snapshot();
    double chk = 0.0;
    for (long i = 0; i < cfg.n1; ++i)
      for (long j = 0; j < cfg.n2; ++j)
        for (long k = 0; k < cfg.n3; ++k)
          for (std::size_t m = 0; m < 5; ++m)
            chk += vout(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                        static_cast<std::size_t>(k), m);
    return {secs, chk};
  }

  static CfdResult reduction(const CfdConfig& cfg, WorkerTeam* team) {
    G4 q(static_cast<std::size_t>(cfg.n1), static_cast<std::size_t>(cfg.n2),
         static_cast<std::size_t>(cfg.n3), 5);
    for (long i = 0; i < cfg.n1; ++i)
      for (long j = 0; j < cfg.n2; ++j)
        for (long k = 0; k < cfg.n3; ++k)
          for (std::size_t m = 0; m < 5; ++m)
            q(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
              static_cast<std::size_t>(k), m) =
                1.0e-6 * static_cast<double>((3 * i + 5 * j + 7 * k + 11 * static_cast<long>(m)) % 101);
    double total = 0.0;
    auto body = [&](long lo, long hi) -> double {
      if constexpr (V) {
        // Each rank's block q[lo..hi) x n2 x n3 x 5 is one contiguous run of
        // the linearized array; sum it with the lane accumulator + in-order
        // hsum (reassociates within the rank; the rank combine order is
        // unchanged, so fused and forked still agree bit-for-bit).
        const long row = cfg.n2 * cfg.n3 * 5;
        double s = 0.0;
        for (long i = lo; i < hi; ++i)
          s += simd::sum(&q(static_cast<std::size_t>(i), 0, 0, 0), row);
        P::flops(static_cast<std::uint64_t>((hi - lo) * row));
        return s;
      } else {
        double s = 0.0;
        for (long i = lo; i < hi; ++i)
          for (long j = 0; j < cfg.n2; ++j)
            for (long k = 0; k < cfg.n3; ++k)
              for (std::size_t m = 0; m < 5; ++m) {
                s += q(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       static_cast<std::size_t>(k), m);
                P::flops(1);
              }
        return s;
      }
    };
    P::reset_counts();
    const double t0 = wtime();
    // Rank-ordered combine of one partial per rank, the same in the forked
    // and fused shapes (bit-for-bit); serially the one partial is the sum.
    par::run(team, cfg.fused, [&](auto& ex) {
      for (int rep = 0; rep < cfg.reps; ++rep) {
        const double sum = ex.template reduce<double>(
            Schedule{}, 0, cfg.n1, [&](int, long lo, long hi) { return body(lo, hi); });
        ex.single([&] { total = sum; });
      }
    });
    const double secs = wtime() - t0;
    P::take_snapshot();
    return {secs, total};
  }

  static CfdResult run(CfdOp op, const CfdConfig& cfg) {
    const mem::ScopedMemConfig mem_scope(cfg.mem);
    std::optional<WorkerTeam> team_storage;
    if (cfg.threads > 0)
      team_storage.emplace(cfg.threads,
                           TeamOptions{cfg.barrier, cfg.warmup_spins});
    WorkerTeam* team = team_storage ? &*team_storage : nullptr;
    // cfdops kernels partition statically, so first-touch uses the default
    // static schedule too.
    const mem::ScopedTeamPlacement placement(team, Schedule{});
    switch (op) {
      case CfdOp::Assignment: return assignment(cfg, team);
      case CfdOp::FirstOrderStencil: return stencil(cfg, team, 1);
      case CfdOp::SecondOrderStencil: return stencil(cfg, team, 2);
      case CfdOp::MatVec: return matvec(cfg, team);
      case CfdOp::ReductionSum: return reduction(cfg, team);
    }
    return {};
  }
};

using LinNative = Kernels<Unchecked, Array3, Array4, Array5>;
using LinJava = Kernels<Checked, Array3, Array4, Array5>;
using LinCounting = Kernels<Counting, Array3, Array4, Array5>;
using LinVec = Kernels<Unchecked, Array3, Array4, Array5, true>;
using MdNative = Kernels<Unchecked, MdArray3, MdArray4, MdArray5>;
using MdJava = Kernels<Checked, MdArray3, MdArray4, MdArray5>;
using MdCounting = Kernels<Counting, MdArray3, MdArray4, MdArray5>;

// Instantiated in cfdops_native.cpp / cfdops_java.cpp / cfdops_vec.cpp.
extern template struct Kernels<Unchecked, Array3, Array4, Array5>;
extern template struct Kernels<Checked, Array3, Array4, Array5>;
extern template struct Kernels<Counting, Array3, Array4, Array5>;
extern template struct Kernels<Unchecked, Array3, Array4, Array5, true>;
extern template struct Kernels<Unchecked, MdArray3, MdArray4, MdArray5>;
extern template struct Kernels<Checked, MdArray3, MdArray4, MdArray5>;
extern template struct Kernels<Counting, MdArray3, MdArray4, MdArray5>;

}  // namespace npb::cfdops_detail
