#pragma once

// Kernel template for CG; explicitly instantiated in cg_native.cpp and
// cg_java.cpp (see ep_impl.hpp for the pattern).

#include <algorithm>
#include <cmath>
#include <vector>

#include "array/array.hpp"
#include "cg/cg.hpp"
#include "common/randlc.hpp"
#include "common/wtime.hpp"
#include "fault/retry.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "par/exec.hpp"
#include "par/team.hpp"
#include "simd/simd.hpp"

namespace npb::cg_detail {

struct CgOutput {
  double zeta = 0.0;       ///< final eigenvalue estimate
  double rnorm = 0.0;      ///< final true residual ||x - A z||
  double zeta_sum = 0.0;   ///< sum of per-outer-iteration zetas
  double spd_probe = 0.0;  ///< min over probes of v'(A + shift I)v / v'v
  double seconds = 0.0;
};

/// CSR matrix under an access policy, so java mode pays a bounds check per
/// element touch in the sparse mat-vec exactly as the Java port did.
template <class P>
struct Csr {
  long n = 0;
  Array1<long, P> rowptr;
  Array1<int, P> colidx;
  Array1<double, P> values;
};

/// Builds the NPB-style random sparse SPD matrix, then subtracts shift on
/// the diagonal:  A = sum_i omega_i x_i x_i' + (rcond - shift) I  with
/// omega_i a geometric sequence from 1 down to rcond and x_i sparse random
/// vectors forced to include position i (value 0.5).  Serial and policy-free
/// on purpose: generation is untimed and must be identical for every mode
/// and thread count.
///
/// Assembly is flat, in the manner of NPB's sparse(): the x_i are stored
/// end to end, their entries bucketed by row with a stable counting sort,
/// and each row is summed into a dense accumulator from its bucket, then
/// gathered in column order.  Entry x_i[a] of row r = pos[a] contributes
/// omega_i x_i[a] x_i[b] to column pos[b], and a bucket lists its entries
/// in increasing i, so every matrix entry is summed from 0.0 in generation
/// order with rcond - shift added to the diagonal last — the rounding of
/// the plain per-entry accumulation, bit for bit.
template <class P>
Csr<P> make_matrix(const CgParams& p) {
  const long n = p.n;
  const auto un = static_cast<std::size_t>(n);
  double seed = kDefaultSeed;
  const double ratio = std::pow(p.rcond, 1.0 / static_cast<double>(n));
  double omega = 1.0;

  // x_i occupies [start[i], start[i + 1]) of pos/val, scaled by omegas[i].
  std::vector<std::size_t> start(un + 1, 0);
  std::vector<double> omegas(un);
  std::vector<int> pos;
  std::vector<double> val;
  pos.reserve(un * (static_cast<std::size_t>(p.nonzer) + 1));
  val.reserve(pos.capacity());

  for (long i = 0; i < n; ++i) {
    const std::size_t s = start[static_cast<std::size_t>(i)];
    // sprnvc: nonzer distinct random positions with random values.
    while (pos.size() - s < static_cast<std::size_t>(p.nonzer)) {
      const double ve = randlc(seed, kDefaultMultiplier);
      const double vl = randlc(seed, kDefaultMultiplier);
      const int idx = static_cast<int>(vl * static_cast<double>(n));
      if (idx >= n) continue;
      bool dup = false;
      for (std::size_t q = s; q < pos.size(); ++q) dup = dup || (pos[q] == idx);
      if (dup) continue;
      pos.push_back(idx);
      val.push_back(ve);
    }
    // vecset: force the diagonal contribution.
    bool has_i = false;
    for (std::size_t q = s; q < pos.size(); ++q)
      if (pos[q] == static_cast<int>(i)) {
        val[q] = 0.5;
        has_i = true;
      }
    if (!has_i) {
      pos.push_back(static_cast<int>(i));
      val.push_back(0.5);
    }
    omegas[static_cast<std::size_t>(i)] = omega;
    start[static_cast<std::size_t>(i) + 1] = pos.size();
    omega *= ratio;
  }

  // Stable counting sort of the entries by row (their position): row r's
  // entries are by_row[bucket[r] .. bucket[r + 1]), in increasing i, and
  // owner[q] is the vector x_i entry q belongs to.
  const std::size_t nent = pos.size();
  std::vector<std::size_t> bucket(un + 1, 0);
  for (const int r : pos) ++bucket[static_cast<std::size_t>(r) + 1];
  for (std::size_t r = 0; r < un; ++r) bucket[r + 1] += bucket[r];
  std::vector<std::size_t> by_row(nent);
  std::vector<int> owner(nent);
  {
    std::vector<std::size_t> next(bucket.begin(), bucket.end() - 1);
    for (std::size_t i = 0; i < un; ++i)
      for (std::size_t q = start[i]; q < start[i + 1]; ++q) {
        by_row[next[static_cast<std::size_t>(pos[q])]++] = q;
        owner[q] = static_cast<int>(i);
      }
  }

  // Outer-product accumulation (symmetric by construction), one row at a
  // time into acc; cols lists the columns the row touched.
  std::vector<double> acc(un, 0.0);
  std::vector<char> touched(un, 0);
  std::vector<int> cols;
  std::vector<long> rowptr(un + 1, 0);
  std::vector<int> colidx;
  std::vector<double> values;
  std::size_t nterms = 0;  // x_i contributes len(x_i)^2 terms; bounds nnz
  for (std::size_t i = 0; i < un; ++i) {
    const std::size_t len = start[i + 1] - start[i];
    nterms += len * len;
  }
  colidx.reserve(nterms);
  values.reserve(nterms);
  for (std::size_t r = 0; r < un; ++r) {
    cols.clear();
    for (std::size_t k = bucket[r]; k < bucket[r + 1]; ++k) {
      const std::size_t a = by_row[k];
      const auto i = static_cast<std::size_t>(owner[a]);
      const double wa = omegas[i] * val[a];
      for (std::size_t b = start[i]; b < start[i + 1]; ++b) {
        const auto c = static_cast<std::size_t>(pos[b]);
        if (!touched[c]) {
          touched[c] = 1;
          cols.push_back(pos[b]);
        }
        acc[c] += wa * val[b];
      }
    }
    acc[r] += p.rcond - p.shift;
    std::sort(cols.begin(), cols.end());
    for (const int c : cols) {
      colidx.push_back(c);
      values.push_back(acc[static_cast<std::size_t>(c)]);
      acc[static_cast<std::size_t>(c)] = 0.0;
      touched[static_cast<std::size_t>(c)] = 0;
    }
    rowptr[r + 1] = static_cast<long>(colidx.size());
  }

  const std::size_t nnz = colidx.size();
  Csr<P> m;
  m.n = n;
  m.rowptr = Array1<long, P>(un + 1);
  m.colidx = Array1<int, P>(nnz);
  m.values = Array1<double, P>(nnz);
  std::copy(rowptr.begin(), rowptr.end(), m.rowptr.data());
  std::copy(colidx.begin(), colidx.end(), m.colidx.data());
  std::copy(values.begin(), values.end(), m.values.data());
  return m;
}

/// y = A x over rows [lo, hi).
template <class P>
void spmv_rows(const Csr<P>& m, const Array1<double, P>& x, Array1<double, P>& y,
               long lo, long hi) {
  for (long i = lo; i < hi; ++i) {
    double sum = 0.0;
    const long e0 = m.rowptr[static_cast<std::size_t>(i)];
    const long e1 = m.rowptr[static_cast<std::size_t>(i + 1)];
    for (long e = e0; e < e1; ++e) {
      sum += m.values[static_cast<std::size_t>(e)] *
             x[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(e)])];
      P::muladds(1);
    }
    P::flops(2 * (e1 - e0));
    y[static_cast<std::size_t>(i)] = sum;
  }
}

template <class P>
double dot_rows(const Array1<double, P>& a, const Array1<double, P>& b, long lo,
                long hi) {
  double s = 0.0;
  for (long i = lo; i < hi; ++i) {
    s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    P::muladds(1);
  }
  P::flops(2 * (hi - lo));
  return s;
}

// ---- vec-mode kernels -------------------------------------------------------
// Hand-vectorized counterparts of spmv_rows/dot_rows for --mode=vec.  Only
// instantiated with the Unchecked policy (raw-pointer access; the bounds
// check of java mode is exactly what vectorization cannot cross).  The row
// kernel is the paper's load-imbalance loop and the repo's one genuinely
// irregular gather: column indices are data, so x is gathered lane by lane
// while the matrix values stream as aligned-friendly contiguous loads.  Both
// kernels reassociate their sums (lane accumulator + in-order hsum + tail),
// which is why vec mode verifies under a tolerance tier, not bit-identity.

template <class P>
void spmv_rows_vec(const Csr<P>& m, const Array1<double, P>& x,
                   Array1<double, P>& y, long lo, long hi) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  const double* val = m.values.data();
  const int* col = m.colidx.data();
  const double* xp = x.data();
  const long* rp = m.rowptr.data();
  double* yp = y.data();
  constexpr int W = simd::Dvec::width;
  for (long i = lo; i < hi; ++i) {
    const long e0 = rp[i];
    const long e1 = rp[i + 1];
    simd::Dvec acc = simd::Dvec::zero();
    long e = e0;
    for (; e + W <= e1; e += W) {
      simd::Dvec xv = simd::Dvec::zero();
      for (int l = 0; l < W; ++l)
        xv.set_lane(l, xp[col[e + l]]);
      acc += simd::Dvec::load(val + e) * xv;
    }
    double sum = simd::hsum(acc);
    for (; e < e1; ++e) sum += val[e] * xp[col[e]];
    P::muladds(static_cast<std::uint64_t>(e1 - e0));
    P::flops(2 * (e1 - e0));
    yp[i] = sum;
  }
}

template <class P>
double dot_rows_vec(const Array1<double, P>& a, const Array1<double, P>& b,
                    long lo, long hi) {
  static_assert(!P::kChecked, "vec kernels require unchecked access");
  P::muladds(static_cast<std::uint64_t>(hi - lo));
  P::flops(2 * (hi - lo));
  return simd::dot(a.data() + lo, b.data() + lo, hi - lo);
}

/// Scalar results of the conjugate-gradient solve, written by rank 0.
struct CgScalars {
  double pq = 0.0;     ///< x'z stash for the master (fused norm phase)
  double zz = 0.0;     ///< z'z stash (health check: NaN poison lands here)
  double rnorm = 0.0;  ///< final true residual ||x - A z||

  /// All-finite check after one outer iteration: any reduction a nan-poison
  /// spec corrupted leaves a NaN in one of these (pq feeds zeta, zz feeds
  /// the x normalization, rnorm the verification), so the step retries.
  bool healthy() const noexcept {
    return std::isfinite(pq) && std::isfinite(zz) && std::isfinite(rnorm);
  }
};

/// 25 CG iterations solving A z = x under an execution shape (par/exec.hpp);
/// leaves ||x - A z|| in sc.rnorm.  Dot products and the axpy updates run
/// over the static block partition — the dots reduce rank-ordered, so the
/// solve is deterministic under every schedule — while `sched` steers only
/// the sparse mat-vec rows, the loop whose per-row work varies with the
/// nonzero count (the paper's load-imbalance case).  Row writes are
/// disjoint, so any claim order yields the same q bit-for-bit.  Forked,
/// each loop and dot is one dispatch; fused, the whole solve stays resident
/// with barriers only where a rank reads another's rows (after the mat-vec
/// inputs change) and inside the dots.  `V` selects the hand-vectorized
/// mat-vec and dot kernels (--mode=vec); the axpy updates stay elementwise
/// either way, so the only vec-vs-native divergence is the documented
/// reduction reassociation.
template <class P, bool V = false, class Ex>
void conj_grad(const Csr<P>& m, const Array1<double, P>& x, Array1<double, P>& z,
               Array1<double, P>& r, Array1<double, P>& pvec,
               Array1<double, P>& q, int cg_iters, Ex& ex, CgScalars& sc,
               Schedule sched = {}) {
  const long n = m.n;
  const Schedule blocks{};
  auto each = [&](const auto& body) {
    ex.ranges(blocks, 0, n, [&](int, long lo, long hi) { body(lo, hi); });
  };
  auto dot = [&](const Array1<double, P>& a, const Array1<double, P>& b) {
    return ex.template reduce<double>(blocks, 0, n, [&](int, long lo, long hi) {
      if constexpr (V)
        return dot_rows_vec(a, b, lo, hi);
      else
        return dot_rows<P>(a, b, lo, hi);
    });
  };
  auto spmv = [&](const Array1<double, P>& in, Array1<double, P>& out) {
    ex.ranges(sched, 0, n, [&](int, long lo, long hi) {
      if constexpr (V)
        spmv_rows_vec(m, in, out, lo, hi);
      else
        spmv_rows(m, in, out, lo, hi);
    });
    ex.sync();  // the dots read q rows other ranks wrote
  };

  each([&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      z[static_cast<std::size_t>(i)] = 0.0;
      r[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
      pvec[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
    }
  });
  ex.sync();  // the mat-vec reads every pvec block
  double rho = dot(r, r);

  for (int it = 0; it < cg_iters; ++it) {
    spmv(pvec, q);
    const double pq = dot(pvec, q);
    const double alpha = rho / pq;
    const double rho0 = rho;
    each([&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        z[static_cast<std::size_t>(i)] += alpha * pvec[static_cast<std::size_t>(i)];
        r[static_cast<std::size_t>(i)] -= alpha * q[static_cast<std::size_t>(i)];
        P::muladds(2);
      }
      P::flops(4 * (hi - lo));
    });
    rho = dot(r, r);
    const double beta = rho / rho0;
    each([&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        pvec[static_cast<std::size_t>(i)] =
            r[static_cast<std::size_t>(i)] + beta * pvec[static_cast<std::size_t>(i)];
        P::muladds(1);
      }
      P::flops(2 * (hi - lo));
    });
    ex.sync();  // publish pvec (and, last round, z)
  }

  // True residual ||x - A z||.
  spmv(z, q);
  const double sumsq =
      ex.template reduce<double>(blocks, 0, n, [&](int, long lo, long hi) {
        double local = 0.0;
        for (long i = lo; i < hi; ++i) {
          const double d =
              x[static_cast<std::size_t>(i)] - q[static_cast<std::size_t>(i)];
          local += d * d;
        }
        return local;
      });
  ex.single([&] { sc.rnorm = std::sqrt(sumsq); });
}

template <class P, bool V = false>
CgOutput cg_run(const CgParams& p, const par::Launch& run) {
  // Thread creation happens at initialization (untimed), as in the paper —
  // and *before* any allocation, so a FirstTouch placement can fault the
  // matrix and vectors in on the ranks that will traverse them (the
  // co-location the paper's CG warm-up trick was after).
  TeamRef team_ref(run.threads, run.topts, run.pooled);
  const mem::ScopedTeamPlacement placement(team_ref.get(), run.topts.schedule);

  const Csr<P> m = make_matrix<P>(p);
  const long n = m.n;

  Array1<double, P> x(static_cast<std::size_t>(n), 1.0);
  Array1<double, P> z(static_cast<std::size_t>(n));
  Array1<double, P> r(static_cast<std::size_t>(n));
  Array1<double, P> pvec(static_cast<std::size_t>(n));
  Array1<double, P> q(static_cast<std::size_t>(n));

  CgOutput out;

  // SPD probe (untimed intrinsic check): v'(A + shift I)v / v'v should be
  // >= rcond for any v, since A + shift I = sum omega_i x_i x_i' + rcond I.
  {
    double seed = 97531.0;
    double minratio = 1.0e300;
    for (int probe = 0; probe < 3; ++probe) {
      for (long i = 0; i < n; ++i)
        z[static_cast<std::size_t>(i)] = 2.0 * randlc(seed, kDefaultMultiplier) - 1.0;
      spmv_rows(m, z, q, 0, n);
      double vav = 0.0, vv = 0.0;
      for (long i = 0; i < n; ++i) {
        vav += z[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
        vv += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
      }
      minratio = std::fmin(minratio, vav / vv + p.shift);
    }
    out.spd_probe = minratio;
  }

  CgScalars sc;
  const Schedule sched = run.topts.schedule;

  const obs::RegionId r_cg = obs::region("CG/conj_grad");
  const obs::RegionId r_norm = obs::region("CG/norm");

  // One outer iteration is the retry unit: x is the only array that
  // survives an iteration (z, r, pvec, q are rebuilt from it), so the
  // checkpoint is a single vector plus the iteration-carried scalars — sc,
  // zeta and the running zeta_sum.  Those scalars are registered as spans
  // and their accumulation happens inside the step body, so a retried step
  // rolls them back (no double-count) and a durable resume restores them
  // alongside x.
  double zeta = 0.0;
  fault::Checkpoint ckpt;
  ckpt.add(x.data(), x.size() * sizeof(double));
  ckpt.add(&sc, sizeof sc);
  ckpt.add(&zeta, sizeof zeta);
  ckpt.add(&out.zeta_sum, sizeof out.zeta_sum);
  fault::Steps steps(team_ref.get(), run.fused, ckpt);
  const auto healthy = [&] { return sc.healthy(); };

  const double t0 = wtime();
  for (int outer = 1; outer <= p.niter; ++outer) {
    // Forked, every loop and dot of the outer iteration is its own dispatch
    // (the per-loop fork/join cost the paper's overhead decomposition
    // charges against Java's model); fused, the solve and the norm phase
    // are one region.
    steps.step(outer, [&](auto& ex) {
      {
        obs::ScopedTimer ot(r_cg);
        conj_grad<P, V>(m, x, z, r, pvec, q, p.cg_iters, ex, sc, sched);
      }
      obs::ScopedTimer ot(r_norm);
      const Schedule blocks{};
      const double xz =
          ex.template reduce<double>(blocks, 0, n, [&](int, long lo, long hi) {
            return dot_rows<P>(x, z, lo, hi);
          });
      const double zz =
          ex.template reduce<double>(blocks, 0, n, [&](int, long lo, long hi) {
            return dot_rows<P>(z, z, lo, hi);
          });
      const double znorm = 1.0 / std::sqrt(zz);
      ex.ranges(blocks, 0, n, [&](int, long lo, long hi) {
        for (long i = lo; i < hi; ++i)
          x[static_cast<std::size_t>(i)] = znorm * z[static_cast<std::size_t>(i)];
      });
      ex.single([&] {
        sc.pq = xz;
        sc.zz = zz;
        zeta = p.shift + 1.0 / xz;
        out.zeta_sum += zeta;
      });
    }, healthy);
  }
  out.seconds = wtime() - t0;
  out.zeta = zeta;
  out.rnorm = sc.rnorm;
  return out;
}

extern template CgOutput cg_run<Unchecked>(const CgParams&, const par::Launch&);
extern template CgOutput cg_run<Checked>(const CgParams&, const par::Launch&);
extern template CgOutput cg_run<Unchecked, true>(const CgParams&, const par::Launch&);

}  // namespace npb::cg_detail
