#include "lu/lu.hpp"

#include "lu/lu_impl.hpp"

namespace npb {

pseudoapp::AppParams lu_params(ProblemClass cls) noexcept {
  // NPB grid sizes and iteration counts; the SSOR pseudo-timestep is large
  // (as in NPB, where LU uses dt an order above BT/SP).
  switch (cls) {
    case ProblemClass::S: return {12, 50, 0.5};
    case ProblemClass::W: return {33, 300, 0.5};
    case ProblemClass::A: return {64, 250, 0.5};
    case ProblemClass::B: return {102, 250, 0.5};
    case ProblemClass::C: return {162, 250, 0.5};
  }
  return {12, 50, 0.5};
}

RunResult run_lu(const RunConfig& cfg) {
  using namespace lu_detail;
  const AppParams p = lu_params(cfg.cls);
  // LU's SSOR sweeps carry a point-to-point dependence through every 5x5
  // block solve (wavefront order), so --mode=vec runs the native
  // instantiation (bit-identical; Exact tier).
  const AppOutput o = run_kernel("LU", cfg, [&](auto m, const par::Launch& run) {
    return lu_run<typename decltype(m)::Policy>(p, run);
  });

  // Per point per iteration: RHS stencil (~500 flops) plus two relaxation
  // sweeps of ~600 flops each (block builds, couplings, factor, solve).
  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 1700.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("LU", cfg, o, mops);
}

RunResult run_lu_hp(const RunConfig& cfg) {
  using namespace lu_detail;
  const AppParams p = lu_params(cfg.cls);
  // Distinct checkpoint identity: LU-HP's hyperplane sweeps carry the same
  // u field but a different execution shape, so its files never collide
  // with run_lu's in a shared --ckpt-dir.
  const AppOutput o = run_kernel("LU-HP", cfg, [&](auto m, const par::Launch& run) {
    return lu_run_hp<typename decltype(m)::Policy>(p, run);
  });

  const double pts = static_cast<double>((p.n - 2)) * static_cast<double>((p.n - 2)) *
                     static_cast<double>((p.n - 2));
  const double mops =
      static_cast<double>(p.iterations) * pts * 1700.0 / (o.seconds * 1.0e6);
  return pseudoapp::finish_app("LU", cfg, o, mops);
}

}  // namespace npb
