#pragma once

// Forked parallel loops on a WorkerTeam: one fork/join dispatch per call,
// the paper's master-workers model.  These are the standalone entry points
// (tests, the irregular suite, bench_ablation_schedule); they are the
// par::Forked execution shape (par/exec.hpp) — same per-rank loop
// (detail::run_share) and ordered combine (detail::combine_ordered) as the
// fused in-region collectives — so a loop or reduction gives the same
// result here as inside a benchmark step.

#include "par/exec.hpp"
#include "par/schedule.hpp"
#include "par/team.hpp"

namespace npb {

/// Runs body(rank, lo_r, hi_r) per assigned range under an explicit
/// schedule — used when the body wants to iterate slabs itself (stencils,
/// solves, seed-skipping generators).  Static is the paper's block
/// partition (one contiguous slab per rank); Dynamic and Guided deal chunks
/// from a shared atomic cursor so ranks that finish early keep working —
/// the knob the paper's section 5.2 load-imbalance discussion lacks.  Under
/// Static the body runs exactly once per rank with its block; under
/// Dynamic/Guided it runs once per claimed chunk, possibly several times per
/// rank, so bodies must not assume one contiguous slab per rank.  Every
/// variant records per-rank iteration counts under team/loop_iters.
template <class Body>
void parallel_ranges(WorkerTeam& team, Schedule sched, long lo, long hi,
                     const Body& body) {
  par::Forked(team).ranges(sched, lo, hi, body);
}

/// Runs body(rank, lo_r, hi_r) under the team's default schedule.
template <class Body>
void parallel_ranges(WorkerTeam& team, long lo, long hi, const Body& body) {
  parallel_ranges(team, team.schedule(), lo, hi, body);
}

/// Runs body(i) for i in [lo, hi) under an explicit loop schedule.
template <class Body>
void parallel_for(WorkerTeam& team, Schedule sched, long lo, long hi,
                  const Body& body) {
  parallel_ranges(team, sched, lo, hi, [&](int, long clo, long chi) {
    for (long i = clo; i < chi; ++i) body(i);
  });
}

/// Runs body(i) under the team's default schedule (TeamOptions::schedule).
template <class Body>
void parallel_for(WorkerTeam& team, long lo, long hi, const Body& body) {
  parallel_for(team, team.schedule(), lo, hi, body);
}

/// Sum-reduction over [lo, hi), deterministic for a fixed (schedule, thread
/// count) — bit-identical across repeated runs, whatever the claim
/// interleaving:
///   Static   per-rank partials in the team's padded scratch, combined in
///            rank order (allocation-free).
///   Dynamic/ per-chunk partials combined in chunk order.  Chunk boundaries
///   Guided   are a pure function of the claim sequence (schedule_chunks),
///            and each chunk is summed serially by whichever rank claims it,
///            so the combine sees the same addends in the same order every
///            run.  The chunk list and partials live in per-team scratch
///            (chunk_scratch / partial_scratch), so this path is also
///            allocation-free once the capacity has grown.
template <class Body>
double parallel_reduce_sum(WorkerTeam& team, Schedule sched, long lo, long hi,
                           const Body& body) {
  return par::Forked(team).reduce<double>(
      sched, lo, hi, [&](int, long clo, long chi) {
        double s = 0.0;
        for (long i = clo; i < chi; ++i) s += body(i);
        return s;
      });
}

/// Sum-reduction under the team's default schedule.
template <class Body>
double parallel_reduce_sum(WorkerTeam& team, long lo, long hi, const Body& body) {
  return parallel_reduce_sum(team, team.schedule(), lo, hi, body);
}

}  // namespace npb
