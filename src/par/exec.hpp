#pragma once

// Execution shapes: one time-step body, three ways to run it.
//
// Every benchmark driver writes its time step once, as a generic callable
// over an execution shape `ex`:
//
//   steps.step(it, [&](auto& ex) {
//     ex.ranges(sched, 0, n, [&](int rank, long lo, long hi) { ... });
//     ex.sync();                                 // phase boundary
//     const double s = ex.template reduce<double>(sched, 0, n, partial);
//     ex.single([&] { result = s; });
//   });
//
// and the run picks the shape:
//
//   Serial  no team: every loop runs inline as rank 0 of 1.
//   Forked  the body runs on the master; every loop is one WorkerTeam::run
//           (the paper's master-workers cost model, --fused=off).
//   Fused   the body runs on every rank inside one spmd() region
//           (--fused=on); loops are in-region collectives over the rank's
//           share (par/region.hpp).
//
// The shape interface, identical in all three:
//
//   size()                      ranks the loops are shared over
//   team()                      the team (nullptr when serial)
//   ranges(sched, lo, hi, f)    f(rank, lo_r, hi_r) per static block or
//                               claimed chunk (detail::run_share).  No
//                               closing barrier: call sync() before reading
//                               another rank's writes.
//   reduce<T>(sched, lo, hi, f) ordered reduction of the partials
//                               f(rank, lo_r, hi_r) with `+=` from T{}: rank
//                               order under Static, chunk order under
//                               Dynamic/Guided; returned to every caller and
//                               a Reduce fault-injection site.
//   single(f)                   f() once: inline, or on rank 0 when fused.
//                               No barrier; the region's join publishes it.
//   sync()                      a team barrier when fused, else a no-op
//                               (a forked loop has joined, a serial one ran).
//   region(f)                   f(rx) with a rank-resident shape rx: forked
//                               enters one spmd() region for f, serial and
//                               fused call f on the spot.  For sections that
//                               need rank-to-rank synchronization (LU's
//                               pipelined sweeps).
//   workspace(make)             per-rank scratch, ws[rank], built once per
//                               rank per call: now on the calling rank
//                               (serial, fused) or on each worker's first
//                               use (forked, so pages land on that worker).
//
// Serial and Fused also have rank().  Costs: Forked issues one dispatch per
// ranges/reduce/region and no barrier; Fused one barrier per sync() plus
// those inside its collectives (an arming barrier per scheduled pass, two
// per Static reduce of doubles); Serial neither.  Forked and fused add the
// same partials in the same order, so results are bit-identical between
// them for a fixed schedule and width; Serial returns its one partial as is.

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "par/partition.hpp"
#include "par/region.hpp"
#include "par/schedule.hpp"
#include "par/team.hpp"

namespace npb::par {

/// One scratch object shared by the only rank that can reach it (serial,
/// or a fused rank's own copy).
template <class W>
struct Local {
  W w;
  W& operator[](int) noexcept { return w; }
};

/// Serial shape: no team, rank 0 of 1.
class Serial {
 public:
  int size() const noexcept { return 1; }
  int rank() const noexcept { return 0; }
  WorkerTeam* team() const noexcept { return nullptr; }

  template <class Body>
  void ranges(Schedule, long lo, long hi, const Body& body) {
    body(0, lo, hi);
  }
  template <class T, class Body>
  T reduce(Schedule, long lo, long hi, const Body& body) {
    return body(0, lo, hi);
  }
  template <class F>
  void single(F&& f) {
    f();
  }
  void sync() noexcept {}
  template <class F>
  void region(F&& f) {
    f(*this);
  }
  template <class Make>
  Local<std::invoke_result_t<Make&>> workspace(Make&& make) {
    return {make()};
  }
};

/// Forked shape: the body runs on the master and each loop is one fork/join
/// dispatch over the team.
class Forked {
 public:
  explicit Forked(WorkerTeam& team) noexcept : team_(team) {}

  int size() const noexcept { return team_.size(); }
  WorkerTeam* team() const noexcept { return &team_; }

  template <class Body>
  void ranges(Schedule sched, long lo, long hi, const Body& body) {
    ChunkQueue queue;
    if (sched.kind != Schedule::Kind::Static)
      queue.reset(lo, hi, sched, team_.size());
    team_.run([&](int rank) {
      detail::run_share(queue, sched, lo, hi, rank, team_.size(),
                        [&](long clo, long chi) { body(rank, clo, chi); });
    });
  }

  template <class T, class Body>
  T reduce(Schedule sched, long lo, long hi, const Body& body) {
    // Debug-checked: the team's reduction scratch admits one reduction at a
    // time (see ReduceScratchGuard).
    const ReduceScratchGuard guard(team_);
    const int nt = team_.size();
    if (sched.kind == Schedule::Kind::Static) {
      Partials<T> partial(team_, static_cast<std::size_t>(nt), true);
      team_.run([&](int rank) {
        const Range r = partition(lo, hi, rank, nt);
        partial[static_cast<std::size_t>(rank)] =
            detail::poison_partial<T>(rank, body(rank, r.lo, r.hi));
        detail::record_loop_iters(rank, r.size());
      });
      return partial.combine();
    }
    std::vector<Range>& chunks = team_.chunk_scratch();
    schedule_chunks_into(chunks, lo, hi, sched, nt);
    Partials<T> partial(team_, chunks.size(), false);
    std::atomic<std::size_t> next{0};
    team_.run([&](int rank) {
      detail::claim_partials<T>(next, chunks, partial, rank, body);
    });
    return partial.combine();
  }

  template <class F>
  void single(F&& f) {
    f();
  }
  void sync() noexcept {}

  template <class F>
  void region(F&& f);

  /// Per-rank slots built lazily on each rank's first use, so a worker's
  /// scratch is allocated (and first touched) on that worker.
  template <class Make>
  class Slots {
   public:
    using W = std::invoke_result_t<Make&>;
    Slots(Make make, int n)
        : make_(std::move(make)), slots_(std::make_unique<std::optional<W>[]>(
                           static_cast<std::size_t>(n))) {}
    W& operator[](int rank) {
      std::optional<W>& s = slots_[static_cast<std::size_t>(rank)];
      if (!s) s.emplace(make_());
      return *s;
    }

   private:
    Make make_;
    std::unique_ptr<std::optional<W>[]> slots_;
  };

  template <class Make>
  Slots<Make> workspace(Make make) {
    return Slots<Make>(std::move(make), team_.size());
  }

 private:
  /// Partial-result slots of one forked reduction.  Doubles use the team's
  /// reusable scratch (padded per-rank cells under Static, the per-chunk
  /// vector otherwise), so the hot dot products never allocate; any other T
  /// gets a vector of its own.
  template <class T>
  class Partials {
   public:
    Partials(WorkerTeam&, std::size_t n, bool) : v_(n) {}
    T& operator[](std::size_t i) { return v_[i]; }
    T combine() const {
      return detail::combine_ordered<T>(
          v_.size(), [&](std::size_t i) -> const T& { return v_[i]; });
    }

   private:
    std::vector<T> v_;
  };

  WorkerTeam& team_;
};

template <>
class Forked::Partials<double> {
 public:
  Partials(WorkerTeam& team, std::size_t n, bool by_rank)
      : n_(n),
        by_rank_(by_rank ? team.reduce_scratch() : nullptr),
        by_chunk_(team.partial_scratch()) {
    if (!by_rank) by_chunk_.assign(n, 0.0);
  }
  double& operator[](std::size_t i) {
    return by_rank_ != nullptr ? by_rank_[i].v : by_chunk_[i];
  }
  double combine() {
    return detail::combine_ordered<double>(
        n_, [&](std::size_t i) { return (*this)[i]; });
  }

 private:
  std::size_t n_;
  detail::PaddedDouble* by_rank_;
  std::vector<double>& by_chunk_;
};

/// Fused shape: this rank's view of one spmd() region.  The step body runs
/// on every rank, so writes to shared scalars go through single().
class Fused {
 public:
  Fused(ParallelRegion& rg, int rank) noexcept : rg_(rg), rank_(rank) {}

  int size() const noexcept { return rg_.size(); }
  int rank() const noexcept { return rank_; }
  WorkerTeam* team() const noexcept { return &rg_.team(); }

  template <class Body>
  void ranges(Schedule sched, long lo, long hi, const Body& body) {
    rg_.share(rank_, sched, lo, hi, body);
  }

  template <class T, class Body>
  T reduce(Schedule sched, long lo, long hi, const Body& body) {
    return rg_.reduce<T>(rank_, sched, lo, hi, body);
  }

  template <class F>
  void single(F&& f) {
    if (rank_ == 0) f();
  }
  void sync() { rg_.barrier(); }
  template <class F>
  void region(F&& f) {
    f(*this);
  }
  template <class Make>
  Local<std::invoke_result_t<Make&>> workspace(Make&& make) {
    return {make()};
  }

 private:
  ParallelRegion& rg_;
  int rank_;
};

template <class F>
void Forked::region(F&& f) {
  spmd(team_, [&](ParallelRegion& rg, int rank) {
    Fused rx(rg, rank);
    f(rx);
  });
}

/// Runs body(ex) once under the shape a run asks for: Serial without a team,
/// else Fused (one spmd() region) or Forked.  Steps that retry go through
/// fault::Steps; this is the entry for set-up phases and one-shot kernels.
template <class Body>
void run(WorkerTeam* team, bool fused, Body&& body) {
  if (team == nullptr) {
    Serial ex;
    body(ex);
  } else if (fused) {
    spmd(*team, [&](ParallelRegion& rg, int rank) {
      Fused ex(rg, rank);
      body(ex);
    });
  } else {
    Forked ex(*team);
    body(ex);
  }
}

/// Where one benchmark run executes: its width (0 = serial, no team), its
/// step shape (fused or forked), the team options, and a pooled team to
/// borrow when it matches (see TeamRef).
struct Launch {
  int threads = 0;
  bool fused = true;
  TeamOptions topts{};
  WorkerTeam* pooled = nullptr;
};

}  // namespace npb::par
