#pragma once

// An MPI-flavoured message-passing runtime, reproducing the related-work
// alternative to the paper's shared-memory translation: the University of
// Westminster group implemented FT and IS over a Java binding of MPI
// ("javampi", Getov et al.).  Ranks communicate only through explicit
// send/recv mailboxes and collectives built on them — no rank ever reads
// another rank's arrays directly.
//
// The byte-moving mechanics live behind the Transport interface
// (msg/transport.hpp): InProcTransport runs ranks as threads of this
// process, ShmTransport (msg/shm.hpp) runs them as forked worker processes
// over shared-memory rings.  Communicator is transport-agnostic.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "msg/transport.hpp"

namespace npb::msg {

/// A rank's handle on the world: MPI-flavoured point-to-point and
/// collective operations.  Methods may be called concurrently by different
/// ranks but each Communicator object belongs to exactly one rank.
class Communicator {
 public:
  Communicator(Transport& transport, int rank)
      : transport_(&transport), rank_(rank), size_(transport.size()) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }

  /// Blocking tagged send/recv of doubles (payload is copied, like an MPI
  /// buffered send — the Java MPI bindings of the era copied too).
  void send(int dst, int tag, std::span<const double> data);
  void recv(int src, int tag, std::span<double> out);

  void barrier();

  /// Collectives (implemented on send/recv + the barrier):
  double allreduce_sum(double value);
  void allreduce_sum(std::span<double> values);
  void broadcast(int root, std::span<double> data);
  /// Dense all-to-all: block i of `sendbuf` goes to rank i; block j of
  /// `recvbuf` receives from rank j.  Both span size*block doubles.
  void alltoall(std::span<const double> sendbuf, std::span<double> recvbuf,
                std::size_t block);
  /// Variable all-to-all: counts[i] doubles go to rank i; returns the
  /// per-source received vectors concatenated in rank order.
  std::vector<double> alltoallv(const std::vector<std::vector<double>>& outgoing);
  /// Allgather with per-rank block sizes: rank i contributes `local`, which
  /// lands at offsets[i] of `full` on every rank.  `full` must already be
  /// sized to the sum of all block sizes; every rank passes the same layout.
  void allgatherv(std::span<const double> local, std::span<double> full,
                  const std::vector<std::size_t>& offsets);

  /// Validates an alltoallv count that traveled over the wire as a double:
  /// must be a non-negative integral value small enough that the
  /// double->size_t round-trip is exact.  Throws std::length_error
  /// otherwise — a corrupted or hostile peer must not drive a resize().
  static std::size_t checked_count(double c);

 private:
  /// One pairwise-exchange step: send `out` to dst while receiving `in`
  /// from src, split into lock-step rounds of at most the transport's
  /// eager_limit() doubles each so a bounded transport can never deadlock
  /// on a symmetric pair of over-capacity sends.  Chunks reassemble into
  /// `in` at their natural offsets, so results are bit-identical to a
  /// single-message exchange.
  void exchange(int dst, int src, int tag, std::span<const double> out,
                std::span<double> in);

  Transport* transport_;
  int rank_;
  int size_;
};

/// Owns an in-process transport and launches one thread per rank.  This is
/// the original msg-layer entry point; tests and the inproc transport of
/// the run_*_msg drivers construct worlds directly.
class World {
 public:
  explicit World(int nranks) : transport_(nranks) {}

  /// Runs fn(comm) on every rank; returns when all ranks finish.
  /// Rethrows the first rank's exception, if any.
  void run(const std::function<void(Communicator&)>& fn);

 private:
  InProcTransport transport_;
};

}  // namespace npb::msg
