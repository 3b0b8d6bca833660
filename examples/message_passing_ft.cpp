// Using the message-passing runtime directly: a distributed dot product and
// a ring pipeline, then the full javampi-style FT for comparison with the
// threaded version.
//
//   ./message_passing_ft [ranks]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ft/ft.hpp"
#include "msg/communicator.hpp"
#include "msg/ft_mpi.hpp"

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;

  // 1. Collectives: each rank owns a slice of x and y; dot(x, y) via a
  //    local partial product and one allreduce.
  {
    const long n = 1 << 16;
    std::vector<double> results(static_cast<std::size_t>(ranks));
    npb::msg::World world(ranks);
    world.run([&](npb::msg::Communicator& comm) {
      const long lo = n * comm.rank() / comm.size();
      const long hi = n * (comm.rank() + 1) / comm.size();
      double partial = 0.0;
      for (long i = lo; i < hi; ++i) {
        const double x = 1.0 / static_cast<double>(i + 1);
        const double y = static_cast<double>(i + 1);
        partial += x * y;  // = 1 each; dot == n
      }
      results[static_cast<std::size_t>(comm.rank())] = comm.allreduce_sum(partial);
    });
    std::printf("distributed dot product over %d ranks: %.1f (expected %ld)\n",
                ranks, results[0], n);
  }

  // 2. Point-to-point: a ring that accumulates each rank's contribution.
  {
    std::vector<double> out(1);
    npb::msg::World world(ranks);
    world.run([&](npb::msg::Communicator& comm) {
      double token = 0.0;
      if (comm.rank() == 0) {
        token = 1.0;
        comm.send(1 % comm.size(), 0, std::span<const double>(&token, 1));
        if (comm.size() > 1) {
          comm.recv(comm.size() - 1, 0, std::span<double>(&token, 1));
        }
        out[0] = token;
      } else {
        comm.recv(comm.rank() - 1, 0, std::span<double>(&token, 1));
        token += 1.0;
        comm.send((comm.rank() + 1) % comm.size(), 0,
                  std::span<const double>(&token, 1));
      }
    });
    std::printf("ring accumulation over %d ranks: %.0f (expected %d)\n\n", ranks,
                out[0], ranks);
  }

  // 3. The real thing: FT class S, threads vs message passing.
  npb::RunConfig cfg;
  cfg.cls = npb::ProblemClass::S;
  cfg.threads = ranks;
  const npb::RunResult threaded = npb::run_ft(cfg);
  std::printf("FT.S shared-memory threads (%d): %.3fs  %s\n", ranks, threaded.seconds,
              threaded.verified ? "verified" : "FAILED");
  if (64 % ranks == 0) {
    npb::RunConfig mcfg;  // `ranks` in-process ranks, no team per rank
    mcfg.cls = npb::ProblemClass::S;
    mcfg.mode = npb::Mode::Msg;
    mcfg.msg.procs = ranks;
    const npb::RunResult mpi = npb::msg::run_ft_msg(mcfg);
    std::printf("FT.S message passing (%d ranks):  %.3fs  %s\n", ranks, mpi.seconds,
                mpi.verified ? "verified" : "FAILED");
    std::printf("first checksum: threads %.12e vs mpi %.12e\n", threaded.checksums[0],
                mpi.checksums[0]);
  } else {
    std::printf("(skipping message-passing FT: %d does not divide 64)\n", ranks);
  }
  return 0;
}
