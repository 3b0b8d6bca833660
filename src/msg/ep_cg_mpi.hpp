#pragma once

#include "npb/run.hpp"

namespace npb::msg {

/// EP over the message-passing runtime (the Adelaide group's released EP):
/// randlc blocks partitioned over ranks, Gaussian sums and annulus counts
/// combined with allreduce.  Hybrid-aware: cfg.msg picks the shard count and
/// transport, cfg.threads the per-shard team width.  Block accumulators are
/// folded in block order, so results are independent of the thread count —
/// a P-shard run produces the same bits at every T and on both transports.
RunResult run_ep_msg(const RunConfig& cfg);

/// CG over the message-passing runtime ("under development" at Adelaide in
/// the paper's related work — completed here): 1-D row-block decomposition,
/// an allgatherv of the direction vector before each sparse mat-vec, and
/// allreduce for every inner product.  With matching rank/thread counts the
/// reductions associate identically to the shared-memory version's
/// rank-ordered partials, so checksums agree bitwise.  Per-shard teams fold
/// dot partials in thread order; T <= 1 preserves the serial association.
RunResult run_cg_msg(const RunConfig& cfg);

}  // namespace npb::msg
