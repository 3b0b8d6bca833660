#pragma once

#include "npb/run.hpp"

namespace npb::msg {

/// IS over the message-passing runtime (the Westminster javampi IS): keys
/// are generated in distributed slices of the same global randlc sequence;
/// each ranking iteration builds local histograms and allreduces them; the
/// final full verification redistributes the keys by value range with an
/// all-to-all-v (the NPB-MPI IS communication pattern) and checks global
/// sortedness and permutation preservation.  Hybrid-aware: cfg.msg picks
/// the shard count and transport, cfg.threads the per-shard team width.
/// The workload is integer counting, so histogram merges are exact in any
/// order — checksums equal the shared-memory IS at every P and T.
RunResult run_is_msg(const RunConfig& cfg);

}  // namespace npb::msg
