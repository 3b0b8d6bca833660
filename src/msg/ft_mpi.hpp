#pragma once

#include "npb/run.hpp"

namespace npb::msg {

/// FT over the message-passing runtime — the related-work configuration
/// (Westminster's javampi FT): 1-D slab decomposition with a distributed
/// transpose between the local FFT phases.  The rank count must divide both
/// n1 and n2 of the class (std::invalid_argument otherwise).  Hybrid-aware:
/// cfg.msg picks the shard count and transport, cfg.threads the per-shard
/// team width.  FFT lines write disjoint elements and every line is the
/// identical serial kernel, so the checksums match the shared-memory FT
/// bit-for-bit at every thread count and on both transports.
RunResult run_ft_msg(const RunConfig& cfg);

}  // namespace npb::msg
