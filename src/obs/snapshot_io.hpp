#pragma once

// Flat binary serialization of obs::Snapshot for the hybrid shm result
// plane: a forked worker snapshots its in-process registry and ships the
// bytes up the result pipe; the parent deserializes into a ShardSnapshot.
// Writer and reader are always the same binary (parent and its fork twin),
// so the format is versionless: the reserved counters in kReserved order,
// then the user regions.
// Compiles identically under NPB_OBS_DISABLED — Snapshot is always defined,
// a disabled build just ships all-zero snapshots.

#include <cstddef>
#include <vector>

#include "obs/obs.hpp"

namespace npb::obs {

/// Appends `snap` to `out`.
void serialize_snapshot(const Snapshot& snap, std::vector<unsigned char>& out);

/// Reads one Snapshot from `bytes` starting at `at`; advances `at` past it.
/// Throws std::runtime_error on a truncated or malformed buffer (a worker
/// that died mid-write must surface as a lost shard, not garbage data).
Snapshot deserialize_snapshot(const std::vector<unsigned char>& bytes,
                              std::size_t& at);

}  // namespace npb::obs
