#include "obs/snapshot_io.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace npb::obs {
namespace {

// Caps a hostile/corrupt length before it drives a resize.  Real snapshots
// are tiny (kMaxRegions regions, kMaxRanks+1 slots, <64-char names).
constexpr std::uint64_t kMaxLen = 1u << 20;

// Every scalar on the wire is 8 bytes copied as-is: a u64, or an f64's bits.
template <class T>
void put(std::vector<unsigned char>& out, T v) {
  static_assert(sizeof v == 8);
  unsigned char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.insert(out.end(), b, b + sizeof v);
}

template <class T>
void put_vec(std::vector<unsigned char>& out, const std::vector<T>& v) {
  put<std::uint64_t>(out, v.size());
  for (const T x : v) put(out, x);
}

template <class T>
T get(const std::vector<unsigned char>& bytes, std::size_t& at) {
  static_assert(sizeof(T) == 8);
  if (bytes.size() - at < sizeof(T) || at > bytes.size())
    throw std::runtime_error("snapshot_io: truncated buffer");
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  at += sizeof v;
  return v;
}

std::uint64_t get_len(const std::vector<unsigned char>& bytes, std::size_t& at) {
  const std::uint64_t n = get<std::uint64_t>(bytes, at);
  if (n > kMaxLen) throw std::runtime_error("snapshot_io: implausible length");
  return n;
}

template <class T>
void get_vec(const std::vector<unsigned char>& bytes, std::size_t& at,
             std::vector<T>& v) {
  v.resize(get_len(bytes, at));
  for (T& x : v) x = get<T>(bytes, at);
}

}  // namespace

// Reserved regions in kReserved order (value, count, then any per-slot
// vectors), then the user regions.
void serialize_snapshot(const Snapshot& snap, std::vector<unsigned char>& out) {
  for (const ReservedRegion& r : kReserved) {
    put(out, snap.*r.value);
    put(out, snap.*r.count);
    if (r.rank_values != nullptr) put_vec(out, snap.*r.rank_values);
    if (r.rank_counts != nullptr) put_vec(out, snap.*r.rank_counts);
  }
  put<std::uint64_t>(out, snap.regions.size());
  for (const RegionStats& st : snap.regions) {
    put<std::uint64_t>(out, st.name.size());
    out.insert(out.end(), st.name.begin(), st.name.end());
    put(out, st.seconds);
    put(out, st.count);
    put_vec(out, st.rank_seconds);
    put_vec(out, st.rank_count);
  }
}

Snapshot deserialize_snapshot(const std::vector<unsigned char>& bytes,
                              std::size_t& at) {
  Snapshot snap;
  for (const ReservedRegion& r : kReserved) {
    snap.*r.value = get<double>(bytes, at);
    snap.*r.count = get<std::uint64_t>(bytes, at);
    if (r.rank_values != nullptr) get_vec(bytes, at, snap.*r.rank_values);
    if (r.rank_counts != nullptr) get_vec(bytes, at, snap.*r.rank_counts);
  }
  snap.regions.resize(get_len(bytes, at));
  for (RegionStats& st : snap.regions) {
    const std::uint64_t namelen = get_len(bytes, at);
    if (bytes.size() - at < namelen)
      throw std::runtime_error("snapshot_io: truncated buffer");
    st.name.assign(reinterpret_cast<const char*>(bytes.data() + at), namelen);
    at += namelen;
    st.seconds = get<double>(bytes, at);
    st.count = get<std::uint64_t>(bytes, at);
    get_vec(bytes, at, st.rank_seconds);
    get_vec(bytes, at, st.rank_count);
  }
  return snap;
}

}  // namespace npb::obs
