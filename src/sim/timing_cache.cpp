#include "sim/timing_cache.hpp"

#include <cstring>

namespace ascend::sim {

// ---------------------------------------------------------------------------
// Trace fingerprint

namespace {

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalisation step as the combine function.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  std::uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t double_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace

std::uint64_t trace_fingerprint(const KernelTrace& trace) {
  std::uint64_t h = mix(0x243f6a8885a308d3ull, trace.per_subcore.size());
  for (std::size_t s = 0; s < trace.per_subcore.size(); ++s) {
    const bool cube =
        s < trace.is_cube_subcore.size() && trace.is_cube_subcore[s];
    h = mix(h, (static_cast<std::uint64_t>(s) << 1) | (cube ? 1 : 0));
    for (const TraceOp& op : trace.per_subcore[s]) {
      h = mix(h, (static_cast<std::uint64_t>(op.engine) << 8) |
                     static_cast<std::uint64_t>(op.kind));
      h = mix(h, double_bits(op.cycles));
      h = mix(h, op.bytes);
      h = mix(h, op.gm_addr);
      h = mix(h, (static_cast<std::uint64_t>(op.barrier_epoch) << 1) |
                     (op.gm_write ? 1 : 0));
      h = mix(h, op.num_deps);
      for (std::uint8_t d = 0; d < op.num_deps; ++d) {
        h = mix(h, op.deps[d]);
      }
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// TimingCache

std::size_t LaunchKeyHash::operator()(const LaunchKey& k) const {
  std::uint64_t h = std::hash<std::string>{}(k.name);
  h = mix(h, (static_cast<std::uint64_t>(k.mode) << 32) |
                 static_cast<std::uint32_t>(k.block_dim));
  h = mix(h, k.fingerprint);
  h = mix(h, k.watchdog_bits);
  return static_cast<std::size_t>(h);
}

const Report* TimingCache::lookup(const LaunchKey& key,
                                  std::uint64_t generation) {
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.stable &&
      it->second.generation == generation) {
    ++stats_.hits;
    return &it->second.report;
  }
  return nullptr;
}

void TimingCache::record(const LaunchKey& key, const Report& rep,
                         std::uint64_t gen_before, std::uint64_t gen_after) {
  ++stats_.misses;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.generation == gen_before &&
      identical(it->second.report, rep)) {
    // The same shape replayed twice in a row with nothing perturbing the L2
    // in between, and the Reports are bit-identical: the L2 has reached its
    // steady state for this shape. Future occurrences may skip the replay.
    it->second.stable = true;
    it->second.generation = gen_after;
    return;
  }
  entries_[key] = Entry{rep, gen_after, false};
}

}  // namespace ascend::sim
