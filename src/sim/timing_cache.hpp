// Launch-shape timing cache: lets constant-shape repeated launches skip the
// discrete-event replay when a replay would provably reproduce the cached
// Report bit for bit (see DESIGN.md "Host execution engine").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "sim/report.hpp"
#include "sim/trace.hpp"

namespace ascend::sim {

/// Fingerprint of a KernelTrace whose op ids are already canonical: dense
/// and numbered by (sub-core, position), as LaunchEngine::time_lease leaves
/// them. Identical launches then hash identically, dependency ids included.
std::uint64_t trace_fingerprint(const KernelTrace& trace);

/// Identity of a launch shape for the timing cache. Two launches with equal
/// keys replay to bit-identical Reports provided the L2 starts in the same
/// state — which is what the generation check below enforces.
struct LaunchKey {
  std::string name;            ///< LaunchSpec::name
  int mode = 0;                ///< LaunchMode as int
  int block_dim = 0;
  std::uint64_t fingerprint = 0;  ///< trace_fingerprint of the launch
  std::uint64_t watchdog_bits = 0;  ///< effective deadline, bit pattern

  bool operator==(const LaunchKey& o) const {
    return mode == o.mode && block_dim == o.block_dim &&
           fingerprint == o.fingerprint && watchdog_bits == o.watchdog_bits &&
           name == o.name;
  }
};

struct LaunchKeyHash {
  std::size_t operator()(const LaunchKey& k) const;
};

/// Opt-in memo of Report results for repeated identical launches.
///
/// Soundness rule (the "L2 generation" check): a cached Report may be
/// returned only when (a) the entry has been observed *stable* — two
/// consecutive replays of the same key produced bit-identical Reports, i.e.
/// the L2 has converged to its steady state for this launch shape — and
/// (b) nothing has perturbed the L2 since the stable observation: no other
/// replay ran and the L2 was not reset (`generation` folds both in). A hit
/// therefore leaves the device in a state where replaying would have
/// changed nothing observable; skipping the replay is bit-exact.
///
/// Callers must bypass the cache entirely when a fault injector is armed
/// (fault decisions are keyed on the per-attempt launch ordinal) or when a
/// Timeline is requested (a hit has no schedule to export).
class TimingCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;   ///< cache-eligible launches
    std::uint64_t hits = 0;      ///< replays skipped
    std::uint64_t misses = 0;    ///< replays run while the cache was on
    std::uint64_t bypasses = 0;  ///< launches ineligible (fault/timeline)
  };

  /// Returns the cached Report when the entry is stable and `generation`
  /// matches the stable observation; nullptr forces a replay.
  const Report* lookup(const LaunchKey& key, std::uint64_t generation);

  /// Records a replay result. `gen_before`/`gen_after` are the generation
  /// surrounding the replay; an entry becomes stable when the same key
  /// replays twice back-to-back (gen_before equals the previous entry's
  /// generation) with bit-identical Reports.
  void record(const LaunchKey& key, const Report& rep,
              std::uint64_t gen_before, std::uint64_t gen_after);

  void note_bypass() { ++stats_.bypasses; }
  const Stats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Report report;
    std::uint64_t generation = 0;  ///< generation right after the recording
    bool stable = false;           ///< two consecutive identical replays seen
  };

  std::unordered_map<LaunchKey, Entry, LaunchKeyHash> entries_;
  Stats stats_;
};

}  // namespace ascend::sim
