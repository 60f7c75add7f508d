// Execution report produced by the timing pass of a kernel launch.
//
// All paper metrics derive from this: execution time, achieved bandwidth
// (the caller supplies the "useful" byte count — input read + output
// written — exactly as the paper reports GB/s), elements/s, and per-engine
// utilisation for diagnosing whether a kernel is cube-, vector-, MTE- or
// HBM-bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ascend::sim {

struct Report {
  double time_s = 0;  ///< simulated end-to-end time (incl. launch overhead)
  int launches = 0;   ///< kernel launches aggregated into this report
  /// Tile-granular steps of a step-resumable (stepwise) launch aggregated
  /// into this report — 0 for a monolithic launch. A serving layer that
  /// drives an operator tile-by-tile (Session::cumsum_batched_begin/step/
  /// finish) stamps the step count here so occupancy/bandwidth accounting
  /// can distinguish "one big launch" from "N resumable slices".
  int steps = 0;

  std::uint64_t gm_read_bytes = 0;
  std::uint64_t gm_write_bytes = 0;
  std::uint64_t l2_hit_bytes = 0;

  double cube_busy_s = 0;    ///< summed over all AIC compute engines
  double vec_busy_s = 0;     ///< summed over all AIV compute engines
  double mte_busy_s = 0;     ///< summed over all MTE engines
  double scalar_busy_s = 0;  ///< summed over all scalar units
  double hbm_busy_s = 0;     ///< time the HBM had at least one active flow

  std::uint64_t num_ops = 0;

  // --- Fault & resilience counters (see sim/fault.hpp) ----------------------
  std::uint64_t mte_faults = 0;   ///< transient MTE/DMA failures (aborted)
  std::uint64_t ecc_single = 0;   ///< correctable HBM ECC events (scrubbed)
  std::uint64_t ecc_double = 0;   ///< uncorrectable HBM ECC events (aborted)
  std::uint64_t hangs = 0;        ///< injected kernel hangs (watchdog fired)
  std::uint64_t throttled_subcores = 0;  ///< straggler sub-cores, per launch
  std::uint32_t retries = 0;         ///< failed attempts that were relaunched
  std::uint32_t excluded_cores = 0;  ///< AI cores taken offline to recover
  double backoff_s = 0;  ///< simulated retry backoff included in time_s

  bool any_faults() const {
    return mte_faults + ecc_single + ecc_double + hangs +
               throttled_subcores + retries + excluded_cores >
           0;
  }

  /// Aggregates sequentially launched kernels (times add).
  Report& operator+=(const Report& o) {
    time_s += o.time_s;
    launches += o.launches;
    steps += o.steps;
    gm_read_bytes += o.gm_read_bytes;
    gm_write_bytes += o.gm_write_bytes;
    l2_hit_bytes += o.l2_hit_bytes;
    cube_busy_s += o.cube_busy_s;
    vec_busy_s += o.vec_busy_s;
    mte_busy_s += o.mte_busy_s;
    scalar_busy_s += o.scalar_busy_s;
    hbm_busy_s += o.hbm_busy_s;
    num_ops += o.num_ops;
    mte_faults += o.mte_faults;
    ecc_single += o.ecc_single;
    ecc_double += o.ecc_double;
    hangs += o.hangs;
    throttled_subcores += o.throttled_subcores;
    retries += o.retries;
    excluded_cores += o.excluded_cores;
    backoff_s += o.backoff_s;
    return *this;
  }

  /// Achieved bandwidth given the useful (paper-reported) bytes.
  double bandwidth(std::uint64_t useful_bytes) const {
    return time_s > 0 ? static_cast<double>(useful_bytes) / time_s : 0.0;
  }
  /// Elements per second for an n-element operator.
  double elements_per_s(std::uint64_t n) const {
    return time_s > 0 ? static_cast<double>(n) / time_s : 0.0;
  }

  std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const Report& r);

/// Bit-exact equality over every field (times compared with ==, which is
/// exact for the deterministic scheduler). Used by the launch-shape timing
/// cache to detect that a launch shape's Report has converged, and by the
/// determinism tests comparing repeated runs.
inline bool identical(const Report& a, const Report& b) {
  return a.time_s == b.time_s && a.launches == b.launches &&
         a.steps == b.steps && a.gm_read_bytes == b.gm_read_bytes &&
         a.gm_write_bytes == b.gm_write_bytes &&
         a.l2_hit_bytes == b.l2_hit_bytes && a.cube_busy_s == b.cube_busy_s &&
         a.vec_busy_s == b.vec_busy_s && a.mte_busy_s == b.mte_busy_s &&
         a.scalar_busy_s == b.scalar_busy_s && a.hbm_busy_s == b.hbm_busy_s &&
         a.num_ops == b.num_ops && a.mte_faults == b.mte_faults &&
         a.ecc_single == b.ecc_single && a.ecc_double == b.ecc_double &&
         a.hangs == b.hangs && a.throttled_subcores == b.throttled_subcores &&
         a.retries == b.retries && a.excluded_cores == b.excluded_cores &&
         a.backoff_s == b.backoff_s;
}

}  // namespace ascend::sim
