// serve — observability surface of the serving engine.
//
// Every request contributes its wall-clock latency decomposition to a set
// of log-bucketed histograms (p50/p95/p99 without storing samples), every
// batched launch contributes occupancy and its simulated Report, and the
// admission counters record why work was turned away. A snapshot exports
// as JSON (schema documented in DESIGN.md "Serving layer") so load
// generators and dashboards consume one stable format.
//
// Hot-path design (DESIGN.md "Host hot path"): pure counters are seq_cst
// atomics, so admission never takes a lock. Histogram-coupled events
// (completions, failures, batches, chunks) update their counter and
// histograms together under one mutex; an engine's worker is their only
// writer, so that mutex is effectively uncontended. snapshot() reads the
// guarded state first and then the atomics in child-before-parent order
// (completions before admissions before submissions), which makes the
// exported view internally consistent: a request counted as completed in
// a snapshot is provably also counted as admitted and submitted in the
// same snapshot (the admission bump happens-before the completion bump
// through the submission queue's release/acquire chain, and the reader
// observes the completion first). MetricsSnapshot::invariant_violations()
// checks the resulting inequalities and exact histogram/counter pairings;
// the JSON export surfaces it for merged views.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace ascan::serve {

/// Fixed log2-bucketed latency histogram (1 µs granularity floor). Buckets
/// cover [1 µs, ~2^46 µs]; percentile() returns the upper bound of the
/// bucket containing the requested quantile — deterministic, allocation
/// free, and accurate to a factor of two, which is enough for SLO tiers.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 47;

  /// Bucket index of a latency: bucket 0 is [0, 1] µs, bucket b >= 1 is
  /// (2^(b-1), 2^b] µs, the last bucket absorbs everything larger.
  /// Exposed so the boundary regression tests can pin the math.
  static int bucket_of(double seconds);
  /// Upper latency bound (seconds) of bucket b: 2^b µs.
  static double bucket_upper_s(int b);

  void add(double seconds);

  /// Accumulates another histogram (cluster shard -> merged view).
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  double sum_s() const { return sum_s_; }
  double max_s() const { return max_s_; }
  double mean_s() const { return count_ ? sum_s_ / count_ : 0.0; }
  /// Latency (seconds) at quantile q in [0,1]; 0 when empty.
  double percentile(double q) const;

  std::string json() const;  ///< {"count":..,"mean_us":..,"p50_us":..,...}

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_s_ = 0;
  double max_s_ = 0;
};

/// Point-in-time copy of every serving counter (see Metrics::snapshot).
struct MetricsSnapshot {
  /// Simulated device (cluster shard) these counters belong to; -1 for a
  /// merged cluster view or the cluster front end's own counters.
  int device = -1;

  // --- Admission -------------------------------------------------------------
  std::uint64_t submitted = 0;   ///< submit() calls
  std::uint64_t admitted = 0;    ///< entered the queue
  std::uint64_t rejected_capacity = 0;  ///< queue-full rejections
  std::uint64_t rejected_invalid = 0;   ///< argument-validation rejections
  std::uint64_t rejected_shutdown = 0;  ///< submitted after shutdown began
  /// Cluster per-tenant admission-quota rejections (typed reason; counted
  /// by the cluster front end only).
  std::uint64_t rejected_quota = 0;
  std::uint64_t cancelled = 0;   ///< admitted, dropped by cancel-shutdown
  std::uint64_t completed = 0;   ///< resolved Ok
  std::uint64_t failed = 0;      ///< resolved Failed (typed fault)

  std::array<std::uint64_t, 4> by_kind{};  ///< completed, indexed by OpKind

  // --- Batching --------------------------------------------------------------
  std::uint64_t batches = 0;           ///< serving launches issued
  std::uint64_t batched_requests = 0;  ///< requests those launches carried
  std::uint64_t max_batch_observed = 0;
  double avg_batch_occupancy = 0;      ///< batched_requests / batches
  /// Requests admitted into an already in-flight stepwise launch between
  /// steps (continuous batching) rather than at a formation boundary.
  std::uint64_t continuation_admits = 0;
  /// Serving launches abandoned by a typed fault (the members fell back to
  /// per-request isolation, or resolved Failed on the isolation path). The
  /// abandoned launch's partial Report — completed steps plus the failing
  /// attempt — is folded into the sim_* counters so fault traffic is not
  /// undercounted.
  std::uint64_t failed_batches = 0;

  // --- Streaming -------------------------------------------------------------
  std::uint64_t stream_chunks = 0;  ///< partial-result chunks delivered
  /// Latency from request enqueue to each chunk's delivery. The p0/min of
  /// this histogram is the time-to-first-chunk picture at the engine level.
  LatencyHistogram chunk_latency;

  // --- Cluster: placement and work stealing ----------------------------------
  std::uint64_t routed_affinity = 0;  ///< placed on the GroupKey-hash target
  std::uint64_t routed_spill = 0;     ///< least-loaded fallback placements
  std::uint64_t steals = 0;           ///< formed batches stolen from peers
  std::uint64_t stolen_requests = 0;  ///< requests those stolen batches held
  std::uint64_t steals_suffered = 0;  ///< formed batches peers took from here

  // --- Cluster: device health and failover (see serve/health.hpp) ------------
  std::uint64_t health_transitions = 0;  ///< state-machine edges taken
  /// Requests re-dispatched from a sick device to a healthy sibling —
  /// both a quarantine's queue drain and mid-launch batch failover.
  std::uint64_t failovers = 0;
  /// Failovers that resumed from a nonzero tile checkpoint: the host-side
  /// carry of the last completed tile seeded the launch on the new device.
  std::uint64_t tiles_resumed = 0;
  std::uint64_t canary_probes = 0;  ///< canaries admitted to Probing devices
  /// Bulk requests shed by brownout admission (healthy capacity below the
  /// configured fraction). Each is also counted in rejected_capacity.
  std::uint64_t shed_brownout = 0;

  // --- SLO: deadlines and tile-boundary preemption ---------------------------
  /// Requests that carried a deadline and resolved after it expired.
  std::uint64_t deadline_misses = 0;
  /// Bulk stepwise launches parked at a tile boundary because a queued
  /// interactive deadline would otherwise have been missed (each park
  /// checkpoints every unfinished row — see Engine / DESIGN.md "SLO tiers
  /// & preemption").
  std::uint64_t preemptions = 0;
  /// Preemption-parked rows resumed from a nonzero tile checkpoint (the
  /// preemption analogue of the failover counter tiles_resumed).
  std::uint64_t preempted_tiles_resumed = 0;
  /// Total request latency split by SloTier (gold/silver/bronze), so an
  /// SLO dashboard reads each tier's p99 directly.
  std::array<LatencyHistogram, kSloTierCount> tier_latency;

  // --- Latency ---------------------------------------------------------------
  LatencyHistogram queue_latency;
  LatencyHistogram execute_latency;
  LatencyHistogram total_latency;

  // --- Simulated device-side counters ---------------------------------------
  double sim_time_s = 0;            ///< simulated execution time served
  std::uint64_t sim_gm_bytes = 0;   ///< GM read+write bytes moved
  int sim_launches = 0;             ///< simulated kernel launches
  int sim_steps = 0;                ///< stepwise-launch resumable slices
  std::uint32_t sim_retries = 0;    ///< fault-recovery relaunches
  std::uint32_t sim_excluded_cores = 0;
  /// Achieved fraction of peak HBM bandwidth over the served launches:
  /// sim_gm_bytes / sim_time_s / hbm_peak. The batched-serving analogue of
  /// the paper's bandwidth-utilisation figures.
  double sim_bandwidth_utilization = 0;

  /// Internal-consistency audit of this snapshot: empty string when every
  /// invariant holds, else a semicolon-separated list of violations.
  /// Checked inequalities (sound for a live-racing snapshot because of the
  /// reader's child-before-parent ordering — see Metrics):
  ///   admitted + rejected_* <= submitted
  ///   completed + failed + cancelled <= admitted
  /// and exact pairings updated atomically under one lock:
  ///   execute_latency.count == completed
  ///   total_latency.count == completed + failed
  ///   sum(by_kind) == completed, sum(tier_latency counts) == completed
  ///   chunk_latency.count == stream_chunks
  /// Meaningful for a standalone engine and for a cluster *merged* view.
  /// A single cluster shard can legitimately violate the admission
  /// inequalities: a failed-over request is admitted on one device and
  /// completed on another (admission is never double counted).
  std::string invariant_violations() const;

  std::string json() const;  ///< full snapshot as a JSON object

  /// Sums every raw counter and histogram of `parts` into one view and
  /// recomputes the derived fields against `hbm_peak_bytes_per_s` (the
  /// per-device peak — the merged utilisation therefore reads as the
  /// average utilisation of an *active* device, not of the aggregate
  /// cluster bandwidth). Used for the cluster's merged metrics.
  static MetricsSnapshot merged(const std::vector<MetricsSnapshot>& parts,
                                double hbm_peak_bytes_per_s);
};

/// Thread-safe accumulator owned by the Engine (and the Cluster front end).
///
/// Ordering rules the writers follow (and snapshot() relies on):
///  * on_submitted is bumped before on_admitted / on_rejected_* for the
///    same request (program order in submit()).
///  * on_admitted is bumped before the request is published to the
///    submission queue, so it happens-before the worker's completion/
///    cancellation bump for that request.
/// All counter RMWs are seq_cst (on x86 the same lock-prefixed instruction
/// as relaxed), so the reader's reverse-order loads close the torn-pair
/// window without any global lock.
class Metrics {
 public:
  explicit Metrics(double hbm_peak_bytes_per_s, int device = -1)
      : device_(device), hbm_peak_(hbm_peak_bytes_per_s) {}

  void on_submitted() { submitted_.fetch_add(1); }
  void on_admitted() { admitted_.fetch_add(1); }
  void on_rejected_capacity() { rejected_capacity_.fetch_add(1); }
  void on_rejected_invalid() { rejected_invalid_.fetch_add(1); }
  void on_rejected_shutdown() { rejected_shutdown_.fetch_add(1); }
  void on_cancelled() { cancelled_.fetch_add(1); }

  void on_routed_affinity() { routed_affinity_.fetch_add(1); }
  void on_routed_spill() { routed_spill_.fetch_add(1); }
  void on_steal_suffered() { steals_suffered_.fetch_add(1); }
  void on_steal(std::size_t stolen_request_count) {
    steals_.fetch_add(1);
    stolen_requests_.fetch_add(stolen_request_count);
  }

  void on_rejected_quota() { rejected_quota_.fetch_add(1); }
  void on_deadline_miss() { deadline_misses_.fetch_add(1); }
  void on_preemption() { preemptions_.fetch_add(1); }
  void on_preempted_tile_resumed() { preempted_tiles_resumed_.fetch_add(1); }

  void on_health_transition() { health_transitions_.fetch_add(1); }
  void on_failover() { failovers_.fetch_add(1); }
  void on_tiles_resumed() { tiles_resumed_.fetch_add(1); }
  void on_canary_probe() { canary_probes_.fetch_add(1); }
  void on_shed_brownout() { shed_brownout_.fetch_add(1); }
  void on_continuation_admit(std::size_t n) {
    continuation_admits_.fetch_add(n);
  }

  void on_completed(OpKind kind, SloTier tier, const Timing& t);
  void on_failed(const Timing& t);
  void on_batch(std::size_t occupancy, const Report& rep);
  /// A batched launch attempt failed and is falling back to isolation:
  /// count it and fold its partial Report into the sim_* counters so the
  /// traffic a fault burned is not silently dropped.
  void on_batch_abandoned(const Report& partial);
  /// One streamed chunk delivered, `latency_s` after its request enqueued.
  void on_chunk(double latency_s);

  MetricsSnapshot snapshot() const;

 private:
  int device_;
  double hbm_peak_;
  /// Histogram-coupled state: only the fields on_completed, on_failed,
  /// on_batch, on_batch_abandoned and on_chunk write. Every event updates
  /// its whole pair set (counter + histograms) under mu_, so any snapshot
  /// observes exact pairings. The pure counters live in the atomics below.
  mutable std::mutex mu_;
  MetricsSnapshot acc_;

  using Counter = std::atomic<std::uint64_t>;
  Counter submitted_{0};
  Counter admitted_{0};
  Counter rejected_capacity_{0};
  Counter rejected_invalid_{0};
  Counter rejected_shutdown_{0};
  Counter rejected_quota_{0};
  Counter cancelled_{0};
  Counter continuation_admits_{0};
  Counter routed_affinity_{0};
  Counter routed_spill_{0};
  Counter steals_{0};
  Counter stolen_requests_{0};
  Counter steals_suffered_{0};
  Counter health_transitions_{0};
  Counter failovers_{0};
  Counter tiles_resumed_{0};
  Counter canary_probes_{0};
  Counter shed_brownout_{0};
  Counter deadline_misses_{0};
  Counter preemptions_{0};
  Counter preempted_tiles_resumed_{0};
};

}  // namespace ascan::serve
