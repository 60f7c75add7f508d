#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ascan::serve {

// Bucket b holds latencies in (2^(b-1), 2^b] µs; bucket 0 is [0, 1] µs.
// ceil(log2(us)) (not 1 + ceil) so the (1, 2] µs bucket is reachable and
// every bucket_upper_s boundary is actually hit (tests/test_batcher.cpp
// pins each one).
int LatencyHistogram::bucket_of(double seconds) {
  const double us = seconds * 1e6;
  if (us <= 1.0) return 0;
  const int b = static_cast<int>(std::ceil(std::log2(us)));
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::bucket_upper_s(int b) {
  return std::ldexp(1.0, b) * 1e-6;
}

namespace {

std::string fmt_us(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", seconds * 1e6);
  return buf;
}

}  // namespace

void LatencyHistogram::add(double seconds) {
  seconds = std::max(seconds, 0.0);
  buckets_[static_cast<std::size_t>(bucket_of(seconds))]++;
  count_++;
  sum_s_ += seconds;
  max_s_ = std::max(max_s_, seconds);
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // target >= 1 so percentile(0.0) reports the first occupied bucket (the
  // minimum sample's bucket) instead of the empty 1 µs floor bucket.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= target) return std::min(bucket_upper_s(b), max_s_);
  }
  return max_s_;
}

std::string LatencyHistogram::json() const {
  std::ostringstream os;
  os << "{\"count\":" << count_ << ",\"mean_us\":" << fmt_us(mean_s())
     << ",\"p50_us\":" << fmt_us(percentile(0.50))
     << ",\"p95_us\":" << fmt_us(percentile(0.95))
     << ",\"p99_us\":" << fmt_us(percentile(0.99))
     << ",\"max_us\":" << fmt_us(max_s_) << "}";
  return os.str();
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] +=
        other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_s_ += other.sum_s_;
  max_s_ = std::max(max_s_, other.max_s_);
}

// ---------------------------------------------------------------------------
// Accumulator

void Metrics::on_completed(OpKind kind, SloTier tier, const Timing& t) {
  std::lock_guard<std::mutex> lk(mu_);
  acc_.completed++;
  acc_.by_kind[static_cast<std::size_t>(kind)]++;
  acc_.queue_latency.add(t.queue_s);
  acc_.execute_latency.add(t.execute_s);
  acc_.total_latency.add(t.total_s);
  acc_.tier_latency[static_cast<std::size_t>(tier)].add(t.total_s);
}

void Metrics::on_failed(const Timing& t) {
  std::lock_guard<std::mutex> lk(mu_);
  acc_.failed++;
  acc_.queue_latency.add(t.queue_s);
  acc_.total_latency.add(t.total_s);
}

void Metrics::on_batch(std::size_t occupancy, const Report& rep) {
  std::lock_guard<std::mutex> lk(mu_);
  acc_.batches++;
  acc_.batched_requests += occupancy;
  acc_.max_batch_observed =
      std::max<std::uint64_t>(acc_.max_batch_observed, occupancy);
  acc_.sim_time_s += rep.time_s;
  acc_.sim_gm_bytes += rep.gm_read_bytes + rep.gm_write_bytes;
  acc_.sim_launches += rep.launches;
  acc_.sim_steps += rep.steps;
  acc_.sim_retries += rep.retries;
  acc_.sim_excluded_cores += rep.excluded_cores;
}

void Metrics::on_batch_abandoned(const Report& partial) {
  std::lock_guard<std::mutex> lk(mu_);
  acc_.failed_batches++;
  acc_.sim_time_s += partial.time_s;
  acc_.sim_gm_bytes += partial.gm_read_bytes + partial.gm_write_bytes;
  acc_.sim_launches += partial.launches;
  acc_.sim_steps += partial.steps;
  acc_.sim_retries += partial.retries;
  acc_.sim_excluded_cores += partial.excluded_cores;
}

void Metrics::on_chunk(double latency_s) {
  std::lock_guard<std::mutex> lk(mu_);
  acc_.stream_chunks++;
  acc_.chunk_latency.add(latency_s);
}

namespace {

void recompute_derived(MetricsSnapshot& out, double hbm_peak) {
  if (out.batches > 0) {
    out.avg_batch_occupancy = static_cast<double>(out.batched_requests) /
                              static_cast<double>(out.batches);
  }
  if (out.sim_time_s > 0 && hbm_peak > 0) {
    out.sim_bandwidth_utilization =
        static_cast<double>(out.sim_gm_bytes) / out.sim_time_s / hbm_peak;
  }
}

}  // namespace

MetricsSnapshot Metrics::snapshot() const {
  // Child-before-parent read order. Phase 1: the mutex-guarded state —
  // completions, failures and their histograms. The mutex acquire
  // synchronizes with every writer that updated it, so every gathered
  // completion's upstream admission/submission bump is visible to this
  // thread afterwards.
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = acc_;
  }
  out.device = device_;
  // Phase 2: the pure counters, leaf to root — cancellations and
  // rejections before admissions before submissions, the reverse of the
  // writers' bump order — so every inequality the snapshot exports
  // (admitted + rejected <= submitted, terminal <= admitted) holds even
  // while writers race this read.
  out.cancelled = cancelled_.load();
  out.continuation_admits = continuation_admits_.load();
  out.deadline_misses = deadline_misses_.load();
  out.preemptions = preemptions_.load();
  out.preempted_tiles_resumed = preempted_tiles_resumed_.load();
  out.routed_affinity = routed_affinity_.load();
  out.routed_spill = routed_spill_.load();
  out.steals = steals_.load();
  out.stolen_requests = stolen_requests_.load();
  out.steals_suffered = steals_suffered_.load();
  out.health_transitions = health_transitions_.load();
  out.failovers = failovers_.load();
  out.tiles_resumed = tiles_resumed_.load();
  out.canary_probes = canary_probes_.load();
  out.shed_brownout = shed_brownout_.load();
  out.rejected_capacity = rejected_capacity_.load();
  out.rejected_invalid = rejected_invalid_.load();
  out.rejected_shutdown = rejected_shutdown_.load();
  out.rejected_quota = rejected_quota_.load();
  out.admitted = admitted_.load();
  out.submitted = submitted_.load();
  recompute_derived(out, hbm_peak_);
  return out;
}

MetricsSnapshot MetricsSnapshot::merged(
    const std::vector<MetricsSnapshot>& parts, double hbm_peak_bytes_per_s) {
  MetricsSnapshot out;
  for (const auto& p : parts) {
    out.submitted += p.submitted;
    out.admitted += p.admitted;
    out.rejected_capacity += p.rejected_capacity;
    out.rejected_invalid += p.rejected_invalid;
    out.rejected_shutdown += p.rejected_shutdown;
    out.rejected_quota += p.rejected_quota;
    out.cancelled += p.cancelled;
    out.completed += p.completed;
    out.failed += p.failed;
    for (std::size_t k = 0; k < out.by_kind.size(); ++k) {
      out.by_kind[k] += p.by_kind[k];
    }
    out.batches += p.batches;
    out.batched_requests += p.batched_requests;
    out.max_batch_observed =
        std::max(out.max_batch_observed, p.max_batch_observed);
    out.continuation_admits += p.continuation_admits;
    out.failed_batches += p.failed_batches;
    out.stream_chunks += p.stream_chunks;
    out.chunk_latency.merge(p.chunk_latency);
    out.routed_affinity += p.routed_affinity;
    out.routed_spill += p.routed_spill;
    out.steals += p.steals;
    out.stolen_requests += p.stolen_requests;
    out.steals_suffered += p.steals_suffered;
    out.health_transitions += p.health_transitions;
    out.failovers += p.failovers;
    out.tiles_resumed += p.tiles_resumed;
    out.canary_probes += p.canary_probes;
    out.shed_brownout += p.shed_brownout;
    out.deadline_misses += p.deadline_misses;
    out.preemptions += p.preemptions;
    out.preempted_tiles_resumed += p.preempted_tiles_resumed;
    for (std::size_t k = 0; k < out.tier_latency.size(); ++k) {
      out.tier_latency[k].merge(p.tier_latency[k]);
    }
    out.queue_latency.merge(p.queue_latency);
    out.execute_latency.merge(p.execute_latency);
    out.total_latency.merge(p.total_latency);
    out.sim_time_s += p.sim_time_s;
    out.sim_gm_bytes += p.sim_gm_bytes;
    out.sim_launches += p.sim_launches;
    out.sim_steps += p.sim_steps;
    out.sim_retries += p.sim_retries;
    out.sim_excluded_cores += p.sim_excluded_cores;
  }
  recompute_derived(out, hbm_peak_bytes_per_s);
  return out;
}

std::string MetricsSnapshot::invariant_violations() const {
  std::ostringstream os;
  const auto fail = [&os](const char* what) {
    if (os.tellp() > 0) os << "; ";
    os << what;
  };
  const std::uint64_t rejected = rejected_capacity + rejected_invalid +
                                 rejected_shutdown + rejected_quota;
  if (admitted + rejected > submitted) {
    fail("admitted + rejected > submitted");
  }
  if (completed + failed + cancelled > admitted) {
    fail("terminal (completed + failed + cancelled) > admitted");
  }
  if (execute_latency.count() != completed) {
    fail("execute_latency.count != completed");
  }
  if (total_latency.count() != completed + failed) {
    fail("total_latency.count != completed + failed");
  }
  std::uint64_t kinds = 0;
  for (const auto k : by_kind) kinds += k;
  if (kinds != completed) fail("sum(by_kind) != completed");
  std::uint64_t tiers = 0;
  for (const auto& t : tier_latency) tiers += t.count();
  if (tiers != completed) fail("sum(tier_latency counts) != completed");
  if (chunk_latency.count() != stream_chunks) {
    fail("chunk_latency.count != stream_chunks");
  }
  if (batched_requests < batches) fail("batched_requests < batches");
  return os.str();
}

std::string MetricsSnapshot::json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"device\": " << device << ",\n"
     << "  \"admission\": {"
     << "\"submitted\":" << submitted << ",\"admitted\":" << admitted
     << ",\"rejected_capacity\":" << rejected_capacity
     << ",\"rejected_invalid\":" << rejected_invalid
     << ",\"rejected_shutdown\":" << rejected_shutdown
     << ",\"rejected_quota\":" << rejected_quota
     << ",\"cancelled\":" << cancelled << ",\"completed\":" << completed
     << ",\"failed\":" << failed << "},\n"
     << "  \"completed_by_kind\": {";
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    os << (k ? "," : "") << '"'
       << op_kind_name(static_cast<OpKind>(k)) << "\":" << by_kind[k];
  }
  os << "},\n"
     << "  \"batching\": {\"batches\":" << batches
     << ",\"batched_requests\":" << batched_requests
     << ",\"max_batch_observed\":" << max_batch_observed
     << ",\"avg_occupancy\":" << avg_batch_occupancy
     << ",\"continuation_admits\":" << continuation_admits
     << ",\"failed_batches\":" << failed_batches << "},\n"
     << "  \"streaming\": {\"chunks\":" << stream_chunks
     << ",\"chunk_latency\":" << chunk_latency.json() << "},\n"
     << "  \"slo\": {\"deadline_misses\":" << deadline_misses
     << ",\"preemptions\":" << preemptions
     << ",\"preempted_tiles_resumed\":" << preempted_tiles_resumed
     << ",\"tier_latency\":{";
  for (std::size_t k = 0; k < tier_latency.size(); ++k) {
    os << (k ? "," : "") << '"' << slo_tier_name(static_cast<SloTier>(k))
       << "\":" << tier_latency[k].json();
  }
  os << "}},\n"
     << "  \"cluster\": {\"routed_affinity\":" << routed_affinity
     << ",\"routed_spill\":" << routed_spill << ",\"steals\":" << steals
     << ",\"stolen_requests\":" << stolen_requests
     << ",\"steals_suffered\":" << steals_suffered
     << ",\"health_transitions\":" << health_transitions
     << ",\"failovers\":" << failovers
     << ",\"tiles_resumed\":" << tiles_resumed
     << ",\"canary_probes\":" << canary_probes
     << ",\"shed_brownout\":" << shed_brownout << "},\n"
     << "  \"latency\": {\"queue\":" << queue_latency.json()
     << ",\"execute\":" << execute_latency.json()
     << ",\"total\":" << total_latency.json() << "},\n";
  // Consistency audit on the export path. Only merged / front-end views
  // (device -1) carry the verdict: a single cluster shard can legitimately
  // complete a request another shard admitted (failover), so the
  // admission inequalities only bind device-spanning snapshots.
  if (device < 0) {
    const std::string viol = invariant_violations();
    os << "  \"consistency\": \""
       << (viol.empty() ? std::string("ok") : viol) << "\",\n";
  }
  os << "  \"simulated\": {\"time_s\":" << sim_time_s
     << ",\"gm_bytes\":" << sim_gm_bytes << ",\"launches\":" << sim_launches
     << ",\"steps\":" << sim_steps << ",\"retries\":" << sim_retries
     << ",\"excluded_cores\":" << sim_excluded_cores
     << ",\"bandwidth_utilization\":" << sim_bandwidth_utilization << "}\n"
     << "}";
  return os.str();
}

}  // namespace ascan::serve
