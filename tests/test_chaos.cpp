// Chaos harness: sweep seeded fault plans across every operator and assert
// the resilience contract — each plan either completes with bit-exact
// results (after retries / core exclusion) or fails with a clean typed
// error. Never silent corruption, never a deadlock.
//
// All workloads are integer-valued so every reduction is exact in fp16 /
// fp32 regardless of how blocks partition the data; a retry or a
// degraded-core relaunch must therefore reproduce the fault-free result
// bit for bit.
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/vec_cumsum.hpp"
#include "serve/cluster.hpp"
#include "sim/fault.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

sim::MachineConfig chaos_cfg() {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.num_ai_cores = 4;
  cfg.watchdog_s = 0.01;  // far above any healthy sub-millisecond launch
  return cfg;
}

/// Distinct integer-valued fp16 keys (a bijective permutation of
/// [-n/2, n/2) for power-of-two n), so sorts, top-k and their index
/// outputs have a unique answer.
std::vector<half> distinct_keys(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;  // odd multiplier: bijection
    x[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  return x;
}

/// Flattened float signature of an operator result, for exact comparison.
using Sig = std::vector<float>;

struct ChaosOp {
  const char* name;
  bool allow_exclusion;  ///< result is partition-independent bit-for-bit
  std::function<Sig(ascan::Session&)> run;
};

std::vector<ChaosOp> chaos_ops() {
  const auto scan_x = testing::exact_scan_workload(2048, 11);
  const auto keys = distinct_keys(1024);
  auto mask = std::vector<std::int8_t>(2048);
  {
    Rng rng(17);
    for (auto& m : mask) m = rng.bernoulli(0.3) ? 1 : 0;
  }
  auto flags = std::vector<std::int8_t>(2048);
  {
    Rng rng(19);
    for (auto& f : flags) f = rng.bernoulli(1.0 / 64) ? 1 : 0;
  }
  // Distinct dyadic probabilities: exactly representable in fp16.
  auto probs = std::vector<half>(512);
  for (std::size_t i = 0; i < 512; ++i) {
    const std::size_t p = (i * 2654435761u) % 512;
    probs[i] = half(static_cast<float>(p + 1) / 512.0f);
  }

  std::vector<ChaosOp> ops;
  ops.push_back({"cumsum", true, [scan_x](ascan::Session& s) {
                   return s.cumsum(scan_x).values;
                 }});
  ops.push_back({"sort", true, [keys](ascan::Session& s) {
                   auto r = s.sort(keys);
                   Sig sig;
                   for (auto v : r.values) sig.push_back(float(v));
                   for (auto i : r.indices) sig.push_back(float(i));
                   return sig;
                 }});
  ops.push_back({"topk", true, [keys](ascan::Session& s) {
                   auto r = s.topk(keys, 37);
                   Sig sig;
                   for (auto v : r.values) sig.push_back(float(v));
                   for (auto i : r.indices) sig.push_back(float(i));
                   return sig;
                 }});
  ops.push_back({"masked_select", true, [keys, mask](ascan::Session& s) {
                   auto big = distinct_keys(2048);
                   auto r = s.masked_select(big, mask);
                   Sig sig;
                   for (auto v : r.values) sig.push_back(float(v));
                   return sig;
                 }});
  ops.push_back({"segmented_cumsum", true,
                 [scan_x, flags](ascan::Session& s) {
                   return s.segmented_cumsum(scan_x, flags).values;
                 }});
  // Top-p's internal float scans are partition-*dependent* in their
  // rounding, so a degraded relaunch may legitimately pick a different
  // token: exclusion stays off and exhausted retries surface as errors.
  ops.push_back({"top_p", false, [probs](ascan::Session& s) {
                   auto r = s.top_p_sample(probs, 0.9, 0.37);
                   return Sig{static_cast<float>(r.index),
                              static_cast<float>(r.nucleus)};
                 }});
  return ops;
}

sim::FaultPlan plan_for(std::uint64_t seed, std::size_t op) {
  sim::FaultPlan p;
  p.seed = seed * 1000003 + op;
  // seed % 6 == 0 leaves a fault-free plan in the mix on purpose.
  const double inten = static_cast<double>(seed % 6) / 5.0;
  p.mte_transient_rate = 0.004 * inten;
  p.ecc_single_rate = 0.002 * inten;
  p.ecc_double_rate = 0.0004 * inten;
  p.hang_rate = 0.0008 * inten;
  p.throttle_rate = 0.25 * inten;
  return p;
}

TEST(Chaos, SweepSeededFaultPlansAcrossAllOperators) {
  const auto ops = chaos_ops();

  // Fault-free references.
  std::vector<Sig> ref;
  for (const auto& op : ops) {
    ascan::Session s(chaos_cfg());
    ref.push_back(op.run(s));
  }

  int plans = 0, exact = 0, typed_errors = 0, recovered = 0, degraded = 0;
  for (std::uint64_t seed = 1; seed <= 36; ++seed) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ++plans;
      ascan::Session s(chaos_cfg());
      s.set_fault_plan(plan_for(seed, i));
      s.set_retry_policy(
          {.max_attempts = 3,
           .backoff_s = 20e-6,
           .max_core_exclusions = ops[i].allow_exclusion ? 1 : 0});
      try {
        const Sig got = ops[i].run(s);
        ASSERT_EQ(got.size(), ref[i].size())
            << ops[i].name << " seed " << seed;
        for (std::size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(got[j], ref[i][j])
              << ops[i].name << " seed " << seed << " index " << j
              << " diverged after "
              << s.last_retry_stats().retries << " retries";
        }
        ++exact;
        if (s.last_retry_stats().retries > 0) ++recovered;
        if (s.last_retry_stats().excluded_cores > 0) ++degraded;
      } catch (const sim::FaultError& e) {
        // Clean typed failure: carries the fault kind and a message.
        EXPECT_NE(e.kind(), sim::FaultKind::None);
        EXPECT_FALSE(std::string(e.what()).empty());
        ++typed_errors;
      }
      // Anything else (plain Error, deadlock assertion) escapes and fails
      // the test: the contract is bit-exact or typed, nothing in between.
    }
  }
  EXPECT_GE(plans, 200);
  EXPECT_EQ(plans, exact + typed_errors);
  EXPECT_GT(recovered, 0) << "no plan exercised the retry path";
  EXPECT_GT(typed_errors, 0) << "no plan exhausted the retry budget";
  RecordProperty("plans", plans);
  RecordProperty("exact", exact);
  RecordProperty("typed_errors", typed_errors);
  RecordProperty("recovered", recovered);
  RecordProperty("degraded", degraded);
}

TEST(Chaos, SingleTransientMteIsSurvivedWithOneRetry) {
  const auto x = testing::exact_scan_workload(2048, 3);
  ascan::Session clean(chaos_cfg());
  const auto ref = clean.cumsum(x);

  ascan::Session s(chaos_cfg());
  s.set_fault_plan(sim::FaultPlan::one_transient_mte(0));
  s.set_retry_policy({.max_attempts = 3});
  const auto got = s.cumsum(x);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.report.retries, 1u);
  EXPECT_EQ(got.report.mte_faults, 1u);
  EXPECT_GT(got.report.backoff_s, 0.0);
  // The failed attempt's simulated time is accounted for.
  EXPECT_GT(got.report.time_s, ref.report.time_s);
  EXPECT_EQ(s.last_retry_stats().attempts, 2u);
  EXPECT_EQ(s.last_retry_stats().retries, 1u);
  EXPECT_EQ(s.last_retry_stats().last_fault, sim::FaultKind::MteTransient);
}

TEST(Chaos, TransientFaultWithoutRetryPolicyThrowsTransferError) {
  ascan::Session s(chaos_cfg());
  s.set_fault_plan(sim::FaultPlan::one_transient_mte(0));
  const auto x = testing::exact_scan_workload(1024, 5);
  EXPECT_THROW(s.cumsum(x), sim::TransferError);
  // The forced fault is consumed; the session stays usable and correct.
  ascan::Session clean(chaos_cfg());
  EXPECT_EQ(s.cumsum(x).values, clean.cumsum(x).values);
}

TEST(Chaos, RetryBudgetExhaustionEscalatesToCoreExclusion) {
  // max_attempts = 1 exhausts the retry level instantly, forcing the
  // degradation path: the faulted core goes offline and the relaunch on
  // blocks-1 cores still produces the bit-exact result.
  const auto x = testing::exact_scan_workload(2048, 7);
  ascan::Session clean(chaos_cfg());
  const auto ref = clean.cumsum(x);

  ascan::Session s(chaos_cfg());
  s.set_fault_plan(sim::FaultPlan::one_transient_mte(0));
  s.set_retry_policy({.max_attempts = 1, .max_core_exclusions = 1});
  const auto got = s.cumsum(x);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.report.excluded_cores, 1u);
  EXPECT_EQ(s.active_cores(), chaos_cfg().num_ai_cores - 1);
  EXPECT_EQ(s.last_retry_stats().excluded_cores, 1u);
}

TEST(Chaos, PersistentEccDoubleBurnsExclusionsThenThrowsEccError) {
  ascan::Session s(chaos_cfg());
  sim::FaultPlan p;
  p.ecc_double_rate = 1.0;  // every transfer hits the bad page
  s.set_fault_plan(p);
  s.set_retry_policy({.max_attempts = 3, .max_core_exclusions = 2});
  EXPECT_THROW(s.cumsum(testing::exact_scan_workload(512, 13)),
               sim::EccError);
  // EccDouble is not retryable: no same-core retries, straight to
  // exclusion, and both exclusions were spent before giving up.
  EXPECT_EQ(s.last_retry_stats().last_fault, sim::FaultKind::EccDouble);
  EXPECT_EQ(s.last_retry_stats().excluded_cores, 2u);
  EXPECT_EQ(s.active_cores(), chaos_cfg().num_ai_cores - 2);
}

TEST(Chaos, HangSurfacesAsTimeoutAndRestoresOutputBuffers) {
  acc::Device dev(chaos_cfg());
  sim::FaultPlan p;
  p.hang_rate = 1.0;
  dev.set_fault_plan(p);
  auto x = dev.upload(testing::exact_scan_workload(1024, 9));
  auto y = dev.alloc<float>(1024, -5.0f);
  EXPECT_THROW((kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(),
                                             1024, {})),
               sim::TimeoutError);
  // The launch is idempotent-relaunchable: the failed attempt's partial
  // writes were rolled back.
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(y[i], -5.0f) << "partial write visible at " << i;
  }
}

TEST(Chaos, TimingCacheBypassedWhileFaultPlanArmed) {
  // An armed injector keys fault decisions on the per-attempt launch
  // ordinal; a timing-cache hit would skip the attempt entirely and
  // desynchronise the fault sequence. The engine must bypass the cache for
  // every launch while the plan is armed — even for shapes it already
  // cached — and resume caching when disarmed.
  auto cfg = chaos_cfg();
  cfg.timing_cache = true;
  acc::Device dev(cfg);
  auto x = dev.upload(testing::exact_scan_workload(1024, 21));
  auto y = dev.alloc<half>(1024);
  auto launch_once = [&] {
    return kernels::vec_cumsum(dev, x.tensor(), y.tensor(), 1024);
  };
  for (int i = 0; i < 5; ++i) launch_once();
  const auto& stats = dev.engine().cache_stats();
  ASSERT_GE(stats.hits, 1u) << "fault-free launches should reach steady state";
  const auto hits_before = stats.hits;
  const auto bypasses_before = stats.bypasses;

  sim::FaultPlan p;
  p.seed = 3;
  p.ecc_single_rate = 0.2;  // correctable scrubs: launches still succeed
  dev.set_fault_plan(p);
  for (int i = 0; i < 3; ++i) launch_once();
  EXPECT_EQ(stats.hits, hits_before) << "armed plan must bypass the cache";
  EXPECT_EQ(stats.bypasses, bypasses_before + 3);

  dev.set_fault_plan(sim::FaultPlan::none());
  for (int i = 0; i < 3; ++i) launch_once();
  EXPECT_GT(stats.hits, hits_before)
      << "disarming must restore cache hits once the shape re-stabilises";
}

// ---------------------------------------------------------------------------
// Cluster chaos: one battered device in a healthy cluster must degrade
// gracefully — its requests retry, fail typed or get served elsewhere —
// while the cluster keeps serving and shutdown always completes.

TEST(Chaos, ClusterToleratesOneFaultyDevice) {
  using namespace ascan::serve;
  const auto x = testing::exact_scan_workload(1024, 23);
  ascan::Session ref(chaos_cfg());
  const auto want = ref.cumsum_batched(x, 1, x.size()).values;

  // The battered device is the hot key's affinity home (placement is a
  // pure hash of the GroupKey), so it serves traffic however quickly its
  // siblings drain their queues.
  int faulty = -1;
  {
    Cluster probe({.num_devices = 4, .machine = chaos_cfg()});
    faulty = probe.submit(Request::cumsum(x, 128, false, Priority::Bulk))
                 .get()
                 .device;
  }
  ASSERT_GE(faulty, 0);

  std::uint64_t completed_total = 0, failed_total = 0, retries_total = 0;
  std::uint64_t faulty_device_calls = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::FaultPlan bad;
    bad.seed = seed * 101;
    bad.mte_transient_rate = 0.01;
    bad.ecc_double_rate = 0.001;
    bad.hang_rate = 0.001;
    std::vector<sim::FaultPlan> plans(4);  // only the home device is armed
    plans[static_cast<std::size_t>(faulty)] = bad;
    Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                     .num_devices = 4,
                     .machine = chaos_cfg(),
                     .retry = {.max_attempts = 3,
                               .backoff_s = 20e-6,
                               .max_core_exclusions = 1},
                     .device_fault_plans = plans,
                     .steal_min_backlog = 2,
                     .spill_margin = 1});  // spread the hot key everywhere
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 24; ++i) {
      futs.push_back(
          cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)));
    }
    cluster.shutdown(ShutdownMode::Drain);
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "seed " << seed << ": dangling future";
      const auto r = f.get();
      ASSERT_TRUE(r.status == Status::Ok || r.status == Status::Failed)
          << "seed " << seed << ": " << status_name(r.status);
      if (r.ok()) {
        // Even a retried / degraded / stolen execution is bit-exact.
        ASSERT_EQ(r.values_f16.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
          ASSERT_EQ(static_cast<float>(r.values_f16[j]),
                    static_cast<float>(want[j]))
              << "seed " << seed << " device " << r.device << " index " << j;
        }
      } else {
        EXPECT_FALSE(r.reason.empty());
      }
    }
    const auto m = cluster.metrics();
    EXPECT_EQ(m.admitted, m.completed + m.failed) << "seed " << seed;
    completed_total += m.completed;
    failed_total += m.failed;
    retries_total += m.sim_retries;
    faulty_device_calls +=
        cluster.device(faulty).device_stats().op_calls;
    // Steal/routing counters are part of the exported degradation story.
    const std::string j = cluster.metrics_json();
    EXPECT_NE(j.find("\"steals\""), std::string::npos);
    EXPECT_NE(j.find("\"steals_suffered\""), std::string::npos);
  }
  EXPECT_GT(completed_total, 0u);
  EXPECT_GT(retries_total, 0u) << "no seed exercised the retry path";
  EXPECT_GT(faulty_device_calls, 0u) << "the faulty device never saw traffic";
  RecordProperty("completed", static_cast<int>(completed_total));
  RecordProperty("failed", static_cast<int>(failed_total));
  RecordProperty("sim_retries", static_cast<int>(retries_total));
}

TEST(Chaos, ClusterShutdownNeverWedgesWhileADeviceHangs) {
  using namespace ascan::serve;
  // Device 0 hangs on every launch; the watchdog in chaos_cfg() turns each
  // hang into a typed TimeoutError, so its requests fail cleanly instead
  // of wedging the drain. Device 1 keeps serving.
  sim::FaultPlan hang;
  hang.seed = 9;
  hang.hang_rate = 1.0;
  Cluster cluster({.policy = {.max_batch = 2, .max_wait_s = 50e-6},
                   .num_devices = 2,
                   .machine = chaos_cfg(),
                   .retry = {.max_attempts = 2},
                   .device_fault_plans = {hang, sim::FaultPlan{}}});
  Rng rng(31);
  std::vector<std::future<Response>> futs;
  // Many distinct GroupKeys so the affinity hash lands work on both
  // devices (interactive lane: never stolen, so the hanging device must
  // handle — and cleanly fail — its own share).
  for (int i = 0; i < 16; ++i) {
    futs.push_back(cluster.submit(Request::top_p(
        rng.token_probs_f16(128 + 16 * static_cast<std::size_t>(i)), 0.9,
        rng.next_double())));
  }
  const auto x = testing::exact_scan_workload(512, 29);
  for (std::size_t tile : {16u, 32u, 64u, 128u}) {
    futs.push_back(cluster.submit(Request::cumsum(x, tile)));
    futs.push_back(cluster.submit(Request::cumsum(x, tile, true)));
  }
  cluster.shutdown(ShutdownMode::Drain);  // must return despite the hangs
  EXPECT_TRUE(cluster.stopped());
  std::size_t ok = 0, failed = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto r = f.get();
    ASSERT_TRUE(r.status == Status::Ok || r.status == Status::Failed);
    (r.ok() ? ok : failed)++;
  }
  EXPECT_GT(ok, 0u) << "the healthy device stopped serving";
  EXPECT_GT(failed, 0u) << "the hanging device never surfaced a failure";
  EXPECT_GT(cluster.device(0).device_stats().op_failures, 0u);
  EXPECT_EQ(cluster.device(1).device_stats().op_failures, 0u);
}

TEST(Chaos, ClusterQuarantinesDeadDeviceAndResumesFromTileCheckpoints) {
  using namespace ascan::serve;
  // The acceptance scenario of the device-health tentpole: a device serves
  // traffic normally, then dies mid-run and stays dead (persistent fault
  // from launch ordinal 2 onward). The cluster must degrade -> quarantine
  // it, fail its in-flight batches over to siblings — resuming from the
  // tile checkpoints stashed at the fault — and complete *every* submitted
  // request bit-exact with the unfaulted single-device run.
  constexpr std::size_t kReqs = 32;
  constexpr std::size_t kN = 2048;  // 8 tile columns of 16x16 per row
  ascan::Session ref(chaos_cfg());
  std::vector<std::vector<half>> inputs;
  std::vector<std::vector<half>> want;
  for (std::size_t i = 0; i < kReqs; ++i) {
    auto x = testing::exact_scan_workload(kN, 900 + i);
    want.push_back(ref.cumsum_batched(x, 1, kN, 16).values);
    inputs.push_back(std::move(x));
  }

  // Every request shares one GroupKey; the device we kill is its affinity
  // target, so the whole backlog sits on the dying device when it dies.
  const int bad = static_cast<int>(
      group_key_hash(group_key(Request::cumsum(inputs[0], 16))) % 4);
  std::vector<sim::FaultPlan> plans(4);
  plans[static_cast<std::size_t>(bad)] = sim::FaultPlan::dead_from_launch(2);

  HealthPolicy hp;
  hp.window = 4;
  hp.min_samples = 1;           // degrade on the 1st fault, quarantine on 2nd
  hp.quarantine_hold_s = 3600;  // never readmitted within the test
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                   .num_devices = 4,
                   .max_queue = 512,
                   .machine = chaos_cfg(),
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   .work_stealing = false,
                   .spill_margin = 1 << 20,  // pin the key to `bad`
                   .health = hp});
  std::vector<std::future<Response>> futs;
  futs.reserve(kReqs);
  for (const auto& x : inputs) {
    futs.push_back(
        cluster.submit(Request::cumsum(x, 16, false, Priority::Bulk)));
  }
  std::size_t resumed_elsewhere = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    ASSERT_EQ(r.status, Status::Ok) << "case " << i << ": " << r.reason;
    ASSERT_EQ(r.values_f16.size(), want[i].size()) << "case " << i;
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      ASSERT_EQ(static_cast<float>(r.values_f16[j]),
                static_cast<float>(want[i][j]))
          << "case " << i << " index " << j << " device " << r.device
          << " resumed_from " << r.resumed_from;
    }
    if (r.resumed_from >= 0) {
      // Failover provenance: the launch faulted on the dead device and the
      // request finished on a different (healthy) one.
      EXPECT_EQ(r.resumed_from, bad) << "case " << i;
      EXPECT_NE(r.device, bad) << "case " << i;
      ++resumed_elsewhere;
    }
  }
  cluster.shutdown(ShutdownMode::Drain);
  EXPECT_EQ(cluster.device_health(bad), HealthState::Quarantined);
  for (int d = 0; d < 4; ++d) {
    if (d != bad) EXPECT_EQ(cluster.device_health(d), HealthState::Healthy);
  }
  const auto m = cluster.metrics();
  EXPECT_EQ(m.admitted, m.completed);  // every admitted request finished Ok
  EXPECT_EQ(m.failed + m.cancelled, 0u);
  EXPECT_GE(m.failovers, 1u);
  EXPECT_GE(m.tiles_resumed, 1u)
      << "no in-flight batch resumed from a tile checkpoint";
  EXPECT_GE(resumed_elsewhere, 1u);
  EXPECT_GE(m.health_transitions, 2u);  // Healthy -> Degraded -> Quarantined
  EXPECT_EQ(m.shed_brownout, 0u);       // 3/4 healthy is above the floor
  RecordProperty("failovers", static_cast<int>(m.failovers));
  RecordProperty("tiles_resumed", static_cast<int>(m.tiles_resumed));
}

TEST(Chaos, WatchdogDeadlineScalesWithLaunchShape) {
  // The watchdog deadline must grow with the launch's own serial-work
  // estimate: a flat deadline tuned for small launches would misclassify a
  // giant-but-healthy launch as a hang. With scaling disabled the big
  // launch trips the flat deadline mid-run; with the default scale the
  // same launch completes bit-exact.
  const auto x = testing::exact_scan_workload(1 << 20, 33);
  ascan::Session probe(chaos_cfg());
  const auto ref = probe.cumsum(x);
  ASSERT_GT(ref.report.time_s, 0.0);

  auto cfg = chaos_cfg();
  cfg.watchdog_s = ref.report.time_s / 8;  // below the launch's own runtime
  cfg.watchdog_scale = 0;                  // flat deadline: misclassified
  ascan::Session flat(cfg);
  EXPECT_THROW(flat.cumsum(x), sim::TimeoutError);

  cfg.watchdog_scale = 8.0;  // deadline grows with the launch shape
  ascan::Session scaled(cfg);
  const auto got = scaled.cumsum(x);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.report.hangs, 0u);
  EXPECT_EQ(got.report.retries, 0u);
}

TEST(Chaos, ThrottledStragglersOnlyStretchTime) {
  const auto x = testing::exact_scan_workload(2048, 15);
  ascan::Session clean(chaos_cfg());
  const auto ref = clean.cumsum(x);

  ascan::Session s(chaos_cfg());
  sim::FaultPlan p;
  p.seed = 5;
  p.throttle_rate = 1.0;  // every sub-core runs at half clock
  p.throttle_factor = 0.5;
  s.set_fault_plan(p);
  const auto got = s.cumsum(x);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_GT(got.report.throttled_subcores, 0u);
  EXPECT_GT(got.report.time_s, ref.report.time_s);
  EXPECT_EQ(got.report.retries, 0u);
}

TEST(Chaos, DeviceDiesWhileHoldingPreemptionParkedBatchFailsOverBitExact) {
  using namespace ascan::serve;
  // Cross-test of the SLO-preemption tentpole against the device-health
  // machinery: a bulk launch is preempted at a tile boundary (parked as a
  // host-side checkpoint in the device's own queue), then the device dies
  // serving the interactive traffic that caused the park and is
  // quarantined while still *holding* the parked batch. The quarantine
  // drain must carry the checkpoint to a healthy sibling, which resumes
  // from the parked tile — not from scratch — and completes bit-exact.
  constexpr std::size_t kN = 8192;  // tile 16 -> 32 tile boundaries
  ascan::Session ref(chaos_cfg());
  const auto x = testing::exact_scan_workload(kN, 401);
  const auto want = ref.cumsum_batched(x, 1, kN, 16).values;

  const int bad = static_cast<int>(
      group_key_hash(group_key(Request::cumsum(x, 16))) % 2);
  // Two interactive requests whose GroupKeys also hash to the dying
  // device (distinct keys -> two separate launches -> two faults ->
  // quarantine). Length is part of the GroupKey, so scan lengths until
  // the affinity hash matches.
  const auto hi_len = [&](std::size_t from) {
    for (std::size_t n = from;; n += 16) {
      const auto k = group_key(Request::cumsum(testing::exact_scan_workload(n), 64));
      if (static_cast<int>(group_key_hash(k) % 2) == bad) return n;
    }
  };
  const std::size_t n1 = hi_len(256), n2 = hi_len(n1 + 16);

  std::vector<sim::FaultPlan> plans(2);
  // Launch 0 is the bulk batch (parks cleanly); everything after it
  // faults, so the interactive launches kill the device while the parked
  // checkpoint is still queued on it.
  plans[static_cast<std::size_t>(bad)] = sim::FaultPlan::dead_from_launch(1);
  HealthPolicy hp;
  hp.window = 4;
  hp.min_samples = 1;
  hp.quarantine_hold_s = 3600;
  Cluster cluster({.policy = {.max_batch = 2,
                              .max_wait_s = 50e-6,
                              .aging_factor = 1e9,
                              .preempt_slack_s = 1e9},
                   .num_devices = 2,
                   .machine = chaos_cfg(),
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   .work_stealing = false,
                   .spill_margin = 1 << 20,  // placement is pure affinity
                   .health = hp});

  // The interactive requests are submitted from the bulk launch's first
  // chunk callback, which the device's worker runs before its preemption
  // check: the bulk parks at its first tile boundary however fast the host
  // runs the steps.
  std::future<Response> hi1, hi2;
  Request bulk = Request::cumsum(x, 16, false, Priority::Bulk);
  bulk.on_chunk = [&](const StreamChunk&) {
    if (hi1.valid()) return;
    hi1 = cluster.submit(Request::cumsum(testing::exact_scan_workload(n1), 64)
                             .with_slo(SloTier::Gold, 10e-3));
    hi2 = cluster.submit(Request::cumsum(testing::exact_scan_workload(n2), 64)
                             .with_slo(SloTier::Gold, 10e-3));
  };
  auto bulk_fut = cluster.submit(std::move(bulk));

  const auto r = bulk_fut.get();
  ASSERT_EQ(r.status, Status::Ok) << r.reason;
  ASSERT_TRUE(hi1.valid()) << "bulk never started on the affinity device";
  // The interactive launches died with the device; they may fail over or
  // fail typed, but must resolve either way.
  for (auto* f : {&hi1, &hi2}) {
    const auto hr = f->get();
    ASSERT_TRUE(hr.status == Status::Ok || hr.status == Status::Failed);
  }
  cluster.shutdown(ShutdownMode::Drain);

  EXPECT_EQ(cluster.device_health(bad), HealthState::Quarantined);
  EXPECT_GE(r.preemptions, 1u) << "bulk was never parked";
  EXPECT_EQ(r.resumed_from, bad)
      << "parked batch did not fail over from the dead device";
  EXPECT_NE(r.device, bad);
  ASSERT_EQ(r.values_f16.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(static_cast<float>(r.values_f16[j]),
              static_cast<float>(want[j]))
        << "index " << j << " (resumed_from " << r.resumed_from << ")";
  }
  const auto m = cluster.metrics();
  EXPECT_GE(m.preemptions, 1u);
  EXPECT_GE(m.tiles_resumed, 1u)
      << "the parked checkpoint was recomputed from scratch";
  EXPECT_GE(m.preempted_tiles_resumed, 1u);
}

}  // namespace
}  // namespace ascend
