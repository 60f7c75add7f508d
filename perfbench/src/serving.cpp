// serve_interactive and the Cluster-layer chaos probe: one generator thread
// sends a fixed open-loop rate at an Engine or a Cluster; every response is
// verified after the timed region against the host oracles.
#include <malloc.h>

#include <algorithm>
#include <map>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "kernels/reference.hpp"
#include "kernels/vec_ref.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"

namespace perfbench {
namespace {

using ascend::half;
using namespace ascan::serve;
namespace ref = ascend::ref;
namespace vecref = ascend::vecref;

/// Open-loop rates, well under capacity: no request is refused for lack of
/// queue space, and the median stays clear of the knee, which a slow host
/// moves down to ~500 requests/s. A top-p draw at vocab 4096 is ~53
/// full-width launches (~100 ms of one device), so top-p and sort stay a
/// small share of the traffic.
constexpr double kInteractiveRate = 100;
constexpr double kClusterRate = 50;
constexpr std::size_t kTopPEvery = 500;  ///< serve_interactive: 1 in 500
constexpr double kGoldDeadline_s = 10e-3;
constexpr std::size_t kVocab = 4096;
constexpr std::size_t kProbRows = 16;  ///< distinct top-p rows per seed
constexpr std::size_t kLongN = 2048, kLongTile = 16;
constexpr std::size_t kSortN = 2048;

/// One request of the schedule, kept so the response can be verified.
struct Planned {
  OpKind kind = OpKind::Cumsum;
  std::vector<half> x;              ///< Cumsum / SegmentedCumsum / Sort input
  std::vector<std::int8_t> flags;   ///< SegmentedCumsum
  std::size_t probs = 0;            ///< TopP: row of Plan::probs
  double u = 0;
  std::size_t tile = 128;
  Priority prio = Priority::Interactive;
  SloTier tier = SloTier::Silver;
  double deadline_s = 0;
};

struct Plan {
  std::vector<Planned> reqs;
  std::vector<std::vector<half>> probs;
};

std::vector<half> bit_row(ascend::Rng& rng, std::size_t n) {
  std::vector<half> x(n);
  for (auto& v : x) v = half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
  return x;
}

Planned gold_cumsum(ascend::Rng& rng) {
  Planned p;
  p.x = bit_row(rng, 128 + 64 * rng.next_below(4));
  p.tier = SloTier::Gold;
  p.deadline_s = kGoldDeadline_s;
  return p;
}

Planned top_p_draw(ascend::Rng& rng) {
  Planned p;
  p.kind = OpKind::TopP;
  p.probs = rng.next_below(kProbRows);
  p.u = rng.next_double();
  return p;
}

Plan make_plan(std::uint64_t seed, std::size_t n, bool chaos_mix) {
  ascend::Rng rng(seed);
  Plan plan;
  for (std::size_t i = 0; i < kProbRows; ++i) {
    plan.probs.push_back(rng.token_probs_f16(kVocab));
  }
  plan.reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!chaos_mix) {
      plan.reqs.push_back(i % kTopPEvery == kTopPEvery / 2 ? top_p_draw(rng)
                                                          : gold_cumsum(rng));
      continue;
    }
    // Chaos probe mix per 100 requests: 50 interactive Gold cumsum, 24
    // bulk long stepwise cumsum, 24 bulk segmented, 1 top-p, 1 radix sort.
    const std::uint64_t slot = i % 100;
    if (slot == 25) {
      plan.reqs.push_back(top_p_draw(rng));
    } else if (slot == 75) {
      Planned p;
      p.kind = OpKind::Sort;
      p.x = rng.uniform_f16(kSortN, -100.0, 100.0);
      p.prio = Priority::Bulk;
      p.tier = SloTier::Bronze;
      plan.reqs.push_back(std::move(p));
    } else if (slot % 2 == 0) {
      plan.reqs.push_back(gold_cumsum(rng));
    } else if (slot % 4 == 1) {
      Planned p;
      p.x = bit_row(rng, kLongN);
      p.tile = kLongTile;
      p.prio = Priority::Bulk;
      p.tier = SloTier::Bronze;
      plan.reqs.push_back(std::move(p));
    } else {
      Planned p;
      p.kind = OpKind::SegmentedCumsum;
      p.x = bit_row(rng, 512 + 128 * rng.next_below(5));
      p.flags = rng.mask_i8(p.x.size(), 1.0 / 64);
      p.prio = Priority::Bulk;
      p.tier = SloTier::Bronze;
      plan.reqs.push_back(std::move(p));
    }
  }
  return plan;
}

Request make_request(const Plan& plan, std::size_t i) {
  const Planned& p = plan.reqs[i];
  Request r;
  switch (p.kind) {
    case OpKind::Cumsum:
      r = Request::cumsum(p.x, p.tile, false, p.prio);
      break;
    case OpKind::SegmentedCumsum:
      r = Request::segmented_cumsum(p.x, p.flags, p.prio);
      break;
    case OpKind::Sort:
      r = Request::sort(p.x, false, ascan::SortAlgo::Radix, p.prio);
      break;
    case OpKind::TopP:
      r = Request::top_p(plan.probs[p.probs], 0.9, p.u);
      break;
  }
  r.with_slo(p.tier, p.deadline_s);
  return r;
}

/// Bit-exact check of one Ok response against the host oracle.
bool verify(const Plan& plan, std::size_t i, const Response& r) {
  const Planned& p = plan.reqs[i];
  switch (p.kind) {
    case OpKind::Cumsum: {
      vecref::VerifyStats st;
      vecref::verify_cumsum(p.x, r.values_f16, st);
      return st.clean() && r.values_f16.size() == p.x.size();
    }
    case OpKind::SegmentedCumsum: {
      vecref::VerifyStats st;
      vecref::verify_segmented(p.x, p.flags, r.values_f32, st);
      return st.clean() && r.values_f32.size() == p.x.size();
    }
    case OpKind::Sort: {
      const auto want = ref::stable_sort(p.x);
      return vecref::mismatch_count(want.values, r.sorted_values) == 0 &&
             want.indices == r.indices;
    }
    case OpKind::TopP:
      return r.token == ref::top_p_sample(plan.probs[p.probs], 0.9, p.u);
  }
  return false;
}

Outcome outcome_of(const Response& r, bool verified) {
  switch (r.status) {
    case Status::Ok: return verified ? Outcome::Ok : Outcome::Mismatch;
    case Status::Rejected: return Outcome::Rejected;
    case Status::Cancelled: return Outcome::Cancelled;
    case Status::Failed: return Outcome::Failed;
  }
  return Outcome::Failed;
}

/// What the generator saw: per request when it was due, when submit() was
/// called, and the response.
struct Loop {
  OpenLoop sched;
  std::vector<Clock::time_point> submitted;
  std::vector<Response> resp;
  CpuDelta cpu;
  double span_s = 0;  ///< first due time to last submit
};

template <typename Server>
Loop drive(Server& server, const Plan& plan, double rate, std::uint64_t base,
           SpanRecorder& spans) {
  const std::size_t n = plan.reqs.size();
  std::vector<std::future<Response>> futs(n);
  const auto c0 = cpu_now();
  Loop L{OpenLoop(Clock::now(), rate), std::vector<Clock::time_point>(n), {},
         {}, 0};
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(L.sched.due(i));
    Request req = make_request(plan, i);
    L.submitted[i] = Clock::now();
    futs[i] = server.submit(std::move(req));
    spans.add("submit", L.submitted[i], Clock::now(), 0, base + i + 1, 1);
  }
  L.span_s = seconds_between(L.sched.due(0), L.submitted.back());
  L.resp.reserve(n);
  for (auto& f : futs) L.resp.push_back(f.get());
  L.cpu = cpu_now() - c0;
  return L;
}

/// Everything the segments of one serving run measured.
struct Acc {
  std::vector<double> lat_us, queue_us, batch_us, exec_us, late_us;
  std::vector<double> setup_s;
  CpuDelta cpu;
  std::uint64_t sim_ops = 0;
  double sent = 0, span_s = 0;
  std::vector<MetricsSnapshot> snaps;
  Engine::DeviceStats dev;
};

/// Verifies and tallies one segment's responses and folds its latencies and
/// host cost into `acc`. Request ids in the trace are `base + i + 1`.
void evaluate(const Plan& plan, const Loop& L, std::uint64_t base,
              SpanRecorder& spans, RunResult& r, Acc& acc) {
  const std::size_t n = plan.reqs.size();
  std::vector<double> lat_us;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> launch_ops;
  for (std::size_t i = 0; i < n; ++i) {
    const Response& resp = L.resp[i];
    const bool ok = resp.status == Status::Ok && verify(plan, i, resp);
    if (resp.status == Status::Ok && !ok) {
      r.error("response " + std::to_string(i) + " (" +
              op_kind_name(plan.reqs[i].kind) +
              ") differs from the host oracle");
    }
    // The future resolved total_s after the request entered submit().
    const auto at = [&](double s) {
      return L.submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(s));
    };
    const auto resolved = at(resp.timing.total_s);
    const double latency_s = L.sched.latency_s(i, resolved);
    const bool has_deadline = plan.reqs[i].deadline_s > 0;
    r.tally.record(outcome_of(resp, ok), has_deadline,
                   latency_s <= plan.reqs[i].deadline_s);
    lat_us.push_back(latency_s * 1e6);
    acc.late_us.push_back(seconds_between(L.sched.due(i), L.submitted[i]) *
                          1e6);
    if (resp.status != Status::Ok) continue;
    acc.queue_us.push_back(resp.timing.queue_s * 1e6);
    acc.batch_us.push_back(resp.timing.batch_s * 1e6);
    acc.exec_us.push_back(resp.timing.execute_s * 1e6);
    // A launch's Report is shared by its members; count it once, at its
    // largest (rows finishing early carry the Report so far).
    auto& ops = launch_ops[{resp.device, resp.launch_id}];
    ops = std::max(ops, resp.report.num_ops);

    if (spans.enabled()) {
      const std::uint64_t id = base + i + 1;
      const std::uint64_t root =
          spans.add("request", L.sched.due(i), resolved, 0, id, 0);
      spans.add("gen.late", L.sched.due(i), L.submitted[i], root, id, 0);
      const double q = resp.timing.queue_s, b = resp.timing.batch_s,
                   e = resp.timing.execute_s;
      spans.add("queue", at(0), at(q), root, id, 2);
      spans.add("batch", at(q), at(q + b), root, id, 2);
      spans.add("execute", at(q + b), at(q + b + e), root, id, 2);
    }
  }
  for (const auto& entry : launch_ops) acc.sim_ops += entry.second;
  acc.lat_us.insert(acc.lat_us.end(), lat_us.begin(), lat_us.end());
  acc.cpu += L.cpu;
  acc.sent += static_cast<double>(n);
  acc.span_s += L.span_s;
}

/// End-to-end and engine-layer metrics of a finished serving run.
void report(const Acc& acc, RunResult& r) {
  r.e2e["setup_s"] = {median(acc.setup_s), "s"};
  r.e2e["peak_rss_mb"] = {cpu_now().max_rss_mb, "MiB"};
  r.e2e["p50_us"] = {median(acc.lat_us), "us"};
  r.e2e["slo_met_pct"] = {r.tally.slo_met_pct(), "%"};
  r.e2e["cpu_us_per_req"] = {acc.cpu.cpu_s() * 1e6 / acc.sent, "us"};
  r.e2e["sim_ops_per_cpu_s"] = {
      static_cast<double>(acc.sim_ops) / acc.cpu.cpu_s(), "ops/s"};
  r.e2e["ok_pct"] = {r.tally.ok_pct(), "%"};

  const Tail tail = supported_tail(acc.lat_us);
  r.layer["tail.p99_us"] = {tail.value, "us"};
  r.layer["tail.samples"] = {static_cast<double>(tail.count), "count"};
  r.layer["tail.quantile"] = {tail.q, "ratio"};
  r.layer["gen.late_us.max"] = {quantile(acc.late_us, 1.0), "us"};
  r.layer["gen.late_us.p99"] = {quantile(acc.late_us, 0.99), "us"};
  r.layer["gen.achieved_rps"] = {acc.sent / acc.span_s, "1/s"};
  r.layer["engine.queue_us.p50"] = {median(acc.queue_us), "us"};
  r.layer["engine.batch_us.p50"] = {median(acc.batch_us), "us"};
  r.layer["engine.execute_us.p50"] = {median(acc.exec_us), "us"};
  r.layer["host.sys_share"] = {acc.cpu.sys_share(), "ratio"};
  r.layer["fail_pct"] = {r.tally.fail_pct(), "%"};

  const MetricsSnapshot m = MetricsSnapshot::merged(acc.snaps, 800e9);
  const double done = std::max<double>(1, static_cast<double>(m.completed));
  r.layer["engine.occupancy"] = {m.avg_batch_occupancy, "requests"};
  r.layer["engine.launches_per_req"] = {m.sim_launches / done, "count"};
  r.layer["engine.continuation_admits"] = {
      static_cast<double>(m.continuation_admits), "count"};
  r.layer["engine.preemptions"] = {static_cast<double>(m.preemptions),
                                   "count"};
  r.layer["engine.deadline_misses"] = {static_cast<double>(m.deadline_misses),
                                       "count"};
  r.layer["engine.rejected_capacity"] = {
      static_cast<double>(m.rejected_capacity), "count"};
  // The open-loop rates are chosen to stay under capacity, so a refusal for
  // lack of queue space means the server got slower, not that it was busy.
  if (m.rejected_capacity > 0) {
    r.error(std::to_string(m.rejected_capacity) +
            " requests refused for lack of queue space");
  }
  r.layer["session.retries"] = {static_cast<double>(acc.dev.retries),
                                "count"};
  r.layer["session.excluded_cores"] = {
      static_cast<double>(acc.dev.excluded_cores), "count"};
  r.layer["session.op_failures"] = {static_cast<double>(acc.dev.op_failures),
                                    "count"};
}

void add_device_stats(const Engine& e, Acc& acc) {
  const auto d = e.device_stats();
  acc.dev.retries += d.retries;
  acc.dev.excluded_cores += d.excluded_cores;
  acc.dev.op_failures += d.op_failures;
}

/// Grows the device pool to full width: one cumsum row is one full-width
/// batched launch.
void warm_up(Engine& e) {
  e.submit(Request::cumsum(std::vector<half>(128, half(1.0f)))).get();
}

/// The timed region is split into segments, each on a freshly built
/// server: one server instance's device pools land on the host in one way
/// for its whole life, and pooling several instances averages that out.
constexpr int kSegments = 8;
/// The Cluster-layer probe: two fresh clusters, 3 s of chaos traffic each.
constexpr int kProbeSegments = 2;
constexpr double kProbeSegmentSeconds = 3;

std::size_t segment_requests(const Args& args, double rate) {
  return static_cast<std::size_t>(
      std::max(1.0, rate * args.seconds / kSegments));
}

std::uint64_t segment_seed(const Args& args, int seg) {
  return args.seed * 1000003ull + static_cast<std::uint64_t>(seg);
}

}  // namespace

RunResult run_serve_interactive(const Args& args, SpanRecorder& spans) {
  RunResult r;
  Acc acc;
  for (int seg = 0; seg < kSegments; ++seg) {
    // Segments are an artifact of the benchmark, not of serving: hand the
    // previous engine's freed memory back to the system, so peak RSS is one
    // engine's footprint rather than what the allocator kept from the
    // engines before it.
    malloc_trim(0);
    const auto t0 = Clock::now();
    const Plan plan =
        make_plan(segment_seed(args, seg),
                  segment_requests(args, kInteractiveRate), false);
    Engine engine;
    warm_up(engine);
    acc.setup_s.push_back(seconds_between(t0, Clock::now()));
    const std::uint64_t base = static_cast<std::uint64_t>(seg) << 32;
    const Loop L = drive(engine, plan, kInteractiveRate, base, spans);
    engine.shutdown(ShutdownMode::Drain);
    evaluate(plan, L, base, spans, r, acc);
    acc.snaps.push_back(engine.metrics());
    add_device_stats(engine, acc);
  }
  report(acc, r);
  return r;
}

void cluster_probe(std::uint64_t seed, SpanRecorder& spans, RunResult& r) {
  RunResult c;  // the probe's own tally and latency figures
  Acc acc;
  constexpr int kDevices = 4;
  // The victim is the long bulk shape's affinity device (as bench_cluster
  // --chaos picks it), so the device that dies carries checkpointable load.
  const int victim = static_cast<int>(
      group_key_hash(group_key(Request::cumsum(
          std::vector<half>(kLongN, half(1.0f)), kLongTile, false,
          Priority::Bulk))) %
      kDevices);
  std::vector<double> failover_us;
  std::uint64_t failed_on_victim = 0;
  for (int seg = 0; seg < kProbeSegments; ++seg) {
    const auto t0 = Clock::now();
    const std::uint64_t plan_seed = seed * 1000003ull + 100 + seg;
    const Plan plan = make_plan(
        plan_seed,
        static_cast<std::size_t>(kClusterRate * kProbeSegmentSeconds), true);
    ClusterOptions opt;
    opt.num_devices = kDevices;
    opt.device_fault_plans.resize(kDevices);
    // Seeded kill point: the victim serves this many launches (the warm-up
    // included), then every launch faults.
    opt.device_fault_plans[victim] = ascan::FaultPlan::dead_from_launch(
        40 + static_cast<std::int64_t>(plan_seed % 41));
    Cluster cluster(opt);
    for (int d = 0; d < kDevices; ++d) warm_up(cluster.device(d));
    acc.setup_s.push_back(seconds_between(t0, Clock::now()));
    const std::uint64_t base = static_cast<std::uint64_t>(100 + seg) << 32;
    const Loop L = drive(cluster, plan, kClusterRate, base, spans);
    cluster.shutdown(ShutdownMode::Drain);
    evaluate(plan, L, base, spans, c, acc);
    for (int d = 0; d < kDevices; ++d) add_device_stats(cluster.device(d), acc);
    acc.snaps.push_back(cluster.metrics());
    for (std::size_t i = 0; i < L.resp.size(); ++i) {
      const Response& resp = L.resp[i];
      if (resp.status == Status::Failed && resp.device == victim) {
        ++failed_on_victim;
      }
      if (resp.status == Status::Ok && resp.resumed_from >= 0) {
        failover_us.push_back(
            L.sched.latency_s(i, L.submitted[i]) * 1e6 +
            resp.timing.total_s * 1e6);
      }
    }
  }
  report(acc, c);
  r.tally += c.tally;
  for (auto& e : c.errors) r.error(std::move(e));
  r.layer["chaos.p50_us"] = c.e2e["p50_us"];
  r.layer["chaos.cpu_us_per_req"] = c.e2e["cpu_us_per_req"];
  r.layer["chaos.fail_pct"] = c.layer["fail_pct"];
  r.layer["chaos.rejected_capacity"] = c.layer["engine.rejected_capacity"];

  const MetricsSnapshot m = MetricsSnapshot::merged(acc.snaps, 800e9);
  const double routed =
      static_cast<double>(m.routed_affinity + m.routed_spill);
  r.layer["cluster.affinity_share"] = {
      routed > 0 ? static_cast<double>(m.routed_affinity) / routed : 0,
      "ratio"};
  r.layer["cluster.steals"] = {static_cast<double>(m.steals), "count"};
  r.layer["cluster.failovers"] = {static_cast<double>(m.failovers), "count"};
  r.layer["cluster.tiles_resumed"] = {static_cast<double>(m.tiles_resumed),
                                      "count"};
  r.layer["cluster.health_transitions"] = {
      static_cast<double>(m.health_transitions), "count"};
  r.layer["cluster.canary_probes"] = {static_cast<double>(m.canary_probes),
                                      "count"};
  r.layer["cluster.shed_brownout"] = {static_cast<double>(m.shed_brownout),
                                      "count"};
  r.layer["cluster.failover_p50_us"] = {median(failover_us), "us"};
  r.layer["cluster.failover_count"] = {
      static_cast<double>(failover_us.size()), "count"};
  r.layer["cluster.failed_on_dead_device"] = {
      static_cast<double>(failed_on_victim), "count"};
}

}  // namespace perfbench
