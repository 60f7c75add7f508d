// ascan_cli — command-line driver for the library: run any operator on
// synthetic workloads, print the simulated execution report, optionally
// dump a chrome://tracing timeline of the launch schedule.
//
//   ascan_cli info
//   ascan_cli scan  --n 1048576 --algo mcscan|scanu|scanul1|vec [--s 128]
//                   [--blocks 20] [--trace out.json]
//   ascan_cli sort  --n 1048576 --algo radix|baseline
//   ascan_cli topp  --n 32000 --p 0.9 --u 0.25 [--baseline]
//   ascan_cli reduce --n 1048576 --algo cube|vector
//   ascan_cli chaos  [--plans 60] [--n 4096] [--seed0 1] [--retries 3]
//                    [--exclusions 1]
//   ascan_cli serve-demo [--requests 64] [--clients 4] [--batch 16]
//                        [--wait-us 500] [--queue 256]
//                        [--deadline-us 0] [--tier gold|silver|bronze]
//   ascan_cli cluster-demo [--devices 4] [--requests 96] [--clients 4]
//                          [--batch 8] [--wait-us 200] [--queue 512]
//                          [--no-steal]
//   ascan_cli health-demo [--devices 4] [--requests 160] [--clients 4]
//                         [--batch 4] [--hold-us 1500] [--dead-launch 4]
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include <thread>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/ascan.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/radix_sort.hpp"
#include "kernels/reduce.hpp"
#include "kernels/sampling.hpp"
#include "kernels/scan_u.hpp"
#include "kernels/scan_ul1.hpp"
#include "kernels/sort_baseline.hpp"
#include "kernels/vec_cumsum.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace ascend;
using ascend::format_bytes;
using ascend::format_time_s;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& k) const { return kv.count(k) > 0; }
  std::string str(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  std::size_t num(const std::string& k, std::size_t dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stoull(it->second);
  }
  double real(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::stod(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        a.kv[key] = argv[++i];
      } else {
        // Move-assigned: libstdc++ 12 at -O3 reports a false -Wrestrict
        // for operator=(const char*) here.
        a.kv[key] = std::string("1");
      }
    }
  }
  return a;
}

void print_report(const char* what, const sim::Report& rep, std::size_t n,
                  std::uint64_t useful_bytes) {
  std::printf("%s: n=%zu\n", what, n);
  std::printf("  simulated time : %s\n", format_time_s(rep.time_s).c_str());
  std::printf("  launches       : %d\n", rep.launches);
  std::printf("  bandwidth      : %.1f GB/s (useful %s)\n",
              rep.bandwidth(useful_bytes) / 1e9,
              format_bytes(useful_bytes).c_str());
  std::printf("  elements/s     : %.2f Gelem/s\n", rep.elements_per_s(n) / 1e9);
  std::printf("  gm traffic     : read %s, write %s, l2 hits %s\n",
              format_bytes(rep.gm_read_bytes).c_str(),
              format_bytes(rep.gm_write_bytes).c_str(),
              format_bytes(rep.l2_hit_bytes).c_str());
  std::printf("  engine busy    : cube %s, vector %s, mte %s\n",
              format_time_s(rep.cube_busy_s).c_str(),
              format_time_s(rep.vec_busy_s).c_str(),
              format_time_s(rep.mte_busy_s).c_str());
}

int cmd_info() {
  const auto cfg = sim::MachineConfig::ascend_910b4();
  std::printf("simulated machine: Ascend 910B4\n");
  std::printf("  AI cores        : %d (x1 cube + x%d vector)\n",
              cfg.num_ai_cores, cfg.vec_per_core);
  std::printf("  clock           : %.2f GHz\n", cfg.clock_hz / 1e9);
  std::printf("  HBM             : %.0f GB/s peak, %.0f%% streaming "
              "efficiency, %.0f ns latency\n",
              cfg.hbm_bandwidth / 1e9, cfg.hbm_efficiency * 100,
              cfg.gm_latency_s * 1e9);
  std::printf("  L2              : %s, %.0f GB/s\n",
              format_bytes(cfg.l2_bytes).c_str(), cfg.l2_bandwidth / 1e9);
  std::printf("  scratchpads     : UB %s, L1 %s, L0A/B %s/%s, L0C %s\n",
              format_bytes(cfg.ub_bytes).c_str(),
              format_bytes(cfg.l1_bytes).c_str(),
              format_bytes(cfg.l0a_bytes).c_str(),
              format_bytes(cfg.l0b_bytes).c_str(),
              format_bytes(cfg.l0c_bytes).c_str());
  std::printf("  cube            : %.0f fp16 MACs/cycle, %.0f int8\n",
              cfg.cube_macs_per_cycle_f16, cfg.cube_macs_per_cycle_i8);
  return 0;
}

int cmd_scan(const Args& a) {
  const std::size_t n = a.num("n", 1 << 20);
  const std::size_t s = a.num("s", 128);
  const int blocks = static_cast<int>(a.num("blocks", 0));
  const std::string algo = a.str("algo", "mcscan");

  acc::Device dev;
  Rng rng(1);
  auto x = dev.upload(rng.uniform_f16(n, -1.0, 1.0));
  sim::Report rep;
  std::uint64_t useful = 0;
  if (algo == "mcscan") {
    auto y = dev.alloc<float>(n);
    rep = kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(), n,
                                       {.s = s, .blocks = blocks});
    useful = n * 6;
  } else if (algo == "scanu" || algo == "scanul1") {
    auto y = dev.alloc<half>(n);
    rep = algo == "scanu"
              ? kernels::scan_u(dev, x.tensor(), y.tensor(), n, s)
              : kernels::scan_ul1(dev, x.tensor(), y.tensor(), n, s);
    useful = n * 4;
  } else if (algo == "vec") {
    auto y = dev.alloc<half>(n);
    rep = kernels::vec_cumsum(dev, x.tensor(), y.tensor(), n);
    useful = n * 4;
  } else {
    std::fprintf(stderr, "unknown scan algo '%s'\n", algo.c_str());
    return 2;
  }
  print_report(("scan/" + algo).c_str(), rep, n, useful);

  if (a.flag("trace")) {
    // Capture the MCScan schedule itself and dump it for chrome://tracing.
    const std::string path = a.str("trace", "trace.json");
    sim::Timeline tl;
    acc::Device dev2;
    auto x2 = dev2.upload(rng.uniform_f16(n, -1.0, 1.0));
    auto y2 = dev2.alloc<float>(n);
    kernels::mcscan<half, float>(
        dev2, x2.tensor(), y2.tensor(), n,
        {.s = s, .blocks = blocks, .timeline = &tl});
    sim::export_chrome_trace_file(tl, path);
    std::printf("  trace          : wrote %s (%zu events; open in "
                "chrome://tracing)\n",
                path.c_str(), tl.events.size());
  }
  return 0;
}

int cmd_sort(const Args& a) {
  const std::size_t n = a.num("n", 1 << 20);
  const std::string algo = a.str("algo", "radix");
  acc::Device dev;
  Rng rng(2);
  auto keys = dev.upload(rng.uniform_f16(n, -100.0, 100.0));
  auto ok = dev.alloc<half>(n);
  auto oi = dev.alloc<std::int32_t>(n);
  sim::Report rep;
  if (algo == "radix") {
    rep = kernels::radix_sort_f16(dev, keys.tensor(), ok.tensor(),
                                  oi.tensor(), n, {});
  } else if (algo == "baseline") {
    rep = kernels::sort_baseline_f16(dev, keys.tensor(), ok.tensor(),
                                     oi.tensor(), n, false);
  } else {
    std::fprintf(stderr, "unknown sort algo '%s'\n", algo.c_str());
    return 2;
  }
  print_report(("sort/" + algo).c_str(), rep, n, n * 12);
  return 0;
}

int cmd_topp(const Args& a) {
  const std::size_t n = a.num("n", 32000);
  const double p = a.real("p", 0.9);
  const double u = a.real("u", 0.25);
  acc::Device dev;
  Rng rng(3);
  auto probs = dev.upload(rng.token_probs_f16(n));
  const auto r = kernels::top_p_sample(
      dev, probs.tensor(), n, p, u,
      {.use_baseline_ops = a.flag("baseline")});
  print_report("top_p", r.report, n, n * 2);
  std::printf("  sampled token  : %d (nucleus %zu tokens)\n", r.token,
              r.nucleus);
  return 0;
}

int cmd_reduce(const Args& a) {
  const std::size_t n = a.num("n", 1 << 20);
  const std::string algo = a.str("algo", "cube");
  acc::Device dev;
  Rng rng(4);
  auto x = dev.upload(rng.uniform_f16(n, 0.0, 1.0));
  const auto r = algo == "cube"
                     ? kernels::reduce_cube(dev, x.tensor(), n, {})
                     : kernels::reduce_vector(dev, x.tensor(), n);
  print_report(("reduce/" + algo).c_str(), r.report, n, n * 2);
  std::printf("  sum            : %g\n", r.value);
  return 0;
}

// Chaos sweep: run seeded fault plans against Session operators with the
// resilient retry/degradation policy and summarise the outcomes. The
// invariant mirrors tests/test_chaos.cpp: every plan either completes with
// results identical to the fault-free run or fails with a typed error.
int cmd_chaos(const Args& a) {
  const std::size_t plans = a.num("plans", 60);
  const std::size_t n = a.num("n", 4096);
  const std::uint64_t seed0 = a.num("seed0", 1);
  const int retries = static_cast<int>(a.num("retries", 3));
  const int exclusions = static_cast<int>(a.num("exclusions", 1));

  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.num_ai_cores = 4;
  cfg.watchdog_s = 0.01;

  // Integer-valued workloads: every reduction is exact, so even a
  // degraded-core relaunch must match the fault-free run bit for bit.
  Rng rng(9);
  std::vector<half> x(n), keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
    keys[i] = half(static_cast<float>((i * 2654435761u >> 7) % 2048) -
                   1024.0f);
  }

  struct Op {
    const char* name;
    std::function<std::vector<float>(ascan::Session&)> run;
  };
  const std::vector<Op> ops = {
      {"cumsum", [&x](ascan::Session& s) { return s.cumsum(x).values; }},
      {"sort",
       [&keys](ascan::Session& s) {
         auto r = s.sort(keys);
         std::vector<float> sig;
         for (auto i : r.indices) sig.push_back(static_cast<float>(i));
         return sig;
       }},
      {"topk",
       [&keys, n](ascan::Session& s) {
         auto r = s.topk(keys, std::min<std::size_t>(64, n));
         std::vector<float> sig;
         for (auto v : r.values) sig.push_back(static_cast<float>(v));
         return sig;
       }},
  };

  Table table({"op", "seed", "outcome", "retries", "excluded", "mte", "ecc1",
               "ecc2", "hangs", "time"});
  std::size_t ran = 0, exact = 0, typed = 0, corrupt = 0;
  for (std::uint64_t seed = seed0; ran < plans; ++seed) {
    for (const auto& op : ops) {
      if (ran >= plans) break;
      ++ran;
      sim::FaultPlan plan;
      plan.seed = seed * 1000003 + ran;
      const double inten = static_cast<double>(seed % 6) / 5.0;
      plan.mte_transient_rate = 0.004 * inten;
      plan.ecc_single_rate = 0.002 * inten;
      plan.ecc_double_rate = 0.0004 * inten;
      plan.hang_rate = 0.0008 * inten;
      plan.throttle_rate = 0.25 * inten;

      ascan::Session ref_s(cfg);
      const auto ref = op.run(ref_s);

      ascan::Session s(cfg);
      s.set_fault_plan(plan);
      s.set_retry_policy({.max_attempts = retries,
                          .backoff_s = 20e-6,
                          .max_core_exclusions = exclusions});
      try {
        const auto got = op.run(s);
        const bool ok = got == ref;
        if (ok) ++exact; else ++corrupt;
        const auto& st = s.last_retry_stats();
        const auto& rep = s.total();  // one call per session
        table.add_row({op.name, static_cast<std::int64_t>(seed),
                       ok ? "exact" : "CORRUPT",
                       static_cast<std::int64_t>(st.retries),
                       static_cast<std::int64_t>(st.excluded_cores),
                       static_cast<std::int64_t>(rep.mte_faults),
                       static_cast<std::int64_t>(rep.ecc_single),
                       static_cast<std::int64_t>(rep.ecc_double),
                       static_cast<std::int64_t>(rep.hangs),
                       format_time_s(rep.time_s)});
      } catch (const sim::FaultError& e) {
        ++typed;
        const auto& rep = e.attempt_report();
        table.add_row({op.name, static_cast<std::int64_t>(seed),
                       std::string("error: ") + sim::fault_kind_name(e.kind()),
                       static_cast<std::int64_t>(s.last_retry_stats().retries),
                       static_cast<std::int64_t>(
                           s.last_retry_stats().excluded_cores),
                       static_cast<std::int64_t>(rep.mte_faults),
                       static_cast<std::int64_t>(rep.ecc_single),
                       static_cast<std::int64_t>(rep.ecc_double),
                       static_cast<std::int64_t>(rep.hangs),
                       format_time_s(rep.time_s)});
      }
    }
  }
  table.print(std::cout);
  std::printf("\nchaos: %zu plans, %zu bit-exact, %zu typed errors, "
              "%zu corruptions\n",
              ran, exact, typed, corrupt);
  if (corrupt > 0) {
    std::fprintf(stderr, "chaos: SILENT CORRUPTION DETECTED\n");
    return 1;
  }
  return 0;
}

// Serving demo: a few concurrent clients fire a mixed operator workload at
// a serve::Engine; per-kind outcomes and the metrics snapshot (the JSON the
// load generators consume) are printed when the queue drains.
int cmd_serve_demo(const Args& a) {
  const std::size_t requests = a.num("requests", 64);
  const int clients = static_cast<int>(a.num("clients", 4));
  const std::size_t batch = a.num("batch", 16);
  const double wait_us = a.real("wait-us", 500.0);

  using namespace ascan::serve;
  // SLO stamp applied to every request: --deadline-us 0 (default) keeps
  // the demo best-effort; a positive value exercises the EDF lanes,
  // deadline-miss accounting and (for bulk launches) tile-boundary
  // preemption visible in the printed metrics' "slo" section.
  const double deadline_us = a.real("deadline-us", 0.0);
  const std::string tier_name = a.str("tier", "silver");
  const SloTier tier = tier_name == "gold"     ? SloTier::Gold
                       : tier_name == "bronze" ? SloTier::Bronze
                                               : SloTier::Silver;
  const auto stamp = [&](Request r) {
    return std::move(r.with_slo(tier, deadline_us * 1e-6));
  };
  const std::size_t max_queue = a.num("queue", 256);
  Engine engine({.policy = {.max_batch = batch,
                            .max_wait_s = wait_us * 1e-6},
                 .max_queue = max_queue,
                 // Keep the latency lane open but never swallow a small
                 // --queue bound whole.
                 .interactive_reserve = std::min<std::size_t>(
                     16, max_queue > 1 ? max_queue / 4 : 0)});
  std::printf("serve-demo: %zu requests, %d clients, max_batch=%zu, "
              "max_wait=%.0f us\n\n",
              requests, clients, batch, wait_us);

  std::vector<std::future<Response>> futs(requests);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < requests;
           i = next.fetch_add(1)) {
        Rng rng(42 + i);
        switch (i % 4) {
          case 0:
            futs[i] = engine.submit(stamp(Request::cumsum(
                rng.uniform_f16(256 + 128 * (i % 3), -1.0, 1.0))));
            break;
          case 1: {
            auto x = rng.uniform_f16(256, -1.0, 1.0);
            auto f = rng.mask_i8(x.size(), 0.05);
            f[0] = 1;
            futs[i] = engine.submit(
                stamp(Request::segmented_cumsum(std::move(x), std::move(f))));
            break;
          }
          case 2:
            futs[i] = engine.submit(
                stamp(Request::sort(rng.uniform_f16(256, -100.0, 100.0))));
            break;
          default:
            futs[i] = engine.submit(stamp(Request::top_p(
                rng.token_probs_f16(1024), 0.9, rng.next_double())));
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Table table({"kind", "status", "batch", "queue us", "exec us", "total us"});
  for (std::size_t i = 0; i < std::min<std::size_t>(requests, 12); ++i) {
    const auto r = futs[i].get();
    table.add_row({op_kind_name(r.kind), status_name(r.status),
                   static_cast<std::int64_t>(r.batch_size),
                   r.timing.queue_s * 1e6, r.timing.execute_s * 1e6,
                   r.timing.total_s * 1e6});
  }
  engine.shutdown(ShutdownMode::Drain);
  std::printf("first %zu requests:\n", std::min<std::size_t>(requests, 12));
  table.print(std::cout);
  std::printf("\nmetrics:\n%s\n", engine.metrics_json().c_str());
  return 0;
}

// Cluster demo: the same mixed workload fired at a multi-device
// serve::Cluster, with a hot-key bulk flood mixed in so affinity placement,
// least-loaded spill and cross-device work stealing all leave visible
// tracks in the merged metrics. The per-request table shows which device
// served each request.
int cmd_cluster_demo(const Args& a) {
  const std::size_t requests = a.num("requests", 96);
  const int clients = static_cast<int>(a.num("clients", 4));
  const int devices = static_cast<int>(a.num("devices", 4));
  const std::size_t batch = a.num("batch", 8);
  const double wait_us = a.real("wait-us", 200.0);
  const std::size_t max_queue = a.num("queue", 512);

  using namespace ascan::serve;
  Cluster cluster({.policy = {.max_batch = batch,
                              .max_wait_s = wait_us * 1e-6},
                   .num_devices = devices,
                   .max_queue = max_queue,
                   .interactive_reserve = std::min<std::size_t>(
                       16, max_queue > 1 ? max_queue / 4 : 0),
                   .work_stealing = !a.flag("no-steal"),
                   .steal_min_backlog = batch});
  std::printf("cluster-demo: %zu requests, %d clients, %d devices, "
              "max_batch=%zu, max_wait=%.0f us, stealing %s\n\n",
              requests, clients, devices, batch, wait_us,
              a.flag("no-steal") ? "off" : "on");

  std::vector<std::future<Response>> futs(requests);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < requests;
           i = next.fetch_add(1)) {
        Rng rng(42 + i);
        // Even indices: a hot-key bulk flood (one GroupKey, so the whole
        // backlog lands on one affinity device and stealing has something
        // to rebalance). Odd indices: mixed interactive traffic.
        if (i % 2 == 0) {
          std::vector<half> hot(512);
          for (auto& v : hot) v = half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
          futs[i] = cluster.submit(Request::cumsum(
              std::move(hot), 128, false, Priority::Bulk));
          continue;
        }
        switch (i % 6) {
          case 1: {
            auto x = rng.uniform_f16(256, -1.0, 1.0);
            auto f = rng.mask_i8(x.size(), 0.05);
            f[0] = 1;
            futs[i] = cluster.submit(
                Request::segmented_cumsum(std::move(x), std::move(f)));
            break;
          }
          case 3:
            futs[i] = cluster.submit(Request::top_p(
                rng.token_probs_f16(1024), 0.9, rng.next_double()));
            break;
          default:  // 5
            futs[i] = cluster.submit(
                Request::sort(rng.uniform_f16(256, -100.0, 100.0)));
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Table table({"kind", "prio", "status", "device", "batch", "total us"});
  for (std::size_t i = 0; i < std::min<std::size_t>(requests, 12); ++i) {
    const auto r = futs[i].get();
    table.add_row({op_kind_name(r.kind), i % 2 == 0 ? "bulk" : "interactive",
                   status_name(r.status), static_cast<std::int64_t>(r.device),
                   static_cast<std::int64_t>(r.batch_size),
                   r.timing.total_s * 1e6});
  }
  cluster.shutdown(ShutdownMode::Drain);
  std::printf("first %zu requests:\n", std::min<std::size_t>(requests, 12));
  table.print(std::cout);
  const auto m = cluster.metrics();
  std::printf("\nrouting: %llu affinity, %llu spill; stealing: %llu batches "
              "(%llu requests)\n",
              static_cast<unsigned long long>(m.routed_affinity),
              static_cast<unsigned long long>(m.routed_spill),
              static_cast<unsigned long long>(m.steals),
              static_cast<unsigned long long>(m.stolen_requests));
  std::printf("\nmetrics:\n%s\n", cluster.metrics_json().c_str());
  return 0;
}

// Health demo: one device of the cluster dies mid-run under a seeded
// persistent fault. A monitor thread tails the per-device health states and
// prints a row every time the vector changes — the state machine walking
// Healthy -> Degraded -> Quarantined -> Probing (canary) and, because the
// fault is persistent, back to Quarantined — while clients keep submitting
// and every request still completes via tile-checkpoint failover.
int cmd_health_demo(const Args& a) {
  const std::size_t requests = a.num("requests", 160);
  const int clients = static_cast<int>(a.num("clients", 4));
  const int devices = static_cast<int>(a.num("devices", 4));
  const std::size_t batch = a.num("batch", 4);
  const double hold_us = a.real("hold-us", 1500.0);
  const std::size_t dead_launch = a.num("dead-launch", 4);

  using namespace ascan::serve;
  // The workload: 2048 elements at tile 16 — eight stepwise launches per
  // batch, so a faulted batch resumes from a mid-scan tile checkpoint. Its
  // affinity device is the victim, guaranteeing it a share of the load.
  constexpr std::size_t kN = 2048, kTile = 16;
  const int bad = static_cast<int>(
      group_key_hash(group_key(Request::cumsum(std::vector<half>(kN), kTile,
                                               false, Priority::Bulk))) %
      static_cast<std::size_t>(devices));
  std::vector<sim::FaultPlan> plans(static_cast<std::size_t>(devices));
  plans[static_cast<std::size_t>(bad)] =
      sim::FaultPlan::dead_from_launch(dead_launch);
  HealthPolicy hp;
  hp.window = 8;
  hp.min_samples = 1;  // fail over on the first fault
  hp.quarantine_hold_s = hold_us * 1e-6;
  hp.canary_batches = 1;
  Cluster cluster({.policy = {.max_batch = batch, .max_wait_s = 100e-6},
                   .num_devices = devices,
                   .max_queue = 1024,
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   .work_stealing = false,
                   .spill_margin = 1u << 20,
                   .health = hp});
  std::printf("health-demo: %zu requests, %d clients, %d devices; device %d "
              "dies from launch %zu on (persistent fault), quarantine hold "
              "%.0f us\n\n",
              requests, clients, devices, bad, dead_launch, hold_us);

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    const auto t0 = std::chrono::steady_clock::now();
    auto last = cluster.health_states();
    const auto print_row = [&](const std::vector<HealthState>& st) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      std::string line;
      for (std::size_t d = 0; d < st.size(); ++d) {
        line += "  d" + std::to_string(d) + "=" + health_state_name(st[d]);
      }
      const auto m = cluster.metrics();
      std::printf("[%8.2f ms]%s  | failovers %llu, tile-resumes %llu, "
                  "canaries %llu, transitions %llu\n",
                  ms, line.c_str(),
                  static_cast<unsigned long long>(m.failovers),
                  static_cast<unsigned long long>(m.tiles_resumed),
                  static_cast<unsigned long long>(m.canary_probes),
                  static_cast<unsigned long long>(m.health_transitions));
      std::fflush(stdout);
    };
    print_row(last);
    while (!done.load()) {
      auto cur = cluster.health_states();
      if (cur != last) {
        print_row(cur);
        last = cur;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const auto cur = cluster.health_states();
    if (cur != last) print_row(cur);
  });

  std::atomic<std::size_t> next{0}, ok{0}, resumed{0}, other{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next.fetch_add(1); i < requests;
           i = next.fetch_add(1)) {
        Rng rng(42 + i);
        std::vector<half> x(kN);
        for (auto& v : x) v = half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
        const auto r = cluster
                           .submit(Request::cumsum(std::move(x), kTile, false,
                                                   Priority::Bulk))
                           .get();
        if (r.ok()) ok++;
        else other++;
        if (r.resumed_from >= 0) resumed++;
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true);
  monitor.join();
  cluster.shutdown(ShutdownMode::Drain);

  const auto m = cluster.metrics();
  std::printf("\n%zu/%zu requests ok (%zu finished on another device after "
              "their first device faulted, %zu not ok)\n",
              ok.load(), requests, resumed.load(), other.load());
  std::printf("\nmetrics:\n%s\n", cluster.metrics_json().c_str());
  return m.failed == 0 && other.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.command == "info") return cmd_info();
    if (a.command == "scan") return cmd_scan(a);
    if (a.command == "sort") return cmd_sort(a);
    if (a.command == "topp") return cmd_topp(a);
    if (a.command == "reduce") return cmd_reduce(a);
    if (a.command == "chaos") return cmd_chaos(a);
    if (a.command == "serve-demo") return cmd_serve_demo(a);
    if (a.command == "cluster-demo") return cmd_cluster_demo(a);
    if (a.command == "health-demo") return cmd_health_demo(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: ascan_cli info|scan|sort|topp|reduce|chaos|serve-demo"
               "|cluster-demo|health-demo "
               "[--n N] [--algo A] [--s S] [--blocks B] [--p P] [--u U] "
               "[--baseline] [--trace FILE] [--plans P] [--seed0 S] "
               "[--retries R] [--exclusions E] [--requests N] [--clients C] "
               "[--batch B] [--wait-us W] [--queue Q] [--devices D] "
               "[--no-steal] [--hold-us H] [--dead-launch L]\n");
  return 2;
}
