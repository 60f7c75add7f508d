// Per-layer probes: repeated calls into the public functions of sim,
// ascendc and core, timed from outside. Each probe runs the same work on
// every workload, so a change to one layer shows here even where the
// workload's end-to-end metrics barely move.
#include <cstring>
#include <functional>
#include <memory>

#include "ascendc/ascendc.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "kernels/common.hpp"
#include "kernels/mcscan.hpp"
#include "sim/hbm_arbiter.hpp"
#include "sim/l2_cache.hpp"

namespace perfbench {
namespace {

using ascan::Report;
using ascan::Session;
using ascend::half;
namespace acc = ascend::acc;
namespace sim = ascend::sim;

/// Host cost of one call, medians over repetitions.
struct Cost {
  double wall_us = 0;
  double cpu_us = 0;
  double sys_share = 0;
  double ctxsw = 0;
  double launches = 0;  ///< simulated launches per call
  double num_ops = 0;   ///< simulated trace ops per call
};

Cost measure(SpanRecorder& spans, const std::string& name, int reps,
             const std::function<Report()>& call) {
  std::vector<double> wall, cpu;
  CpuDelta total;
  Report last;
  for (int i = 0; i < reps; ++i) {
    const auto c0 = cpu_now();
    const auto t0 = Clock::now();
    last = call();
    const auto t1 = Clock::now();
    const CpuDelta d = cpu_now() - c0;
    spans.add(name, t0, t1, 0, 0, 3);
    wall.push_back(seconds_between(t0, t1) * 1e6);
    cpu.push_back(d.cpu_s() * 1e6);
    total += d;
  }
  Cost c;
  c.wall_us = median(wall);
  c.cpu_us = median(cpu);
  c.sys_share = total.sys_share();
  c.ctxsw = static_cast<double>(total.ctxsw) / reps;
  c.launches = last.launches;
  c.num_ops = static_cast<double>(last.num_ops);
  return c;
}

/// A 4K-element GM->GM copy as a MIX launch over every AI core of `dev`:
/// the vector sub-cores move the data, the cube sub-cores only join, so the
/// launch costs what a full-width launch costs the host.
Report mix_copy(acc::Device& dev, acc::GlobalTensor<half> x,
                acc::GlobalTensor<half> y) {
  const std::size_t n = x.size();
  const int blocks = dev.config().num_ai_cores;
  const int vecs = blocks * dev.config().vec_per_core;
  return acc::launch(
      dev, {.block_dim = blocks, .mode = acc::LaunchMode::Mix,
            .name = "probe_copy"},
      [&, n, vecs](acc::KernelContext& ctx) {
        if (ctx.is_cube()) return;
        const int v = ctx.GetBlockIdx() * dev.config().vec_per_core +
                      ctx.GetSubBlockIdx();
        const auto share = ascend::kernels::block_share(n, vecs, v);
        if (share.count == 0) return;
        acc::TPipe pipe(ctx);
        acc::TQue q(ctx, acc::TPosition::VECIN);
        pipe.InitBuffer(q, 1, share.count * sizeof(half));
        auto t = q.AllocTensor<half>();
        acc::DataCopy(ctx, t, x.sub(share.begin, share.count), share.count);
        q.EnQue(t);
        auto u = q.DeQue<half>();
        acc::DataCopy(ctx, y.sub(share.begin, share.count), u, share.count);
        q.FreeTensor(u);
      });
}

constexpr std::size_t kScanN = 1u << 22;

sim::MachineConfig with_cache(sim::MachineConfig cfg, bool on) {
  cfg.timing_cache = on;
  return cfg;
}

/// Per-launch host time of a repeated launch with the timing cache off
/// (functional pass + discrete-event timing) and with every launch a cache
/// hit (functional pass only). Their difference is the DES timing pass.
struct Split {
  double functional_us = 0;
  double timing_us = 0;
  double ops = 0;
  double hit_share = 0;  ///< cache hits over timed cached launches
};

/// `make(dev)` allocates the launch's buffers on `dev` once and returns the
/// launch itself, so every repetition hits the same GM addresses (the timing
/// cache keys on them).
using MakeLaunch = std::function<std::function<Report()>(acc::Device&)>;

Split split_launch(SpanRecorder& spans, const std::string& name, int reps,
                   const MakeLaunch& make) {
  Split s;
  double off_us = 0;
  {
    acc::Device dev(with_cache(sim::MachineConfig::ascend_910b4(), false));
    const auto launch = make(dev);
    launch();  // warm the pool
    const Cost c = measure(spans, name + ".cache_off", reps, launch);
    off_us = c.wall_us;
    s.ops = c.num_ops;
  }
  {
    acc::Device dev(with_cache(sim::MachineConfig::ascend_910b4(), true));
    const auto launch = make(dev);
    // The cache serves a shape only once its Report has proven stable.
    for (int i = 0; i < 4; ++i) launch();
    const auto hits0 = dev.engine().cache_stats().hits;
    const Cost c = measure(spans, name + ".cache_hit", reps, launch);
    s.functional_us = c.wall_us;
    s.hit_share = static_cast<double>(dev.engine().cache_stats().hits -
                                      hits0) /
                  reps;
  }
  s.timing_us = off_us - s.functional_us;
  return s;
}

}  // namespace

void layer_probes(std::uint64_t seed, SpanRecorder& spans, RunResult& r) {
  // --- sim: components --------------------------------------------------------
  {
    sim::L2Cache l2(96ull << 20, 512);
    constexpr int kAccesses = 20000;
    std::vector<double> ns;
    std::uint64_t addr = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kAccesses; ++i) {
        l2.access(addr, 32768, (i & 1) != 0);
        addr += 32768;
      }
      const auto t1 = Clock::now();
      spans.add("sim.l2.access", t0, t1, 0, 0, 3);
      ns.push_back(seconds_between(t0, t1) * 1e9 / kAccesses);
    }
    r.layer["sim.l2.access_ns"] = {median(ns), "ns"};
  }
  {
    constexpr int kFlows = 60, kRounds = 2000;
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint64_t events = 0;
      const auto t0 = Clock::now();
      for (int round = 0; round < kRounds; ++round) {
        sim::HbmArbiter a(600e9, 800e9);
        double t = 0;
        for (int i = 0; i < kFlows; ++i) {
          a.add_flow(t, 64e3 * (1 + i % 3), 128e9, 1.0, 1.0);
        }
        events += kFlows;
        while (!a.idle()) {
          t = a.next_completion_time();
          events += a.advance_and_pop(t).size();
        }
      }
      const auto t1 = Clock::now();
      spans.add("sim.hbm.churn", t0, t1, 0, 0, 3);
      ns.push_back(seconds_between(t0, t1) * 1e9 /
                   static_cast<double>(events));
    }
    r.layer["sim.hbm.event_ns"] = {median(ns), "ns"};
  }

  // --- ascendc: one launch ----------------------------------------------------
  constexpr std::size_t kCopyN = 4096;
  ascend::Rng rng(seed);
  const auto copy_in = rng.uniform_f16(kCopyN, -1.0, 1.0);
  const MakeLaunch copy = [&](acc::Device& dev) -> std::function<Report()> {
    auto x = std::make_shared<acc::GlobalBuffer<half>>(dev.upload(copy_in));
    auto y = std::make_shared<acc::GlobalBuffer<half>>(dev.alloc<half>(kCopyN));
    return [&dev, x, y] { return mix_copy(dev, x->tensor(), y->tensor()); };
  };
  for (const bool single : {false, true}) {
    acc::Device dev(with_cache(single ? sim::MachineConfig::single_core()
                                      : sim::MachineConfig::ascend_910b4(),
                               false));
    auto x = dev.upload(copy_in);
    auto y = dev.alloc<half>(kCopyN);
    mix_copy(dev, x.tensor(), y.tensor());
    const Cost c = measure(spans, single ? "launch.single_core" : "launch.full",
                           400, [&] { return mix_copy(dev, x.tensor(),
                                                      y.tensor()); });
    if (std::memcmp(y.host().data(), copy_in.data(),
                    kCopyN * sizeof(half)) != 0) {
      r.error("probe copy launch corrupted its output");
    }
    if (single) {
      r.layer["launch.cpu_us.single_core"] = {c.cpu_us, "us"};
    } else {
      r.layer["launch.cpu_us.full"] = {c.cpu_us, "us"};
      r.layer["launch.wall_us.full"] = {c.wall_us, "us"};
      r.layer["launch.sys_share"] = {c.sys_share, "ratio"};
      r.layer["launch.ctxsw"] = {c.ctxsw, "count"};
    }
  }
  const Split copy_split = split_launch(spans, "launch.copy", 400, copy);
  r.layer["launch.functional_us.copy"] = {copy_split.functional_us, "us"};
  r.layer["launch.timing_us.copy"] = {copy_split.timing_us, "us"};
  r.layer["sim.des.us_per_launch"] = {copy_split.timing_us, "us"};
  r.layer["sim.des.ns_per_op"] = {copy_split.timing_us * 1e3 / copy_split.ops,
                                  "ns"};
  r.layer["launch.cache_hit_share"] = {copy_split.hit_share, "ratio"};

  const auto scan_in = rng.uniform_f16(kScanN, -1.0, 1.0);
  const Split mc_split =
      split_launch(spans, "launch.mcscan", 3,
                   [&](acc::Device& dev) -> std::function<Report()> {
                     auto x = std::make_shared<acc::GlobalBuffer<half>>(
                         dev.upload(scan_in));
                     auto y = std::make_shared<acc::GlobalBuffer<float>>(
                         dev.alloc<float>(kScanN));
                     return [&dev, x, y] {
                       return ascend::kernels::mcscan<half, float>(
                           dev, x->tensor(), y->tensor(), kScanN, {});
                     };
                   });
  r.layer["launch.functional_us.mcscan"] = {mc_split.functional_us, "us"};
  r.layer["launch.timing_us.mcscan"] = {mc_split.timing_us, "us"};

  // --- core: Session ops at the serving shapes --------------------------------
  Session s;
  const auto bits = [&](std::size_t n) {
    std::vector<half> x(n);
    for (auto& v : x) v = half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
    return x;
  };
  const auto batched = bits(16 * 320);
  const auto longrow = bits(2048);
  const auto seg = bits(8 * 768);
  const auto flags = rng.mask_i8(seg.size(), 1.0 / 64);
  const auto probs = rng.token_probs_f16(4096);
  const auto keys = rng.uniform_f16(2048, -100.0, 100.0);
  const struct {
    const char* op;
    int reps;
    std::function<Report()> call;
  } ops[] = {
      {"cumsum_batched", 60,
       [&] { return s.cumsum_batched(batched, 16, 320, 128).report; }},
      {"cumsum_step", 20,
       [&] {
         // 2048 elements at tile 16: eight 256-element steps, carry threaded
         // host-side as the Engine does.
         auto ls = s.cumsum_batched_begin(16);
         std::vector<half> carry{half(0.0f)};
         for (std::size_t off = 0; off < longrow.size(); off += 256) {
           const std::vector<half> xs(longrow.begin() + off,
                                      longrow.begin() + off + 256);
           carry[0] = s.cumsum_batched_step(ls, xs, 1, 256, carry)
                          .values.back();
         }
         return s.cumsum_batched_finish(ls);
       }},
      {"segmented", 40,
       [&] { return s.segmented_cumsum(seg, flags).report; }},
      {"top_p", 20,
       [&] { return s.top_p_sample(probs, 0.9, 0.37).report; }},
      {"sort", 10, [&] { return s.sort(keys).report; }},
  };
  for (const auto& op : ops) {
    op.call();  // warm the shape
    const Cost c = measure(spans, std::string("session.") + op.op, op.reps,
                           op.call);
    const std::string p = std::string("session.") + op.op + ".";
    r.layer[p + "cpu_us"] = {c.cpu_us, "us"};
    r.layer[p + "wall_us"] = {c.wall_us, "us"};
    r.layer[p + "launches"] = {c.launches, "count"};
  }
}

}  // namespace perfbench
