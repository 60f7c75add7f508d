// Host-side microbenchmarks (google-benchmark) of the simulator itself:
// how fast the functional+timing machine model executes on the host. These
// are *not* paper figures — they track the cost of running this
// reproduction (useful when extending the simulator).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ascan.hpp"
#include "kernels/batched_scan.hpp"
#include "kernels/common.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/scan_u.hpp"
#include "sim/hbm_arbiter.hpp"
#include "sim/l2_cache.hpp"

using namespace ascend;

namespace {

sim::MachineConfig cfg(bool timing_cache = false) {
  auto c = sim::MachineConfig::ascend_910b4();
  c.timing_cache = timing_cache;
  return c;
}

std::vector<half> bench_workload(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = half(static_cast<float>((i * 2654435761u) % 7) - 3.0f);
  }
  return x;
}

/// Times `op`, one Session call returning {Report, payload}, after
/// checking that two fresh sessions agree on it bit for bit. The check is
/// recorded as the `run_twice_ok` counter so BENCH_sim_host.json carries
/// the determinism evidence from the same run as the throughput numbers.
/// `launches_per_s` counts simulated kernel launches retired per host
/// wall-clock second; `items_per_second` is simulated elements per second.
template <typename Op>
void session_bench(benchmark::State& state, std::size_t items, Op&& op) {
  ascan::Session a(cfg()), b(cfg());
  const auto ra = op(a), rb = op(b);
  if (!sim::identical(ra.first, rb.first) || ra.second != rb.second) {
    state.SkipWithError("two fresh sessions diverged");
    return;
  }
  ascan::Session s(cfg());
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = op(s);
    launches += r.first.launches;
    benchmark::DoNotOptimize(r.second);
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.counters["run_twice_ok"] = 1.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items));
}

}  // namespace

static void BM_L2CacheAccess(benchmark::State& state) {
  sim::L2Cache l2(96ull << 20, 512);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2.access(addr, 32768, (addr & 1) != 0));
    addr += 32768;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32768);
}
BENCHMARK(BM_L2CacheAccess);

static void BM_HbmArbiterChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::HbmArbiter a(600e9, 800e9);
    double t = 0;
    for (int i = 0; i < flows; ++i) a.add_flow(t, 64e3, 128e9, 1.0, 1.0);
    while (!a.idle()) {
      t = a.next_completion_time();
      benchmark::DoNotOptimize(a.advance_and_pop(t));
    }
  }
}
BENCHMARK(BM_HbmArbiterChurn)->Arg(4)->Arg(60);

static void BM_SimulateScanU(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  acc::Device dev(sim::MachineConfig::single_core());
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<half>(n, half(0.0f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::scan_u(dev, x.tensor(), y.tensor(), n, 128));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulateScanU)->Arg(1 << 16)->Arg(1 << 18);

static void BM_SimulateMcScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  acc::Device dev;
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<float>(n, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(), n, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulateMcScan)->Arg(1 << 18)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Intrinsic layer: one instruction's functional pass plus its trace record,
// timed inside a single launch (the launch's own cost is outside the loop).

/// int8 Mmad at 128^3 against U_s (the mask scans' operand, which takes the
/// linear-time recurrence) or against a U_s with one flipped element (the
/// generic MAC loop).
static void BM_MmadI8(benchmark::State& state, bool upper) {
  const std::size_t s = 128;
  auto b = kernels::make_upper_ones<std::int8_t>(s);
  if (!upper) b[(s - 1) * s] = 1;
  Rng rng(5);
  std::vector<std::int8_t> a(s * s);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.next_below(2));
  acc::Device dev(sim::MachineConfig::single_core());
  acc::launch(dev, {.block_dim = 1, .mode = acc::LaunchMode::CubeOnly},
              [&](acc::KernelContext& c) {
                acc::TPipe pipe(c);
                acc::TBuf a2(c, acc::TPosition::A2), b2(c, acc::TPosition::B2),
                    co(c, acc::TPosition::CO1);
                pipe.InitBuffer(a2, s * s);
                pipe.InitBuffer(b2, s * s);
                pipe.InitBuffer(co, s * s * sizeof(std::int32_t));
                auto A = a2.Get<std::int8_t>();
                auto B = b2.Get<std::int8_t>();
                auto C = co.Get<std::int32_t>();
                std::copy(a.begin(), a.end(), A.data());
                std::copy(b.begin(), b.end(), B.data());
                for (auto _ : state) {
                  acc::Mmad(c, C, A, B, s, s, s, false);
                  benchmark::DoNotOptimize(C.data());
                }
              });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s * s * s));
}
BENCHMARK_CAPTURE(BM_MmadI8, upper, true);
BENCHMARK_CAPTURE(BM_MmadI8, generic, false);

/// GatherMask of n floats under a p=0.5 random mask.
static void BM_GatherMask(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  std::vector<std::int8_t> mask(n);
  for (auto& v : mask) v = rng.bernoulli(0.5) ? 1 : 0;
  acc::Device dev(sim::MachineConfig::single_core());
  acc::launch(dev, {.block_dim = 1, .mode = acc::LaunchMode::VectorOnly},
              [&](acc::KernelContext& c) {
                acc::TPipe pipe(c);
                acc::TBuf sb(c, acc::TPosition::VECCALC),
                    mb(c, acc::TPosition::VECCALC),
                    db(c, acc::TPosition::VECCALC);
                pipe.InitBuffer(sb, n * sizeof(float));
                pipe.InitBuffer(mb, n);
                pipe.InitBuffer(db, n * sizeof(float));
                auto src = sb.Get<float>();
                auto msk = mb.Get<std::int8_t>();
                auto dst = db.Get<float>();
                for (std::size_t i = 0; i < n; ++i) {
                  src[i] = static_cast<float>(i);
                }
                std::copy(mask.begin(), mask.end(), msk.data());
                for (auto _ : state) {
                  benchmark::DoNotOptimize(
                      acc::GatherMask(c, dst, src, msk, n));
                }
              });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GatherMask)->Arg(8192);

// ---------------------------------------------------------------------------
// End-to-end host throughput of the Session API (see session_bench).

static void BM_SessionCumsum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto x = bench_workload(n);
  session_bench(state, n, [&](ascan::Session& s) {
    auto r = s.cumsum(x);
    return std::pair{r.report, std::move(r.values)};
  });
}
BENCHMARK(BM_SessionCumsum)->Arg(1 << 12)->Arg(1 << 16)->UseRealTime();

static void BM_SessionSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<half> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    keys[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  session_bench(state, n, [&](ascan::Session& s) {
    auto r = s.sort(keys);
    return std::pair{r.report, std::pair{std::move(r.values),
                                         std::move(r.indices)}};
  });
}
BENCHMARK(BM_SessionSort)->Arg(1 << 11)->Arg(1 << 20)->UseRealTime();

/// Compress (masked_select) under a p=0.5 mask, the Fig. 10 operator.
static void BM_SessionMaskedSelect(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto x = bench_workload(n);
  std::vector<std::int8_t> mask(n);
  Rng rng(13);
  for (auto& v : mask) v = rng.bernoulli(0.5) ? 1 : 0;
  session_bench(state, n, [&](ascan::Session& s) {
    auto r = s.masked_select(x, mask);
    return std::pair{r.report, std::move(r.values)};
  });
}
BENCHMARK(BM_SessionMaskedSelect)->Arg(1 << 22)->UseRealTime();

static void BM_SessionTopPSampleBatch(benchmark::State& state) {
  const std::size_t batch = 4;
  const std::size_t vocab = static_cast<std::size_t>(state.range(0));
  std::vector<half> probs(batch * vocab);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < vocab; ++i) {
      const std::size_t p = (i * 2654435761u) % vocab;
      probs[b * vocab + i] = half(static_cast<float>(p + 1) /
                                  static_cast<float>(vocab));
    }
  }
  const std::vector<double> u = {0.1, 0.4, 0.7, 0.95};
  session_bench(state, batch * vocab, [&](ascan::Session& s) {
    auto r = s.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    return std::pair{r.report, std::move(r.tokens)};
  });
}
BENCHMARK(BM_SessionTopPSampleBatch)->Arg(512)->UseRealTime();

// Repeated launches on device-resident buffers, with the timing cache off
// (every launch replays its trace through the DES) and on (a stable launch
// shape skips the replay). The 8K copy is the purest per-launch overhead:
// 60 sub-core fibers, context setup and a short replay. The 2^20 fp16
// MCScan is a large launch whose replay is a bigger share of its cost. The
// serve row is the serving stack's launch: a batch-1, 256-element
// batched ScanU row (s = 128) over all 20 AI cores, where only one cube
// core gets work. sys_us_per_launch is the kernel-mode CPU time (getrusage)
// each launch costs the host.
enum class LaunchShape { Copy8K, McScan1M, ServeRow };

static double sys_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

static void BM_RepeatedLaunch(benchmark::State& state, LaunchShape shape,
                              bool timing_cache) {
  const std::size_t n = shape == LaunchShape::McScan1M ? std::size_t{1} << 20
                        : shape == LaunchShape::ServeRow ? 256
                                                         : 8192;
  acc::Device dev(cfg(timing_cache));
  auto x = dev.upload(bench_workload(n));
  auto y = dev.alloc<half>(n);
  auto yf = dev.alloc<float>(n);
  std::int64_t launches = 0;
  const double sys0 = sys_seconds();
  for (auto _ : state) {
    sim::Report r;
    switch (shape) {
      case LaunchShape::Copy8K:
        r = kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), n, 0);
        break;
      case LaunchShape::McScan1M:
        r = kernels::mcscan<half, float>(dev, x.tensor(), yf.tensor(), n, {});
        break;
      case LaunchShape::ServeRow:
        r = kernels::batched_scan_u(dev, x.tensor(), y.tensor(), 1, n,
                                    {.s = 128});
        break;
    }
    launches += r.launches;
    benchmark::DoNotOptimize(r.time_s);
  }
  const double sys = sys_seconds() - sys0;
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.counters["sys_us_per_launch"] =
      launches > 0 ? sys * 1e6 / static_cast<double>(launches) : 0.0;
  state.counters["cache_hits"] =
      static_cast<double>(dev.engine().cache_stats().hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_RepeatedLaunch, replayed, LaunchShape::Copy8K, false)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RepeatedLaunch, cached, LaunchShape::Copy8K, true)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RepeatedLaunch, mcscan_1M_replayed, LaunchShape::McScan1M,
                  false)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RepeatedLaunch, mcscan_1M_cached, LaunchShape::McScan1M,
                  true)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RepeatedLaunch, serve_row_replayed, LaunchShape::ServeRow,
                  false)
    ->UseRealTime();

BENCHMARK_MAIN();
