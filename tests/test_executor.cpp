// Host execution engine regression tests: the fiber executor, pooled
// contexts and the timing cache must be observationally invisible — golden
// Reports for every operator family, bit-identical repeats, timing-cache
// hits equal to full discrete-event replays, and no host thread per launch.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/scan_strategies.hpp"
#include "kernels/vec_cumsum.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::ScanAlgo;
using ascan::Session;

sim::MachineConfig cfg_with(bool timing_cache) {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.timing_cache = timing_cache;
  return cfg;
}

/// Distinct integer-valued fp16 keys (unique answer for sorts).
std::vector<half> distinct_keys(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    x[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  return x;
}

// ---------------------------------------------------------------------------
// Repeats and host threads.

TEST(Executor, RepeatedLaunchesStayIdentical) {
  // Repeated launches run on recycled contexts/arenas/scratch — they must
  // reproduce values and every trace-derived metric exactly. Session::cumsum
  // uploads fresh GM buffers per call, but the virtual-address free list
  // hands each repeat the same addresses, so from the second call on (L2
  // warm) the Reports are bit-identical.
  Session s;
  const auto x = testing::exact_scan_workload(2048, 5);
  const auto r1 = s.cumsum(x);
  const auto r2 = s.cumsum(x);
  const auto r3 = s.cumsum(x);
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_EQ(r2.values, r3.values);
  EXPECT_EQ(r1.report.num_ops, r3.report.num_ops);
  EXPECT_TRUE(sim::identical(r2.report, r3.report))
      << "repeated Session launches must converge to bit-identical Reports";

  // Device-resident repeats on fixed buffers: no internal GM allocations,
  // so after the first (cold-L2) launch the Reports must be bit-identical.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto dx = dev.upload(x);
  auto dy = dev.alloc<half>(x.size());
  (void)kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  const sim::Report warm2 =
      kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  const sim::Report warm3 =
      kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  EXPECT_TRUE(sim::identical(warm2, warm3))
      << "steady-state repeated launches must be bit-identical";
}

/// Host threads of this process, from the "Threads:" line of
/// /proc/self/status (-1 where it cannot be read).
int host_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(Executor, FullWidthMixLaunchCreatesNoHostThread) {
  // Every sub-core body runs as a fiber on the launching thread, so even a
  // 60-sub-core MIX launch that meets at SyncAll leaves the thread count
  // untouched — during the launch as well as after it.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  const int before = host_threads();
  ASSERT_GT(before, 0);
  int during = -1;
  acc::launch(dev, {.block_dim = 20, .mode = acc::LaunchMode::Mix},
              [&](acc::KernelContext& c) {
                c.SyncAll();
                if (c.GetBlockIdx() + c.GetSubBlockIdx() == 0) {
                  during = host_threads();
                }
                c.SyncAll();
              });
  EXPECT_EQ(during, before);
  EXPECT_EQ(host_threads(), before);
}

// ---------------------------------------------------------------------------
// Golden Reports: the simulated figures of every operator family, pinned bit
// for bit. Any change to how sub-core bodies execute on the host (ordering,
// threading, trace canonicalisation) must leave these exactly as they are.

struct GoldenReport {
  const char* name;
  std::uint64_t time_bits;  ///< bit pattern of Report::time_s
  std::uint64_t num_ops;
  int launches;
  std::uint64_t l2_hit_bytes;
};

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::vector<std::int8_t> bernoulli_mask(std::size_t n, double p,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> m(n);
  for (auto& v : m) v = rng.bernoulli(p) ? 1 : 0;
  return m;
}

/// Runs one operator family on a fresh default Session (or Device).
sim::Report run_family(const std::string& name) {
  Session s;
  const auto x = testing::exact_scan_workload(1 << 16, 11);
  const auto small = testing::exact_scan_workload(8192, 12);
  if (name == "mcscan") return s.cumsum(x).report;
  if (name == "mcscan_exclusive") {
    return s.cumsum(x, {.exclusive = true}).report;
  }
  if (name == "mcscan_i8") {
    return s.cumsum_i8(bernoulli_mask(1 << 16, 0.3, 13)).report;
  }
  if (name == "scan_u") {
    return s.cumsum_f16(small, {.algo = ScanAlgo::ScanU}).report;
  }
  if (name == "scan_ul1") {
    return s.cumsum_f16(small, {.algo = ScanAlgo::ScanUL1}).report;
  }
  if (name == "vec_cumsum") {
    return s.cumsum_f16(small, {.algo = ScanAlgo::VectorBaseline}).report;
  }
  if (name == "stream_scan" || name == "lookback_scan") {
    acc::Device& dev = s.device();
    auto dx = dev.upload(x);
    auto dy = dev.alloc<float>(x.size());
    return name == "stream_scan"
               ? kernels::stream_scan(dev, dx.tensor(), dy.tensor(), x.size())
               : kernels::lookback_scan(dev, dx.tensor(), dy.tensor(),
                                        x.size());
  }
  if (name == "batched_scan_u" || name == "batched_scan_ul1") {
    const auto rows = testing::exact_scan_workload(16 * 2048, 14);
    return s.cumsum_batched(rows, 16, 2048, 128, name == "batched_scan_ul1")
        .report;
  }
  if (name == "compress") {
    return s.masked_select(x, bernoulli_mask(x.size(), 0.5, 15)).report;
  }
  if (name == "split") {
    return s.split(small, bernoulli_mask(small.size(), 0.5, 16)).report;
  }
  if (name == "radix_sort") return s.sort(distinct_keys(4096)).report;
  if (name == "top_p_batch") {
    const std::size_t batch = 4, vocab = 512;
    std::vector<half> probs(batch * vocab);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < vocab; ++i) {
        const std::size_t p = (i * 2654435761u + b) % vocab;
        probs[b * vocab + i] = half(static_cast<float>(p + 1) / 512.0f);
      }
    }
    return s.top_p_sample_batch(probs, batch, vocab, 0.9,
                                {0.1, 0.4, 0.7, 0.95})
        .report;
  }
  if (name == "segmented_scan") {
    return s.segmented_cumsum(x, bernoulli_mask(x.size(), 0.001, 17)).report;
  }
  if (name == "reduce_cube") return s.reduce(x, true).report;
  if (name == "reduce_vector") return s.reduce(x, false).report;
  ADD_FAILURE() << "unknown family " << name;
  return {};
}

TEST(Executor, GoldenReportsPinnedBitForBit) {
  // Regenerate a row by copying the line printed on mismatch.
  const GoldenReport golden[] = {
      {"mcscan", 0x3ee3cda68c3aeb21ull, 1386u, 1, 1284508u},
      {"mcscan_exclusive", 0x3ee3cda50e748d33ull, 1388u, 1, 1025903u},
      {"mcscan_i8", 0x3ee2b7acb4b1e183ull, 1386u, 1, 907676u},
      {"scan_u", 0x3ee36c056b771bf4ull, 139u, 1, 32768u},
      {"scan_ul1", 0x3ee143a40207e9a2ull, 21u, 1, 32768u},
      {"vec_cumsum", 0x3ef022169923cffcull, 5u, 1, 0u},
      {"stream_scan", 0x3ef5b70f69f83b27ull, 101u, 1, 56u},
      {"lookback_scan", 0x3ef16f821ecab6d3ull, 129u, 1, 140u},
      {"batched_scan_u", 0x3ee324afc0f0a699ull, 696u, 1, 753664u},
      {"batched_scan_ul1", 0x3ee46c2013a59cb8ull, 348u, 1, 1998848u},
      {"compress", 0x3ef685744ddda920ull, 1416u, 2, 716100u},
      {"split", 0x3ef67fe9332fd342ull, 457u, 2, 368010u},
      {"radix_sort", 0x3f38b8275291ef86ull, 6398u, 50, 7244352u},
      {"top_p_batch", 0x3f5977f70d8194f7ull, 23308u, 212, 25021872u},
      {"segmented_scan", 0x3effd31b54cd971eull, 540u, 1, 198648u},
      {"reduce_cube", 0x3ef0117865226351ull, 83u, 1, 360476u},
      {"reduce_vector", 0x3ee8dfac556ab594ull, 48u, 1, 28u},
  };
  for (const GoldenReport& g : golden) {
    const sim::Report r = run_family(g.name);
    const bool same = bits_of(r.time_s) == g.time_bits &&
                      r.num_ops == g.num_ops && r.launches == g.launches &&
                      r.l2_hit_bytes == g.l2_hit_bytes;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 "u, %d, %" PRIu64
                  "u},",
                  g.name, bits_of(r.time_s), r.num_ops, r.launches,
                  r.l2_hit_bytes);
    EXPECT_TRUE(same) << g.name << " Report moved (time " << r.time_s
                      << " s); now\n      " << line;
    EXPECT_FALSE(r.any_faults()) << g.name;
  }
}

// ---------------------------------------------------------------------------
// Timing cache: hits only when provably bit-exact.

TEST(Executor, TimingCacheHitsConstantShapeLaunches) {
  acc::Device dev(cfg_with(/*timing_cache=*/true));
  ASSERT_TRUE(dev.engine().timing_cache_enabled());
  auto x = dev.alloc<half>(8192, half(2.0f));
  auto y = dev.alloc<half>(8192);

  // Device-resident repeated launches of a constant shape: the L2 reaches
  // its steady state, after which the cache may serve Reports.
  std::vector<sim::Report> reps;
  for (int i = 0; i < 6; ++i) {
    reps.push_back(kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(),
                                              8192, 4));
  }
  const auto& stats = dev.engine().cache_stats();
  EXPECT_EQ(stats.lookups, 6u);
  EXPECT_GE(stats.hits, 2u) << "steady-state launches should hit the cache";
  EXPECT_LT(dev.engine().replays(), 6u);
  // Cached Reports are bit-identical to the replayed steady state.
  for (std::size_t i = 2; i < reps.size(); ++i) {
    EXPECT_TRUE(sim::identical(reps[i - 1], reps[i])) << "launch " << i;
  }

  // A cache-enabled device must produce the same Reports as a cache-free
  // one, launch by launch.
  acc::Device ref(cfg_with(/*timing_cache=*/false));
  auto rx = ref.alloc<half>(8192, half(2.0f));
  auto ry = ref.alloc<half>(8192);
  // Note: gm addresses differ between devices, so compare each device's own
  // steady-state convergence instead of launch-by-launch equality of
  // l2_hit_bytes-bearing fields across devices.
  sim::Report prev;
  for (int i = 0; i < 6; ++i) {
    const auto r =
        kernels::copy_kernel<half>(ref, rx.tensor(), ry.tensor(), 8192, 4);
    if (i >= 2) {
      EXPECT_TRUE(sim::identical(prev, r));
    }
    prev = r;
  }
  EXPECT_EQ(ref.engine().cache_stats().lookups, 0u);
  EXPECT_EQ(ref.engine().replays(), 6u);
}

TEST(Executor, TimingCacheInvalidatedByL2Reset) {
  acc::Device dev(cfg_with(/*timing_cache=*/true));
  auto x = dev.alloc<half>(8192, half(3.0f));
  auto y = dev.alloc<half>(8192);
  for (int i = 0; i < 5; ++i) {
    kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 8192, 4);
  }
  const auto hits_before = dev.engine().cache_stats().hits;
  ASSERT_GE(hits_before, 1u);
  dev.l2().reset();  // generation bump: cached timings are now stale
  const auto r1 =
      kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 8192, 4);
  EXPECT_EQ(dev.engine().cache_stats().hits, hits_before)
      << "a reset L2 must force a replay";
  // The replay after the reset observes a cold L2 again.
  EXPECT_GT(r1.time_s, 0.0);
}

TEST(Executor, TimingCacheBypassedForTimeline) {
  acc::Device dev(cfg_with(/*timing_cache=*/true));
  const std::size_t n = 4096;
  auto x = dev.alloc<half>(n, half(1.0f));
  auto y = dev.alloc<half>(n);
  auto probe = [&](sim::Timeline* tl) {
    return acc::launch(dev,
                       {.block_dim = 1,
                        .mode = acc::LaunchMode::VectorOnly,
                        .name = "probe",
                        .timeline = tl},
                       [&](acc::KernelContext& ctx) {
                         acc::TPipe pipe(ctx);
                         acc::TQue q(ctx, acc::TPosition::VECIN);
                         pipe.InitBuffer(q, 2, n * sizeof(half));
                         auto t = q.AllocTensor<half>();
                         acc::DataCopy(ctx, t, x.tensor(), n);
                         acc::DataCopy(ctx, y.tensor(), t, n);
                         q.FreeTensor(t);
                       });
  };
  for (int i = 0; i < 5; ++i) probe(nullptr);
  const auto hits_before = dev.engine().cache_stats().hits;
  ASSERT_GE(hits_before, 1u);
  // A Timeline-carrying launch cannot be served from the cache (a hit has
  // no schedule to export): it must bypass, replay, and fill the timeline.
  sim::Timeline tl;
  const auto rep = probe(&tl);
  EXPECT_EQ(dev.engine().cache_stats().bypasses, 1u);
  EXPECT_EQ(tl.events.size(), rep.num_ops);
  EXPECT_GT(tl.total_s, 0.0);
  // And the bypassed replay still matches the cached steady state.
  const auto again = probe(nullptr);
  EXPECT_TRUE(sim::identical(rep, again));
}

}  // namespace
}  // namespace ascend
