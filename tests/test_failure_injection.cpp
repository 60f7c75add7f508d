// Failure-injection tests: every misuse of the programming model or the
// operator APIs must fail loudly (throw) rather than corrupt state, and a
// failing sub-core must never deadlock its siblings.
#include <atomic>

#include <gtest/gtest.h>

#include "ascendc/ascendc.hpp"
#include "core/ascan.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/radix_sort.hpp"
#include "kernels/sampling.hpp"
#include "kernels/segmented_scan.hpp"
#include "kernels/split.hpp"
#include "kernels/topk.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using acc::Device;
using acc::KernelContext;
using acc::LaunchMode;
using acc::TPosition;

sim::MachineConfig small_cfg() {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.num_ai_cores = 2;
  return cfg;
}

TEST(FailureInjection, ThrowBeforeSyncAllDoesNotDeadlockSiblings) {
  Device dev(small_cfg());
  std::atomic<int> reached{0};
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 2, .mode = LaunchMode::Mix},
                  [&](KernelContext& c) {
                    if (c.is_cube() && c.GetBlockIdx() == 0) {
                      throw Error("boom");
                    }
                    ++reached;
                    c.SyncAll();  // must be poisoned, not hang
                    ++reached;
                  }),
      Error);
  // The five surviving sub-cores (2 blocks x 3 minus the thrower) reached
  // the barrier and were released by the poison; none of them completed
  // the epilogue (the barrier can never complete with a dead member).
  EXPECT_EQ(reached.load(), 5);
}

TEST(FailureInjection, ThrowBeforeFlagSetPoisonsWaiters) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::Mix},
                  [&](KernelContext& c) {
                    auto& f = c.shared().flags("never_set", 1);
                    if (c.is_cube()) throw Error("producer died");
                    if (c.GetSubBlockIdx() == 0) f.wait(c, 0);  // poisoned
                  }),
      Error);
}

TEST(FailureInjection, ScratchpadOverflowInsideKernel) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TBuf b(c, TPosition::VECCALC);
                    pipe.InitBuffer(b, dev.config().ub_bytes + 1);
                  }),
      Error);
}

TEST(FailureInjection, L0OverflowOnCubeCore) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::CubeOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TQue q(c, TPosition::A2);
                    pipe.InitBuffer(q, 3, 32 << 10);  // 96K > 64K L0A
                  }),
      Error);
}

TEST(FailureInjection, DataCopyOutOfRange) {
  Device dev(small_cfg());
  auto x = dev.alloc<half>(64, half(0.0f));
  auto xt = x.tensor();
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TBuf b(c, TPosition::VECIN);
                    pipe.InitBuffer(b, 64);
                    auto t = b.Get<half>();
                    acc::DataCopy(c, t, xt, 65);  // src too small
                  }),
      Error);
}

TEST(FailureInjection, GatherIndexOutOfRange) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TBuf sb(c, TPosition::VECCALC),
                        ib(c, TPosition::VECCALC), db(c, TPosition::VECCALC);
                    pipe.InitBuffer(sb, 64);
                    pipe.InitBuffer(ib, 64);
                    pipe.InitBuffer(db, 64);
                    auto src = sb.Get<float>();
                    auto idx = ib.Get<std::int32_t>();
                    auto dst = db.Get<float>();
                    idx[0] = 1000;  // out of range
                    acc::Gather(c, dst, src, idx, 1);
                  }),
      Error);
}

TEST(FailureInjection, DoubleDeQueOnEmptyQueue) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TQue q(c, TPosition::VECIN);
                    pipe.InitBuffer(q, 1, 64);
                    (void)q.DeQue<half>();  // nothing enqueued
                  }),
      Error);
}

TEST(FailureInjection, ForeignTensorReturnedToQueue) {
  Device dev(small_cfg());
  EXPECT_THROW(
      acc::launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    acc::TPipe pipe(c);
                    acc::TQue q1(c, TPosition::VECIN), q2(c, TPosition::VECIN);
                    pipe.InitBuffer(q1, 1, 64);
                    pipe.InitBuffer(q2, 1, 64);
                    auto t = q1.AllocTensor<half>();
                    q2.FreeTensor(t);  // wrong queue
                  }),
      Error);
}

// --- Operator argument validation across the public kernels ----------------

TEST(FailureInjection, OperatorsRejectUndersizedOutputs) {
  Device dev;
  auto x = dev.alloc<half>(100, half(0.0f));
  auto small_f = dev.alloc<float>(10);
  auto small_h = dev.alloc<half>(10);
  auto small_i = dev.alloc<std::int32_t>(10);
  auto mask = dev.alloc<std::int8_t>(100, std::int8_t{1});

  EXPECT_THROW((kernels::mcscan<half, float>(dev, x.tensor(),
                                             small_f.tensor(), 100, {})),
               Error);
  EXPECT_THROW(kernels::radix_sort_f16(dev, x.tensor(), small_h.tensor(),
                                       small_i.tensor(), 100, {}),
               Error);
  EXPECT_THROW(kernels::split_ind<half>(dev, x.tensor(), {}, mask.tensor(),
                                        small_h.tensor(), small_i.tensor(),
                                        100, {}),
               Error);
  EXPECT_THROW(kernels::segmented_scan(dev, x.tensor(), mask.tensor(),
                                       small_f.tensor(), 100, {}),
               Error);
}

TEST(FailureInjection, SamplersRejectBadParameters) {
  Device dev;
  auto probs = dev.alloc<half>(16, half(0.0625f));
  EXPECT_THROW(kernels::top_p_sample(dev, probs.tensor(), 16, 0.0, 0.5, {}),
               Error);  // p = 0
  EXPECT_THROW(kernels::top_p_sample(dev, probs.tensor(), 16, 1.5, 0.5, {}),
               Error);  // p > 1
  EXPECT_THROW(kernels::top_p_sample(dev, probs.tensor(), 16, 0.9, 1.0, {}),
               Error);  // u = 1
  EXPECT_THROW(kernels::top_p_sample(dev, probs.tensor(), 0, 0.9, 0.5, {}),
               Error);  // empty
  auto zeros = dev.alloc<half>(8, half(0.0f));
  EXPECT_THROW(kernels::weighted_sample(dev, zeros.tensor(), 8, 0.5, {}),
               Error);  // zero total weight
}

TEST(FailureInjection, DeviceStateUnchangedAfterRejectedCall) {
  Device dev;
  auto x = dev.alloc<half>(64, half(2.0f));
  auto y = dev.alloc<float>(64, -7.0f);
  EXPECT_THROW(
      (kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(), 64,
                                    {.s = 99})),
      Error);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(y[i], -7.0f) << "output touched by rejected call";
  }
  // The device still works after the failure.
  kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(), 64, {});
  EXPECT_EQ(y[63], 128.0f);
}

// --- Fault-plan determinism ------------------------------------------------

TEST(FailureInjection, InjectorDecisionsAreAPureHashOfTheirKey) {
  sim::FaultPlan p;
  p.seed = 7;
  p.mte_transient_rate = 0.1;
  p.ecc_single_rate = 0.05;
  p.ecc_double_rate = 0.02;
  p.hang_rate = 0.02;
  p.throttle_rate = 0.3;
  sim::FaultInjector a(p), b(p);
  bool any_fault = false, any_throttle = false;
  for (std::uint64_t launch = 0; launch < 4; ++launch) {
    for (std::uint32_t sub = 0; sub < 12; ++sub) {
      EXPECT_EQ(a.clock_scale(launch, sub), b.clock_scale(launch, sub));
      any_throttle |= a.clock_scale(launch, sub) != 1.0;
      for (std::uint32_t ord = 0; ord < 64; ++ord) {
        const auto fa = a.transfer_fault(launch, sub, ord);
        EXPECT_EQ(fa, b.transfer_fault(launch, sub, ord));
        any_fault |= fa != sim::FaultKind::None;
      }
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_throttle);
}

TEST(FailureInjection, SameFaultPlanSeedProducesIdenticalReports) {
  const auto x = testing::exact_scan_workload(2048, 21);
  auto run_once = [&x](bool& faulted) {
    auto cfg = small_cfg();
    cfg.num_ai_cores = 4;
    ascan::Session s(cfg);
    sim::FaultPlan p;
    p.seed = 42;
    p.mte_transient_rate = 0.01;
    p.ecc_single_rate = 0.01;
    p.hang_rate = 0.002;
    p.throttle_rate = 0.3;
    s.set_fault_plan(p);
    s.set_retry_policy({.max_attempts = 2, .max_core_exclusions = 1});
    try {
      faulted = false;
      return s.cumsum(x).report;
    } catch (const sim::FaultError& e) {
      faulted = true;
      return e.attempt_report();
    }
  };
  bool f1 = false, f2 = false;
  const sim::Report r1 = run_once(f1);
  const sim::Report r2 = run_once(f2);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(r1.mte_faults, r2.mte_faults);
  EXPECT_EQ(r1.ecc_single, r2.ecc_single);
  EXPECT_EQ(r1.ecc_double, r2.ecc_double);
  EXPECT_EQ(r1.hangs, r2.hangs);
  EXPECT_EQ(r1.throttled_subcores, r2.throttled_subcores);
  EXPECT_EQ(r1.retries, r2.retries);
  EXPECT_EQ(r1.excluded_cores, r2.excluded_cores);
  EXPECT_EQ(r1.launches, r2.launches);
  EXPECT_DOUBLE_EQ(r1.time_s, r2.time_s);
  EXPECT_DOUBLE_EQ(r1.backoff_s, r2.backoff_s);
}

TEST(FailureInjection, JitteredBackoffIsSeededAndRepeatable) {
  // Backoff jitter de-synchronizes a retry herd but must stay a pure
  // function of (jitter_seed, call ordinal, retry ordinal): bit-identical
  // across runs on fresh sessions, never dependent on host scheduling or
  // wall clock.
  const auto x = testing::exact_scan_workload(2048, 31);
  auto run_once = [&x](double jitter, std::uint64_t jitter_seed) {
    auto cfg = small_cfg();
    cfg.num_ai_cores = 4;
    ascan::Session s(cfg);
    sim::FaultPlan p;
    p.seed = 42;
    p.mte_transient_rate = 0.01;
    s.set_fault_plan(p);
    s.set_retry_policy({.max_attempts = 4,
                        .backoff_s = 20e-6,
                        .backoff_jitter = jitter,
                        .jitter_seed = jitter_seed});
    for (int i = 0; i < 4; ++i) {
      try {
        (void)s.cumsum(x);
      } catch (const sim::FaultError&) {
        // Exhausted budgets stay part of the deterministic record.
      }
    }
    return s.cumulative_retry_stats();
  };

  const auto a = run_once(0.5, 7);
  const auto b = run_once(0.5, 7);
  ASSERT_GE(a.retries, 1u) << "plan never exercised the backoff path";
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_s, b.backoff_s);  // same seed, bit-identical run

  // A different jitter seed moves the delays (the fault sequence itself is
  // the fault plan's business and stays put)...
  const auto d = run_once(0.5, 8);
  EXPECT_EQ(a.retries, d.retries);
  EXPECT_NE(a.backoff_s, d.backoff_s);
  // ...and zero jitter reproduces the legacy fixed doubling, bounded by
  // the jittered run's [1 -/+ 0.5] envelope.
  const auto e = run_once(0.0, 7);
  EXPECT_EQ(a.retries, e.retries);
  EXPECT_GE(a.backoff_s, 0.5 * e.backoff_s);
  EXPECT_LE(a.backoff_s, 1.5 * e.backoff_s);
  EXPECT_NE(a.backoff_s, e.backoff_s);
}

TEST(FailureInjection, DifferentSeedsProduceDifferentFaultSequences) {
  sim::FaultPlan p;
  p.mte_transient_rate = 0.1;
  p.hang_rate = 0.1;
  p.seed = 1;
  sim::FaultInjector a(p);
  p.seed = 2;
  sim::FaultInjector b(p);
  int differing = 0;
  for (std::uint32_t ord = 0; ord < 256; ++ord) {
    differing += a.transfer_fault(0, 0, ord) != b.transfer_fault(0, 0, ord);
  }
  EXPECT_GT(differing, 0);
}

// --- ascan::Session argument validation ------------------------------------

TEST(FailureInjection, SessionRejectsEmptyInputs) {
  ascan::Session s(small_cfg());
  EXPECT_THROW(s.cumsum({}), Error);
  EXPECT_THROW(s.cumsum_f16({}, {.algo = ascan::ScanAlgo::ScanU}), Error);
  EXPECT_THROW(s.cumsum_i8({}), Error);
  EXPECT_THROW(s.cumsum_batched({}, 0, 0), Error);
  EXPECT_THROW(s.clone({}), Error);
  EXPECT_THROW(s.split({}, {}), Error);
  EXPECT_THROW(s.masked_select({}, {}), Error);
  EXPECT_THROW(s.sort({}), Error);
  EXPECT_THROW(s.topk({}, 1), Error);
  EXPECT_THROW(s.top_p_sample({}, 0.9, 0.5), Error);
  EXPECT_THROW(s.multinomial({}, 0.5), Error);
  EXPECT_THROW(s.top_p_sample_batch({}, 0, 0, 0.9, {}), Error);
  EXPECT_THROW(s.segmented_cumsum({}, {}), Error);
  EXPECT_THROW(s.reduce({}), Error);
}

TEST(FailureInjection, SessionRejectsShapeMismatches) {
  ascan::Session s(small_cfg());
  const auto x = testing::exact_scan_workload(64, 23);
  EXPECT_THROW(s.split(x, std::vector<std::int8_t>(32, 1)), Error);
  EXPECT_THROW(s.masked_select(x, std::vector<std::int8_t>(32, 1)), Error);
  EXPECT_THROW(s.segmented_cumsum(x, std::vector<std::int8_t>(32, 0)),
               Error);
  EXPECT_THROW(s.cumsum_batched(x, 4, 32), Error);  // 4*32 != 64
  EXPECT_THROW(s.top_p_sample_batch(x, 4, 32, 0.9, {0.5, 0.5}), Error);
}

TEST(FailureInjection, SessionRejectsMoreBlocksThanCores) {
  ascan::Session s(small_cfg());  // 2 AI cores
  const auto x = testing::exact_scan_workload(256, 25);
  EXPECT_THROW(s.cumsum(x, {.blocks = 3}), Error);
}

TEST(FailureInjection, SessionRejectsInvalidTileSizes) {
  ascan::Session s(small_cfg());
  const auto x = testing::exact_scan_workload(256, 27);
  EXPECT_THROW(s.cumsum(x, {.tile = 99}), Error);
  EXPECT_THROW(s.cumsum_f16(x, {.algo = ascan::ScanAlgo::ScanU, .tile = 48}),
               Error);
  EXPECT_THROW(s.sort(x, false, ascan::SortAlgo::Radix, 31), Error);
}

TEST(FailureInjection, SessionRejectsOutOfRangeTopK) {
  ascan::Session s(small_cfg());
  const auto x = testing::exact_scan_workload(64, 29);
  EXPECT_THROW(s.topk(x, 0), Error);
  EXPECT_THROW(s.topk(x, 65), Error);
}

}  // namespace
}  // namespace ascend
