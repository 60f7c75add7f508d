// Tests for the AscendC runtime layer: launches, contexts, queues, pipes,
// SyncAll, cross-core flags, and error propagation.
#include <atomic>
#include <string>

#include <gtest/gtest.h>

#include "ascendc/ascendc.hpp"

namespace ascend::acc {
namespace {

sim::MachineConfig small_cfg() {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.num_ai_cores = 4;
  return cfg;
}

TEST(Runtime, MixLaunchRunsAllSubcores) {
  Device dev(small_cfg());
  std::atomic<int> cube_runs{0}, vec_runs{0};
  launch(dev, {.block_dim = 4, .mode = LaunchMode::Mix}, [&](KernelContext& c) {
    if (c.is_cube()) {
      ++cube_runs;
    } else {
      ++vec_runs;
    }
  });
  EXPECT_EQ(cube_runs.load(), 4);
  EXPECT_EQ(vec_runs.load(), 8);
}

TEST(Runtime, VectorOnlyLaunchIdentities) {
  Device dev(small_cfg());
  std::atomic<int> seen_mask{0};
  launch(dev, {.block_dim = 8, .mode = LaunchMode::VectorOnly},
         [&](KernelContext& c) {
           EXPECT_TRUE(c.is_vector());
           EXPECT_EQ(c.GetBlockDim(), 8);
           seen_mask.fetch_or(1 << c.GetBlockIdx());
         });
  EXPECT_EQ(seen_mask.load(), 0xff);
}

TEST(Runtime, BlockDimLimitEnforced) {
  Device dev(small_cfg());
  EXPECT_THROW(
      launch(dev, {.block_dim = 5, .mode = LaunchMode::Mix},
             [](KernelContext&) {}),
      Error);
  EXPECT_THROW(
      launch(dev, {.block_dim = 9, .mode = LaunchMode::VectorOnly},
             [](KernelContext&) {}),
      Error);
}

TEST(Runtime, LaunchReturnsLaunchOverheadAtMinimum) {
  Device dev(small_cfg());
  auto r = launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
                  [](KernelContext&) {});
  EXPECT_GE(r.time_s, dev.config().launch_overhead_s);
  EXPECT_EQ(r.launches, 1);
}

TEST(Runtime, ExceptionInOneSubcorePropagates) {
  Device dev(small_cfg());
  EXPECT_THROW(
      launch(dev, {.block_dim = 2, .mode = LaunchMode::Mix},
             [](KernelContext& c) {
               if (c.is_cube() && c.GetBlockIdx() == 1) {
                 throw Error("injected failure");
               }
               c.SyncAll();  // others must not deadlock
             }),
      Error);
}

TEST(Runtime, SyncAllOrdersCrossBlockGmTraffic) {
  Device dev(small_cfg());
  auto buf = dev.alloc<int>(4, 0);
  auto gt = buf.tensor();
  // Every vector block writes its slot, syncs, then block 0 checks the sum.
  std::atomic<int> checked{0};
  launch(dev, {.block_dim = 4, .mode = LaunchMode::VectorOnly},
         [&](KernelContext& c) {
           gt.data()[c.GetBlockIdx()] = c.GetBlockIdx() + 1;
           c.SyncAll();
           if (c.GetBlockIdx() == 0) {
             int sum = 0;
             for (int i = 0; i < 4; ++i) sum += gt.data()[i];
             EXPECT_EQ(sum, 10);
             ++checked;
           }
         });
  EXPECT_EQ(checked.load(), 1);
}

TEST(Runtime, CrossFlagsProducerConsumer) {
  Device dev(small_cfg());
  auto buf = dev.alloc<int>(1, 0);
  auto gt = buf.tensor();
  launch(dev, {.block_dim = 1, .mode = LaunchMode::Mix},
         [&](KernelContext& c) {
           auto& flags = c.shared().flags("ready", 1);
           if (c.is_cube()) {
             gt.data()[0] = 42;
             flags.set(c, 0);
           } else if (c.GetSubBlockIdx() == 0) {
             flags.wait(c, 0);
             EXPECT_EQ(gt.data()[0], 42);
           }
         });
}

TEST(Runtime, FlagWaitCreatesTimingDependency) {
  Device dev(small_cfg());
  // Cube burns 100k cycles then sets; vector waits. Total simulated time
  // must cover the cube work even though the vector core does nothing.
  auto r = launch(
      dev, {.block_dim = 1, .mode = LaunchMode::Mix}, [&](KernelContext& c) {
        auto& flags = c.shared().flags("f", 1);
        if (c.is_cube()) {
          c.record_compute(sim::EngineKind::Compute, 100000.0, "burn", {}, {});
          // flag.set rides MTE3; give it an explicit dep through trace
          // ordering (serial anchor covers it in kernels; here the burn op
          // and set op are on different engines, so order via flags API).
          flags.set(c, 0);
        } else if (c.GetSubBlockIdx() == 0) {
          flags.wait(c, 0);
          c.record_compute(sim::EngineKind::Compute, 1000.0, "tail", {}, {});
        }
      });
  // Note: flag.set is on MTE3 and does not depend on the burn op here, so
  // this only checks the wait->tail ordering exists and time is sane.
  EXPECT_GE(r.time_s, dev.config().launch_overhead_s);
}

/// Runs `body` as a launch that is expected to deadlock and returns the
/// message of the Error it throws ("" if it did not throw one).
template <typename F>
std::string deadlock_message(Device& dev, const LaunchSpec& spec, F&& body) {
  try {
    launch(dev, spec, body);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Runtime, FlagNeverSetIsReportedAsDeadlock) {
  Device dev(small_cfg());
  int unwound = 0;
  const std::string msg = deadlock_message(
      dev, {.block_dim = 1, .mode = LaunchMode::Mix}, [&](KernelContext& c) {
        auto& flags = c.shared().flags("never_set", 2);
        if (c.is_vector() && c.GetSubBlockIdx() == 1) {
          struct Unwind {
            int& n;
            ~Unwind() { ++n; }
          } guard{unwound};
          flags.wait(c, 1);  // nobody ever sets it
        }
      });
  EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sub-core 2 waits on flag 'never_set'[1]"),
            std::string::npos)
      << msg;
  EXPECT_EQ(unwound, 1) << "the parked sub-core's stack must unwind";
  // The device stays usable after a deadlocked launch.
  const auto r = launch(dev, {.block_dim = 1, .mode = LaunchMode::Mix},
                        [](KernelContext& c) { c.SyncAll(); });
  EXPECT_EQ(r.launches, 1);
}

TEST(Runtime, SyncAllSkippedBySubcoreIsReportedAsDeadlock) {
  Device dev(small_cfg());
  const std::string msg = deadlock_message(
      dev, {.block_dim = 4, .mode = LaunchMode::VectorOnly},
      [](KernelContext& c) {
        c.SyncAll();
        if (c.GetBlockIdx() == 2) return;  // skips the second barrier
        c.SyncAll();
      });
  EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
  for (int s : {0, 1, 3}) {
    EXPECT_NE(msg.find("sub-core " + std::to_string(s) +
                       " waits on SyncAll epoch 2"),
              std::string::npos)
        << msg;
  }
  EXPECT_EQ(msg.find("sub-core 2 "), std::string::npos)
      << "the finished sub-core is not blocked: " << msg;
}

TEST(Pipe, QueueAllocEnqueDequeRoundtrip) {
  Device dev(small_cfg());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
         [](KernelContext& c) {
           TPipe pipe(c);
           TQue q(c, TPosition::VECIN);
           pipe.InitBuffer(q, 2, 1024);
           auto t = q.AllocTensor<float>();
           EXPECT_EQ(t.size(), 256u);  // 1024 B / 4
           t[0] = 1.5f;
           q.EnQue(t);
           auto u = q.DeQue<float>();
           EXPECT_EQ(u[0], 1.5f);
           q.FreeTensor(u);
         });
}

TEST(Pipe, AllocWithoutFreeExhaustsQueue) {
  Device dev(small_cfg());
  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
             [](KernelContext& c) {
               TPipe pipe(c);
               TQue q(c, TPosition::VECIN);
               pipe.InitBuffer(q, 1, 64);
               (void)q.AllocTensor<float>();
               (void)q.AllocTensor<float>();  // no free slot -> error
             }),
      Error);
}

TEST(Pipe, ScratchpadCapacityEnforced) {
  Device dev(small_cfg());
  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
             [&](KernelContext& c) {
               TPipe pipe(c);
               TQue q(c, TPosition::VECIN);
               pipe.InitBuffer(q, 2, dev.config().ub_bytes);  // 2x UB
             }),
      Error);
}

TEST(Pipe, CubePositionsRejectedOnVectorCore) {
  Device dev(small_cfg());
  EXPECT_THROW(
      launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
             [](KernelContext& c) {
               TPipe pipe(c);
               TQue q(c, TPosition::A2);
               pipe.InitBuffer(q, 1, 64);
             }),
      Error);
}

TEST(Pipe, TBufGetAndOffset) {
  Device dev(small_cfg());
  launch(dev, {.block_dim = 1, .mode = LaunchMode::VectorOnly},
         [](KernelContext& c) {
           TPipe pipe(c);
           TBuf buf(c, TPosition::VECCALC);
           pipe.InitBuffer(buf, 512);
           auto t = buf.Get<std::int32_t>();
           EXPECT_EQ(t.size(), 128u);
           auto s = buf.GetWithOffset<std::int32_t>(64, 64);
           s[0] = 7;
           EXPECT_EQ(t[64], 7);
         });
}

TEST(Runtime, DeterministicSimulatedTime) {
  auto run_once = [] {
    Device dev(small_cfg());
    auto in = dev.alloc<float>(4096, 1.0f);
    auto out = dev.alloc<float>(4096, 0.0f);
    auto in_t = in.tensor();
    auto out_t = out.tensor();
    return launch(dev, {.block_dim = 4, .mode = LaunchMode::VectorOnly},
                  [&](KernelContext& c) {
                    TPipe pipe(c);
                    TQue q(c, TPosition::VECIN);
                    pipe.InitBuffer(q, 2, 1024 * sizeof(float));
                    const std::size_t chunk = 1024;
                    const std::size_t off =
                        chunk * static_cast<std::size_t>(c.GetBlockIdx());
                    auto t = q.AllocTensor<float>();
                    DataCopy(c, t, in_t.sub(off, chunk), chunk);
                    q.EnQue(t);
                    auto u = q.DeQue<float>();
                    Adds(c, u, u, 1.0f, chunk);
                    DataCopy(c, out_t.sub(off, chunk), u, chunk);
                    q.FreeTensor(u);
                  })
        .time_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ascend::acc
