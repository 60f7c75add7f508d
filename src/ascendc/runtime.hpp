// Kernel launcher: runs a kernel body once per logical sub-core (each as a
// fiber on the calling thread), merges the recorded traces, and feeds them
// to the discrete-event scheduler to obtain the simulated execution report.
//
// Launch modes mirror how AscendC kernels occupy the 910B:
//  * Mix:        block = one AI core (1 AIC + vec_per_core AIVs). The body
//                runs on every sub-core; branch on ctx.is_cube() /
//                ctx.GetSubBlockIdx() like an AscendC MIX kernel.
//  * VectorOnly: block = one AIV core (up to 2x the AI-core count).
//  * CubeOnly:   block = one AIC core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "ascendc/context.hpp"
#include "ascendc/device.hpp"
#include "ascendc/engine.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"

namespace ascend::acc {

enum class LaunchMode { Mix, VectorOnly, CubeOnly };

/// Type-erased span of a GM output buffer registered with a launch so a
/// faulted attempt can be rolled back (see LaunchSpec::outputs).
struct GmGuard {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
};

template <typename T>
GmGuard guard_output(GlobalTensor<T> t) {
  return {reinterpret_cast<std::byte*>(t.data()), t.size() * sizeof(T)};
}

struct LaunchSpec {
  int block_dim = 1;
  LaunchMode mode = LaunchMode::Mix;
  const char* name = "kernel";
  /// When set, the scheduler records every op's interval for inspection /
  /// chrome-trace export (see sim/trace_export.hpp).
  sim::Timeline* timeline = nullptr;
  /// Simulated-time watchdog deadline for this launch (0 = device default,
  /// which is disabled unless cfg.watchdog_s is set). A hang or
  /// pathological straggler aborts with sim::TimeoutError at the deadline.
  double watchdog_s = 0;
  /// GM output buffers of the kernel. When the device has an armed fault
  /// injector they are snapshotted before the launch and restored if the
  /// launch aborts on a fault, making launches idempotent-relaunchable: a
  /// failed attempt never leaves partial writes visible.
  std::vector<GmGuard> outputs = {};
};

namespace detail {

inline std::vector<SubcorePlan> plan_subcores(const sim::MachineConfig& cfg,
                                              const LaunchSpec& spec) {
  std::vector<SubcorePlan> plan;
  switch (spec.mode) {
    case LaunchMode::Mix:
      ASCAN_CHECK(spec.block_dim >= 1 && spec.block_dim <= cfg.num_ai_cores,
                  "MIX launch of " << spec.block_dim << " blocks exceeds "
                                   << cfg.num_ai_cores << " AI cores");
      for (int b = 0; b < spec.block_dim; ++b) {
        plan.push_back({b, SubcoreKind::Cube, 0});
        for (int v = 0; v < cfg.vec_per_core; ++v) {
          plan.push_back({b, SubcoreKind::Vector, v});
        }
      }
      break;
    case LaunchMode::VectorOnly:
      ASCAN_CHECK(spec.block_dim >= 1 && spec.block_dim <= cfg.num_vec_cores(),
                  "vector launch of " << spec.block_dim << " blocks exceeds "
                                      << cfg.num_vec_cores() << " AIV cores");
      for (int b = 0; b < spec.block_dim; ++b) {
        plan.push_back({b, SubcoreKind::Vector, 0});
      }
      break;
    case LaunchMode::CubeOnly:
      ASCAN_CHECK(spec.block_dim >= 1 && spec.block_dim <= cfg.num_ai_cores,
                  "cube launch of " << spec.block_dim << " blocks exceeds "
                                    << cfg.num_ai_cores << " AIC cores");
      for (int b = 0; b < spec.block_dim; ++b) {
        plan.push_back({b, SubcoreKind::Cube, 0});
      }
      break;
  }
  return plan;
}

}  // namespace detail

/// Launches `body(ctx)` per sub-core and returns the simulated report.
/// Functional effects on GM buffers happen eagerly; the report's time is
/// what the 910B would take.
///
/// Host execution runs on the device's LaunchEngine: sub-core bodies run as
/// fibers on the calling thread, taking turns at SyncAll and flag waits;
/// kernel contexts, fiber stacks and trace arenas are pooled; and
/// constant-shape repeated launches may skip the discrete-event replay via
/// the opt-in timing cache, which is bit-exact. A launch whose sub-cores all
/// block throws an Error naming what each one waits on.
template <typename F>
sim::Report launch(Device& dev, const LaunchSpec& spec, F&& body) {
  LaunchEngine& eng = dev.engine();
  const sim::MachineConfig& cfg = eng.config();
  const auto plan = detail::plan_subcores(cfg, spec);
  const int n = static_cast<int>(plan.size());

  // Fault-aware launches snapshot their registered outputs up front: the
  // functional pass writes GM eagerly, so rolling back on an abort is what
  // keeps a failed attempt invisible (and the relaunch idempotent).
  sim::FaultInjector* injector = dev.fault_injector().get();
  const bool fault_armed = injector != nullptr && injector->armed();
  std::vector<std::vector<std::byte>> output_snapshots;
  if (fault_armed) {
    output_snapshots.reserve(spec.outputs.size());
    for (const GmGuard& g : spec.outputs) {
      output_snapshots.emplace_back(g.data, g.data + g.bytes);
    }
  }

  LaunchShared shared(n);
  LaunchEngine::ContextLease ctxs =
      eng.lease_contexts(plan, &shared, spec.block_dim);

  // The sub-cores take turns on this thread, so the first failure needs no
  // lock; poisoning releases every sibling parked at a barrier or flag.
  std::exception_ptr first_error;
  eng.fibers().run(shared, [&](int s) {
    try {
      body(ctxs[static_cast<std::size_t>(s)]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      shared.poison();
    }
  });
  if (first_error) std::rethrow_exception(first_error);

  LaunchEngine::TimingRequest req;
  req.name = spec.name;
  req.mode = static_cast<int>(spec.mode);
  req.block_dim = spec.block_dim;
  req.timeline = spec.timeline;
  req.watchdog_s = spec.watchdog_s;
  req.injector = fault_armed ? injector : nullptr;
  req.l2 = &dev.l2();
  try {
    return eng.time_lease(ctxs, shared, req);
  } catch (sim::FaultError& e) {
    for (std::size_t g = 0; g < output_snapshots.size(); ++g) {
      std::copy(output_snapshots[g].begin(), output_snapshots[g].end(),
                spec.outputs[g].data);
    }
    if (e.subcore() >= 0 && e.subcore() < n) {
      e.set_block(plan[static_cast<std::size_t>(e.subcore())].block_idx);
    }
    throw;
  }
}

}  // namespace ascend::acc
