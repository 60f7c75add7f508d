// Host execution engine owned by acc::Device: the cooperative sub-core
// executor (fibers and their stacks), pooled KernelContexts / trace-op
// arenas, reusable scheduler scratch and the opt-in launch-shape timing
// cache.
//
// The engine holds its own MachineConfig copy so pooled KernelContexts
// (which keep a reference to it) stay valid even when the owning Device is
// moved — Session::exclude_core move-assigns a replacement Device, and the
// engine travels with it by unique_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ascendc/context.hpp"
#include "ascendc/fiber.hpp"
#include "sim/fault.hpp"
#include "sim/l2_cache.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"
#include "sim/timeline.hpp"
#include "sim/timing_cache.hpp"

namespace ascend::acc {

/// Where one sub-core of a launch runs (produced by the planner in
/// runtime.hpp, consumed by the context pool below).
struct SubcorePlan {
  int block_idx;
  SubcoreKind kind;
  int sub_idx;
};

class LaunchEngine {
 public:
  explicit LaunchEngine(const sim::MachineConfig& cfg);
  ~LaunchEngine();
  LaunchEngine(const LaunchEngine&) = delete;
  LaunchEngine& operator=(const LaunchEngine&) = delete;

  const sim::MachineConfig& config() const { return cfg_; }
  bool timing_cache_enabled() const { return cache_enabled_; }
  const sim::TimingCache::Stats& cache_stats() const { return cache_.stats(); }
  /// Discrete-event replays executed (cache hits don't count).
  std::uint64_t replays() const { return replays_; }
  /// Deferred constant fills over every timed launch of this engine.
  const FillStats& fill_stats() const { return fill_stats_; }

  /// RAII lease over pooled per-sub-core contexts: contexts are taken from
  /// the engine's free lists (or built on first use), reset for the new
  /// launch, and handed back — arenas and trace capacity intact — when the
  /// lease is destroyed.
  class ContextLease {
   public:
    ContextLease() = default;
    ContextLease(ContextLease&& o) noexcept
        : eng_(o.eng_), ctxs_(std::move(o.ctxs_)) {
      o.eng_ = nullptr;
    }
    ContextLease& operator=(ContextLease&&) = delete;
    ContextLease(const ContextLease&) = delete;
    ContextLease& operator=(const ContextLease&) = delete;
    ~ContextLease();

    KernelContext& operator[](std::size_t i) { return *ctxs_[i]; }
    std::size_t size() const { return ctxs_.size(); }

   private:
    friend class LaunchEngine;
    LaunchEngine* eng_ = nullptr;
    std::vector<std::unique_ptr<KernelContext>> ctxs_;
  };

  ContextLease lease_contexts(const std::vector<SubcorePlan>& plan,
                              LaunchShared* shared, int block_dim);

  /// Runs the sub-core bodies of a launch as fibers (see fiber.hpp).
  SubcoreFibers& fibers() { return fibers_; }

  struct TimingRequest {
    const char* name = "kernel";
    int mode = 0;  ///< LaunchMode as int (part of the cache key)
    int block_dim = 0;
    sim::Timeline* timeline = nullptr;
    double watchdog_s = 0;
    /// Armed injector of the device, or nullptr for fault-free timing.
    sim::FaultInjector* injector = nullptr;
    sim::L2Cache* l2 = nullptr;
  };

  /// Gathers the lease's recorded traces, produces the launch Report — from
  /// the timing cache when provably bit-exact, otherwise by discrete-event
  /// replay — and returns the trace-op arenas to the lease's builders for
  /// reuse. On a FaultError the arenas are recycled before it propagates.
  sim::Report time_lease(ContextLease& lease, LaunchShared& shared,
                         const TimingRequest& req);

 private:
  KernelContext* acquire(const SubcorePlan& p, LaunchShared* shared,
                         int block_dim, std::uint32_t global_subcore,
                         std::vector<std::unique_ptr<KernelContext>>& out);
  void release(std::vector<std::unique_ptr<KernelContext>>& ctxs) noexcept;
  sim::Report timed(const TimingRequest& req);
  sim::Report replay(const TimingRequest& req);
  /// Cache generation: replay count + L2 reset count. Unchanged generation
  /// proves nothing perturbed the L2 since an entry was recorded.
  std::uint64_t generation(const sim::L2Cache* l2) const {
    return replays_ + (l2 != nullptr ? l2->generation() : 0);
  }

  sim::MachineConfig cfg_;
  bool cache_enabled_;
  SubcoreFibers fibers_;
  sim::SchedScratch scratch_;
  sim::TimingCache cache_;
  std::uint64_t replays_ = 0;
  FillStats fill_stats_;
  std::vector<std::unique_ptr<KernelContext>> cube_pool_;
  std::vector<std::unique_ptr<KernelContext>> vec_pool_;
  sim::KernelTrace trace_;             ///< reused across launches
  std::vector<std::uint32_t> id_map_;  ///< canonical-id renumber scratch
};

}  // namespace ascend::acc
