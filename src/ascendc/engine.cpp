#include "ascendc/engine.hpp"

#include <cstring>
#include <utility>

#include "ascendc/device.hpp"

namespace ascend::acc {

LaunchEngine::LaunchEngine(const sim::MachineConfig& cfg)
    : cfg_(cfg), cache_enabled_(cfg.timing_cache) {}

LaunchEngine::~LaunchEngine() = default;

// ---------------------------------------------------------------------------
// Context pooling

LaunchEngine::ContextLease::~ContextLease() {
  if (eng_ != nullptr) eng_->release(ctxs_);
}

KernelContext* LaunchEngine::acquire(
    const SubcorePlan& p, LaunchShared* shared, int block_dim,
    std::uint32_t global_subcore,
    std::vector<std::unique_ptr<KernelContext>>& out) {
  auto& pool = p.kind == SubcoreKind::Cube ? cube_pool_ : vec_pool_;
  std::unique_ptr<KernelContext> ctx;
  if (!pool.empty()) {
    ctx = std::move(pool.back());
    pool.pop_back();
    ctx->reset(shared, p.block_idx, block_dim, p.sub_idx, global_subcore);
  } else {
    ctx = std::make_unique<KernelContext>(cfg_, shared, p.block_idx, block_dim,
                                          p.kind, p.sub_idx, global_subcore);
  }
  out.push_back(std::move(ctx));
  return out.back().get();
}

LaunchEngine::ContextLease LaunchEngine::lease_contexts(
    const std::vector<SubcorePlan>& plan, LaunchShared* shared,
    int block_dim) {
  ContextLease lease;
  lease.eng_ = this;
  lease.ctxs_.reserve(plan.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    acquire(plan[s], shared, block_dim, static_cast<std::uint32_t>(s),
            lease.ctxs_);
  }
  return lease;
}

void LaunchEngine::release(
    std::vector<std::unique_ptr<KernelContext>>& ctxs) noexcept {
  for (auto& ctx : ctxs) {
    if (ctx == nullptr) continue;
    (ctx->is_cube() ? cube_pool_ : vec_pool_).push_back(std::move(ctx));
  }
  ctxs.clear();
}

// ---------------------------------------------------------------------------
// Timing

namespace {
std::uint64_t double_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}
}  // namespace

sim::Report LaunchEngine::replay(const TimingRequest& req) {
  // Counted even when the replay aborts on a fault: a partial replay still
  // mutates the L2, so the generation must move.
  ++replays_;
  sim::Scheduler sched(cfg_, req.l2);
  return sched.run(trace_, req.timeline, {req.injector, req.watchdog_s},
                   &scratch_);
}

sim::Report LaunchEngine::timed(const TimingRequest& req) {
  const bool armed = req.injector != nullptr && req.injector->armed();
  const bool eligible =
      cache_enabled_ && !armed && req.timeline == nullptr;
  if (!eligible) {
    if (cache_enabled_) cache_.note_bypass();
    return replay(req);
  }
  sim::LaunchKey key;
  key.name = req.name;
  key.mode = req.mode;
  key.block_dim = req.block_dim;
  key.fingerprint = sim::trace_fingerprint(trace_);
  // The effective deadline is part of the key: a cached success under a lax
  // watchdog must not satisfy a launch with a tighter one.
  const double wd = req.watchdog_s > 0 ? req.watchdog_s : cfg_.watchdog_s;
  key.watchdog_bits = double_bits(wd);

  const std::uint64_t gen_before = generation(req.l2);
  if (const sim::Report* hit = cache_.lookup(key, gen_before)) return *hit;
  const sim::Report rep = replay(req);
  cache_.record(key, rep, gen_before, generation(req.l2));
  return rep;
}

sim::Report LaunchEngine::time_lease(ContextLease& lease, LaunchShared& shared,
                                     const TimingRequest& req) {
  const std::size_t n = lease.size();
  trace_.per_subcore.resize(n);
  trace_.is_cube_subcore.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    trace_.per_subcore[s] = std::move(lease[s].trace().mutable_ops());
    trace_.is_cube_subcore[s] = lease[s].is_cube();
  }
  trace_.max_op_id = shared.op_ids() - 1;

  // Canonical op ids. The shared counter hands ids out in the order the
  // fibers ran, which is deterministic but not (sub-core, position) order.
  // The scheduler breaks simultaneous-event ties by id, so renumbering
  // densely by (sub-core, position) is what keeps Reports independent of
  // how the functional pass interleaved the sub-cores. Two passes: deps
  // may reference ops of other sub-cores (cross-core flag edges).
  id_map_.assign(static_cast<std::size_t>(trace_.max_op_id) + 1, 0);
  std::uint32_t next_id = 1;
  for (const auto& ops : trace_.per_subcore) {
    for (const sim::TraceOp& op : ops) id_map_[op.id] = next_id++;
  }
  for (auto& ops : trace_.per_subcore) {
    for (sim::TraceOp& op : ops) {
      op.id = id_map_[op.id];
      for (std::uint8_t d = 0; d < op.num_deps; ++d) {
        op.deps[d] = id_map_[op.deps[d]];
      }
    }
  }
  trace_.max_op_id = next_id - 1;

  // Hand the op vectors (and their capacity) back to the builders whether
  // the timing pass succeeds or aborts on an injected fault.
  auto recycle = [&] {
    for (std::size_t s = 0; s < n; ++s) {
      lease[s].trace().mutable_ops() = std::move(trace_.per_subcore[s]);
    }
  };
  try {
    const sim::Report rep = timed(req);
    recycle();
    return rep;
  } catch (...) {
    recycle();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Device <-> engine wiring (out of line: LaunchEngine is forward-declared in
// device.hpp so every translation unit including the device doesn't pull in
// the engine, and unique_ptr needs the complete type here).

Device::Device(sim::MachineConfig cfg)
    : cfg_(cfg), l2_(cfg.l2_bytes, cfg.l2_line_bytes) {}
Device::~Device() = default;
Device::Device(Device&&) noexcept = default;
Device& Device::operator=(Device&&) noexcept = default;

LaunchEngine& Device::engine() {
  if (engine_ == nullptr) engine_ = std::make_unique<LaunchEngine>(cfg_);
  return *engine_;
}

}  // namespace ascend::acc
