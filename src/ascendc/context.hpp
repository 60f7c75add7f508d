// Per-sub-core kernel execution context plus the shared launch state
// (SyncAll barrier, cross-core flags) used by the functional pass.
//
// A kernel launch runs the kernel body once per logical sub-core, each as a
// fiber on the launching thread (see fiber.hpp). In MIX mode a block is one
// AI core: sub-core 0 is the AIC (cube) core and sub-cores 1..vec_per_core
// are the AIV (vector) cores. In vector-only mode each block is a single
// AIV core.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ascendc/fiber.hpp"
#include "ascendc/tensor.hpp"
#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace ascend::acc {

class KernelContext;

/// Deferred constant fills of a launch (see DataCopy in intrinsics.hpp):
/// how many were recorded, and how many some intrinsic had to copy into
/// place, with their bytes.
struct FillStats {
  std::uint64_t deferred = 0;
  std::uint64_t materialized = 0;
  std::uint64_t materialized_bytes = 0;
};

/// A shared array of cross-core synchronisation flags. set(i) publishes the
/// id of the trace op that performed the set; wait(i) parks the waiting
/// sub-core until then and records a dependency edge on that op.
class CrossFlags {
 public:
  CrossFlags(std::string name, std::size_t n)
      : name_(std::move(name)), setter_(n, 0) {}

  void set(KernelContext& ctx, std::size_t i);
  void wait(KernelContext& ctx, std::size_t i);

  std::size_t size() const { return setter_.size(); }

 private:
  std::string name_;
  std::vector<std::uint32_t> setter_;  ///< 0 until set
};

/// State shared by all sub-cores of one launch. The sub-cores run as fibers
/// on one thread and switch only inside park(), so none of it needs a lock.
///
/// Poisoning: once any sub-core fails (or the launch deadlocks), every
/// current and future wait throws instead of blocking forever.
class LaunchShared {
 public:
  explicit LaunchShared(int num_subcores) : num_subcores_(num_subcores) {}

  std::uint32_t& op_ids() { return op_ids_; }
  FillStats& fills() { return fills_; }

  /// Named flag arrays, created on first use (all sub-cores must agree on
  /// the size).
  CrossFlags& flags(const std::string& name, std::size_t n);

  /// SyncAll barrier: counts the arrival; the arrival that completes the
  /// generation bumps it and continues, the others park until it moves.
  /// `epoch` only names the barrier in a deadlock report.
  void arrive_and_wait(std::uint32_t epoch);

  /// Parks the calling sub-core until `w` is satisfied or the launch is
  /// poisoned; returns at once if either already holds.
  void park(const FiberWait& w);

  void poison() { poisoned_ = true; }
  bool poisoned() const { return poisoned_; }
  int num_subcores() const { return num_subcores_; }

 private:
  friend class SubcoreFibers;  ///< binds itself for the launch's duration
  SubcoreFibers* fibers_ = nullptr;
  int num_subcores_;
  int arrived_ = 0;
  std::uint32_t generation_ = 0;
  std::uint32_t op_ids_ = 1;
  bool poisoned_ = false;
  FillStats fills_;
  std::map<std::string, std::unique_ptr<CrossFlags>> flags_;
};

enum class SubcoreKind : std::uint8_t { Cube, Vector };

class KernelContext {
 public:
  KernelContext(const sim::MachineConfig& cfg, LaunchShared* shared,
                int block_idx, int block_dim, SubcoreKind kind, int sub_idx,
                std::uint32_t global_subcore);

  /// Re-initialises a pooled context for a new launch: rebinds the shared
  /// launch state and identity, rewinds the arenas (allocations are kept,
  /// not zeroed — kernels write before they read) and clears the trace
  /// builder while keeping its op-vector capacity. The context's sub-core
  /// kind is fixed at construction (the arenas are shaped by it).
  void reset(LaunchShared* shared, int block_idx, int block_dim, int sub_idx,
             std::uint32_t global_subcore);

  // --- Identity (mirrors AscendC's GetBlockIdx / GetSubBlockIdx) -----------
  int GetBlockIdx() const { return block_idx_; }
  int GetBlockDim() const { return block_dim_; }
  /// 0 for the cube core; 0..vec_per_core-1 for vector cores of the block.
  int GetSubBlockIdx() const { return sub_idx_; }
  bool is_cube() const { return kind_ == SubcoreKind::Cube; }
  bool is_vector() const { return kind_ == SubcoreKind::Vector; }

  const sim::MachineConfig& cfg() const { return cfg_; }
  sim::TraceBuilder& trace() { return trace_; }
  LaunchShared& shared() { return *shared_; }

  /// Global synchronisation of all sub-cores of the launch (AscendC
  /// SyncAll). Functionally a barrier; in simulated time every sub-core's
  /// barrier op completes simultaneously.
  void SyncAll();

  // --- Scratchpad arenas -----------------------------------------------------
  /// Bump-allocates `bytes` in the physical buffer backing `pos`,
  /// enforcing the hardware capacities. 32-byte aligned like the UB.
  std::byte* arena_alloc(TPosition pos, std::size_t bytes);

  // --- Deferred constant fills (used by the intrinsics layer) ----------------
  /// Records on `st` that `bytes` bytes of an immutable GM constant at `src`
  /// belong at `dst`, without copying them. Any fill already pending on
  /// `st` must have been materialised first.
  void defer_fill(BufferState& st, std::byte* dst, const std::byte* src,
                  std::size_t bytes);
  /// Copies the fill pending on `st` into place and clears it.
  void materialize_fill(BufferState& st);

  // --- Trace helpers (used by the intrinsics layer) ---------------------------
  /// Records a fixed-duration op. Hazard edges: deps on last_write of every
  /// read state and last_write/last_read of every written state; updates
  /// the states afterwards. Null states are skipped.
  std::uint32_t record_compute(sim::EngineKind engine, double cycles,
                               const char* tag,
                               std::initializer_list<BufferState*> reads,
                               std::initializer_list<BufferState*> writes);

  /// Records a GM transfer op (arbitrated by the HBM model).
  std::uint32_t record_transfer(sim::EngineKind engine, std::uint64_t bytes,
                                std::uint64_t gm_addr, bool gm_write,
                                const char* tag, BufferState* local_read,
                                BufferState* local_write);

  /// Marks the most recent op as serialising: everything issued afterwards
  /// on this sub-core depends on it (scalar read-backs, flag waits).
  void serialise_after(std::uint32_t op_id) {
    trace_.set_serial_anchor(op_id);
  }

 private:
  const sim::MachineConfig& cfg_;
  LaunchShared* shared_;
  int block_idx_;
  int block_dim_;
  SubcoreKind kind_;
  int sub_idx_;
  sim::TraceBuilder trace_;
  std::uint32_t sync_count_ = 0;

  struct Arena {
    std::vector<std::byte> mem;
    std::size_t used = 0;
  };
  Arena ub_, l1_, l0a_, l0b_, l0c_;
  Arena& arena_for(TPosition pos);
};

}  // namespace ascend::acc
