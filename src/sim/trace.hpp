// Timed operation traces recorded by the functional pass and replayed by the
// discrete-event scheduler.
//
// Every AscendC intrinsic executed during the functional pass appends one
// TraceOp describing *which engine* it occupies, *how long* it runs (compute
// cycles, or bytes for GM transfers that are arbitrated dynamically), and
// *which earlier ops it must wait for* (queue Enque/Deque edges, buffer
// hazards, scalar read-backs, cross-core flags). The scheduler then derives
// the kernel's simulated execution time from the trace alone, so simulated
// time is deterministic regardless of the order the sub-cores ran in.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace ascend::sim {

/// Hardware engines inside one sub-core. An AIC sub-core uses Mte2 (GM->L1/L0),
/// Mte1 (L1->L0), Compute (the cube engine) and Mte3 (Fixpipe, L0C->GM); an AIV
/// sub-core uses Mte2 (GM->UB), Compute (the vector engine) and Mte3 (UB->GM).
/// Scalar is the in-order dispatch/control unit of either kind.
enum class EngineKind : std::uint8_t { Scalar, Mte1, Mte2, Mte3, Compute };
inline constexpr int kNumEngineKinds = 5;

constexpr const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::Scalar: return "scalar";
    case EngineKind::Mte1: return "mte1";
    case EngineKind::Mte2: return "mte2";
    case EngineKind::Mte3: return "mte3";
    case EngineKind::Compute: return "compute";
  }
  return "?";
}

struct TraceOp {
  enum class Kind : std::uint8_t {
    Compute,   ///< fixed-duration work on an engine
    Transfer,  ///< GM transfer; duration decided by the HBM arbiter
    FlagSet,   ///< cross-core flag write (tiny, but a dependency anchor)
    FlagWait,  ///< blocks until the matching FlagSet completes
    Barrier,   ///< SyncAll: one per sub-core, grouped by epoch
  };

  std::uint32_t id = 0;       ///< globally unique, 1-based
  std::uint32_t subcore = 0;  ///< global sub-core index
  EngineKind engine = EngineKind::Scalar;
  Kind kind = Kind::Compute;
  double cycles = 0;          ///< compute duration / transfer setup cost
  std::uint64_t bytes = 0;    ///< GM bytes for Kind::Transfer
  std::uint64_t gm_addr = 0;  ///< GM address (L2 modelling); 0 if n/a
  bool gm_write = false;      ///< direction of a Transfer
  std::uint32_t barrier_epoch = 0;

  // Dependency edges; small and bounded by construction (per-operand
  // hazards, scalar serialisation, flags). The widest consumer is the
  // multi-operand merge intrinsic.
  std::array<std::uint32_t, 12> deps{};
  std::uint8_t num_deps = 0;

  const char* tag = "";

  void add_dep(std::uint32_t dep_id) {
    if (dep_id == 0) return;
    for (std::uint8_t i = 0; i < num_deps; ++i) {
      if (deps[i] == dep_id) return;
    }
    ASCAN_ASSERT(num_deps < deps.size(), "too many dependencies on op " << tag);
    deps[num_deps++] = dep_id;
  }
};

/// Per-sub-core trace under construction. Each sub-core owns exactly one
/// TraceBuilder; only the id counter is shared.
class TraceBuilder {
 public:
  TraceBuilder(std::uint32_t subcore, std::uint32_t* id_counter)
      : subcore_(subcore), id_counter_(id_counter) {}

  /// Rebinds a pooled builder to a new launch, clearing the op list but
  /// keeping its capacity (the per-launch allocation this avoids is the
  /// point of pooling kernel contexts).
  void reset(std::uint32_t subcore, std::uint32_t* id_counter) {
    subcore_ = subcore;
    id_counter_ = id_counter;
    serial_anchor_ = 0;
    ops_.clear();
  }

  /// Appends an op, assigning its global id. Serialising context (scalar
  /// read-backs, flag waits, barriers) is added as a dependency
  /// automatically; pass extra explicit deps via TraceOp::add_dep before or
  /// after. Returns the op id.
  std::uint32_t push(TraceOp op) {
    op.id = (*id_counter_)++;
    op.subcore = subcore_;
    op.add_dep(serial_anchor_);
    ops_.push_back(op);
    return op.id;
  }

  /// Makes every subsequently pushed op depend on `op_id` (used after
  /// scalar read-backs, flag waits and barriers, which stall the in-order
  /// dispatch of the sub-core).
  void set_serial_anchor(std::uint32_t op_id) { serial_anchor_ = op_id; }
  std::uint32_t serial_anchor() const { return serial_anchor_; }

  /// Adds a dependency onto the most recently pushed op (e.g. linking a
  /// consumer recorded just now to a producer id discovered afterwards).
  void add_dep_to_last(std::uint32_t dep_id) {
    ASCAN_ASSERT(!ops_.empty());
    ops_.back().add_dep(dep_id);
  }

  std::uint32_t last_id() const { return ops_.empty() ? 0 : ops_.back().id; }
  const std::vector<TraceOp>& ops() const { return ops_; }
  std::vector<TraceOp>& mutable_ops() { return ops_; }
  std::uint32_t subcore() const { return subcore_; }

 private:
  std::uint32_t subcore_;
  std::uint32_t* id_counter_;
  std::uint32_t serial_anchor_ = 0;
  std::vector<TraceOp> ops_;
};

/// The merged result of a functional pass: one op list per sub-core.
struct KernelTrace {
  std::vector<std::vector<TraceOp>> per_subcore;
  std::vector<bool> is_cube_subcore;  ///< per-sub-core engine classification
  std::uint32_t max_op_id = 0;

  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& v : per_subcore) n += v.size();
    return n;
  }
};

}  // namespace ascend::sim
