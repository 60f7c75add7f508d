// Discrete-event scheduler: replays a KernelTrace against the machine model
// and produces the simulated execution time.
//
// Semantics:
//  * Each (sub-core, engine) pair is an in-order FIFO: an op starts only
//    when it is the engine's oldest unstarted op AND all its dependency
//    edges have completed. This mirrors the per-engine instruction queues of
//    the DaVinci core (§3.1 of the paper): MTEs and compute engines run in
//    parallel, synchronised explicitly.
//  * Kind::Compute ops occupy their engine for `cycles / clock`.
//  * Kind::Transfer ops stream through the HbmArbiter; their duration is
//    setup + fluid completion under shared-bandwidth arbitration, with the
//    L2 model deciding the HBM/L2 byte split in deterministic start order.
//  * Kind::Barrier ops are grouped by epoch; every sub-core's barrier
//    completes simultaneously once all of them are ready (SyncAll).
//  * Launch overhead is added before time zero's first op.
//
// Determinism: ties are broken by op id, the L2 is queried in event order,
// and the trace itself is independent of the order the sub-cores ran in.
#pragma once

#include <memory>

#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/l2_cache.hpp"
#include "sim/report.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"

namespace ascend::sim {

/// Reusable scratch arenas for Scheduler::run. One launch used to allocate
/// O(num_ops) heap blocks (per-op dependent lists, hash maps for barriers
/// and in-flight flows, per-event hot lists); keeping one SchedScratch
/// alive across launches turns all of that into cleared-and-reused flat
/// vectors. Purely an allocation cache: results are bit-identical with and
/// without it. Not thread-safe — one scratch per device.
class SchedScratch {
 public:
  SchedScratch();
  ~SchedScratch();
  SchedScratch(const SchedScratch&) = delete;
  SchedScratch& operator=(const SchedScratch&) = delete;

 private:
  friend class Scheduler;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Fault-injection and watchdog parameters for one scheduler run.
struct SchedulerFaults {
  /// Fault decisions for this launch; nullptr = fault-free execution.
  FaultInjector* injector = nullptr;
  /// Base simulated-time deadline for the launch; 0 falls back to
  /// cfg.watchdog_s, and a final value of 0 disables the watchdog. The
  /// effective deadline additionally grows with the launch's own trace
  /// shape (cfg.watchdog_scale), so one flat constant cannot misclassify
  /// giant-but-healthy launches as hangs.
  double watchdog_s = 0;
};

class Scheduler {
 public:
  /// `l2` persists across launches of one device so inter-kernel reuse is
  /// modelled (pass nullptr to disable the L2).
  Scheduler(const MachineConfig& cfg, L2Cache* l2) : cfg_(cfg), l2_(l2) {}

  /// Computes the simulated report for one kernel launch. When `timeline`
  /// is non-null, every op's scheduled interval is recorded into it.
  ///
  /// With an armed injector in `faults`, transfers may scrub correctable
  /// ECC events in-line (timing penalty), sub-cores may be throttled, and
  /// fatal faults abort the run by throwing TransferError / EccError /
  /// TimeoutError carrying the partial Report of the aborted attempt.
  ///
  /// `scratch` (optional) recycles the run's working memory across
  /// launches; pass the device-owned instance on hot paths.
  Report run(const KernelTrace& trace, Timeline* timeline = nullptr,
             const SchedulerFaults& faults = {},
             SchedScratch* scratch = nullptr);

 private:
  const MachineConfig& cfg_;
  L2Cache* l2_;
};

}  // namespace ascend::sim
