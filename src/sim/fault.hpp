// Deterministic fault injection for the simulated 910B4.
//
// Field studies of multi-core NPU serving show that transient DMA errors,
// HBM ECC events and straggler/throttled cores dominate real deployments;
// the simulator is the one place those faults can be reproduced exactly.
// A FaultPlan describes *rates*; a FaultInjector turns them into concrete,
// seed-deterministic decisions. Every decision is a pure hash of
// (seed, launch ordinal, sub-core, per-sub-core op ordinal), so the same
// plan produces the identical fault sequence — and the identical Report —
// on every run, independent of the order the sub-cores ran in.
//
// Fault taxonomy (what the scheduler does with each decision):
//  * MteTransient — a DMA transfer fails mid-flight. The launch aborts with
//    TransferError at the op's fault time; a relaunch is expected to succeed
//    (the decision is keyed on the launch ordinal, which advances per
//    attempt).
//  * EccSingle — correctable HBM single-bit error: the transfer pays a
//    scrub penalty (cfg.ecc_scrub_cycles) and is logged; execution
//    continues and results are unaffected.
//  * EccDouble — uncorrectable double-bit error: the launch aborts with
//    EccError. Not retryable on the same core set (the page is bad);
//    recovery is core exclusion.
//  * Hang — the op never completes (lost interrupt / wedged engine). The
//    launch watchdog converts this into TimeoutError at its deadline.
//  * Throttle — a sub-core runs at `throttle_factor` of nominal clock for
//    the whole launch (thermal straggler). Purely a timing fault.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "sim/report.hpp"

namespace ascend::sim {

/// What kind of device fault aborted (or perturbed) a launch.
enum class FaultKind : std::uint8_t {
  None,
  MteTransient,  ///< transient DMA/MTE transfer failure (retryable)
  EccSingle,     ///< correctable HBM ECC event (scrub + log, non-fatal)
  EccDouble,     ///< uncorrectable HBM ECC event (abort, not retryable)
  Hang,          ///< op never completes; surfaces as a watchdog timeout
  Throttle,      ///< sub-core clock throttled for the launch (non-fatal)
};

constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::MteTransient: return "mte-transient";
    case FaultKind::EccSingle: return "ecc-single";
    case FaultKind::EccDouble: return "ecc-double";
    case FaultKind::Hang: return "hang";
    case FaultKind::Throttle: return "throttle";
  }
  return "?";
}

/// Seeded description of the faults a device should experience. All rates
/// are per-opportunity probabilities (per transfer op, or per sub-core per
/// launch for throttling) in [0, 1].
struct FaultPlan {
  std::uint64_t seed = 1;

  double mte_transient_rate = 0;  ///< per transfer: DMA failure -> abort
  double ecc_single_rate = 0;     ///< per transfer: correctable ECC scrub
  double ecc_double_rate = 0;     ///< per transfer: uncorrectable -> abort
  double hang_rate = 0;           ///< per transfer: op never completes
  double throttle_rate = 0;       ///< per sub-core per launch: straggler
  double throttle_factor = 0.5;   ///< throttled clock as fraction of nominal

  /// When >= 0: force exactly one MteTransient on the first transfer
  /// considered for launch ordinal `force_mte_on_launch` (targeted tests:
  /// "any single transient fault must be survivable").
  std::int64_t force_mte_on_launch = -1;

  /// When >= 0: the device suffers a *persistent* fault — every launch
  /// from ordinal `persistent_from_launch` onward fails with
  /// `persistent_kind` on its first transfer, attempt after attempt. This
  /// models a device that serves traffic normally and then dies mid-run
  /// and stays dead (bad HBM stack, wedged DMA ring): retries burn their
  /// budget without ever succeeding, which is exactly the signal a
  /// cluster-level health state machine must quarantine on.
  std::int64_t persistent_from_launch = -1;
  FaultKind persistent_kind = FaultKind::MteTransient;

  bool any() const {
    return mte_transient_rate > 0 || ecc_single_rate > 0 ||
           ecc_double_rate > 0 || hang_rate > 0 || throttle_rate > 0 ||
           force_mte_on_launch >= 0 || persistent_from_launch >= 0;
  }

  /// A plan with no faults (the default device behaviour).
  static FaultPlan none() { return FaultPlan{}; }

  /// Exactly one transient MTE fault on the `launch`-th kernel launch.
  static FaultPlan one_transient_mte(std::int64_t launch = 0) {
    FaultPlan p;
    p.force_mte_on_launch = launch;
    return p;
  }

  /// A device that dies at launch ordinal `launch` and never recovers.
  static FaultPlan dead_from_launch(std::int64_t launch,
                                    FaultKind kind = FaultKind::MteTransient) {
    FaultPlan p;
    p.persistent_from_launch = launch;
    p.persistent_kind = kind;
    return p;
  }
};

/// Turns a FaultPlan into concrete per-op decisions. Owned (shared) by the
/// Device so the launch ordinal survives retries and core exclusions.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return plan_.any(); }

  /// Called once per kernel launch (per *attempt*); returns the launch
  /// ordinal all decisions for that launch are keyed on.
  std::uint64_t begin_launch() {
    return next_launch_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t launches_started() const {
    return next_launch_.load(std::memory_order_relaxed);
  }

  /// Fault decision for the `ordinal`-th GM transfer recorded by
  /// `subcore` in launch `launch`. Only returns None / MteTransient /
  /// EccSingle / EccDouble / Hang.
  FaultKind transfer_fault(std::uint64_t launch, std::uint32_t subcore,
                           std::uint32_t ordinal);

  /// Clock scale for `subcore` in `launch`: 1.0, or plan.throttle_factor
  /// when the sub-core is a straggler this launch.
  double clock_scale(std::uint64_t launch, std::uint32_t subcore) const;

 private:
  double u01(std::uint64_t launch, std::uint32_t subcore,
             std::uint32_t ordinal, std::uint32_t salt) const;

  FaultPlan plan_;
  std::atomic<std::uint64_t> next_launch_{0};
  std::atomic<bool> forced_mte_done_{false};
};

// ---------------------------------------------------------------------------
// Typed fault errors thrown by the resilient execution path.

/// Base class of all injected-fault failures. Carries the partial report of
/// the aborted attempt (simulated time until the abort plus fault counters)
/// so callers can account for wasted simulated time, and the faulting
/// sub-core / block for core-exclusion decisions.
class FaultError : public Error {
 public:
  FaultError(const std::string& what, FaultKind kind, Report attempt,
             int subcore)
      : Error(what), kind_(kind), attempt_(attempt), subcore_(subcore) {}

  FaultKind kind() const { return kind_; }
  /// Simulated cost of the failed attempt (time up to the abort).
  const Report& attempt_report() const { return attempt_; }
  /// Global sub-core index the fault manifested on (-1 if unknown).
  int subcore() const { return subcore_; }
  /// Block (AI-core) index of the faulting sub-core; filled in by
  /// acc::launch, which knows the sub-core plan. -1 if unknown.
  int block() const { return block_; }
  void set_block(int b) { block_ = b; }

  /// Whether an immediate relaunch on the same core set can succeed.
  bool retryable() const { return kind_ != FaultKind::EccDouble; }

 private:
  FaultKind kind_;
  Report attempt_;
  int subcore_;
  int block_ = -1;
};

/// Transient MTE/DMA transfer failure.
class TransferError : public FaultError {
 public:
  using FaultError::FaultError;
};

/// Uncorrectable (double-bit) HBM ECC event.
class EccError : public FaultError {
 public:
  using FaultError::FaultError;
};

/// Watchdog deadline expired (kernel hang or pathological straggler).
class TimeoutError : public FaultError {
 public:
  using FaultError::FaultError;
};

}  // namespace ascend::sim
