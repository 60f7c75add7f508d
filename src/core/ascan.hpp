// ascan — the public API of the library.
//
// This layer plays the role of the paper's PyTorch/op-plugin integration
// (§6): a session owns a simulated Ascend 910B4 device, every operator
// takes and returns host vectors, and every call reports its simulated
// execution profile so callers can reproduce the paper's measurements.
//
//   ascan::Session session;                       // a simulated 910B4
//   auto r = session.cumsum(x);                   // r.values, r.report
//   auto sorted = session.sort(keys);             // radix sort + indices
//   auto tok = session.top_p_sample(probs, 0.9);  // nucleus sampling
//
// For device-resident composition (chaining kernels without host round
// trips), use the kernel layer in src/kernels directly — Session is a thin
// convenience wrapper over it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ascendc/ascendc.hpp"
#include "common/half.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"

namespace ascan {

using ascend::half;
using ascend::sim::FaultKind;
using ascend::sim::FaultPlan;
using ascend::sim::MachineConfig;
using ascend::sim::Report;

/// Bounded-retry / graceful-degradation policy applied to every operator
/// call on a Session (see DESIGN.md "Fault model & resilience").
///
/// State machine per call:
///   attempt -> (FaultError) -> retry with doubled simulated backoff, up to
///   max_attempts per degradation level -> (still failing, or fault not
///   retryable) -> exclude the faulted AI core and relaunch with blocks-1,
///   up to max_core_exclusions -> rethrow the typed error.
struct RetryPolicy {
  int max_attempts = 1;  ///< attempts per degradation level (1 = no retry)
  double backoff_s = 20e-6;  ///< simulated backoff before a retry; doubles
  int max_core_exclusions = 0;  ///< AI cores that may be taken offline
  /// Seeded deterministic jitter on each applied backoff: the delay is
  /// scaled by a factor in [1 - backoff_jitter, 1 + backoff_jitter] drawn
  /// from a splitmix64 hash of (jitter_seed, session call ordinal, retry
  /// ordinal). With a whole batch of sessions retrying against one
  /// degraded device, synchronized exponential backoff re-stampedes it at
  /// every doubling; jitter de-synchronizes the herd while staying a pure
  /// function of the seed — Reports remain bit-identical across runs. 0
  /// keeps the legacy fixed doubling.
  double backoff_jitter = 0;
  std::uint64_t jitter_seed = 0;
};

/// Resilience accounting for the most recent operator call.
struct RetryStats {
  std::uint32_t attempts = 0;  ///< launches attempted (success included)
  std::uint32_t retries = 0;   ///< failed attempts that were relaunched
  std::uint32_t excluded_cores = 0;  ///< cores taken offline by this call
  double backoff_s = 0;              ///< simulated backoff spent
  FaultKind last_fault = FaultKind::None;
};

/// Lifetime resilience accounting of a Session: the sums of every
/// operator call's RetryStats (failed calls included). A serving layer that
/// owns one Session per simulated device reads this to report per-device
/// degradation — how battered each device is — without threading Reports
/// through every call site.
struct CumulativeRetryStats {
  std::uint64_t calls = 0;     ///< operator calls run under the retry loop
  std::uint64_t failures = 0;  ///< calls that exhausted every option
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t excluded_cores = 0;
  double backoff_s = 0;
};

/// Scan algorithm selector.
enum class ScanAlgo {
  MCScan,          ///< multi-core, cube + vector (Algorithm 3) — default
  ScanU,           ///< single-core cube scan (Algorithm 1)
  ScanUL1,         ///< single-core cube scan via Equation 1 (Algorithm 2)
  VectorBaseline,  ///< AscendC CumSum API path (the paper's baseline)
};

/// Sort algorithm selector.
enum class SortAlgo {
  Radix,     ///< cube-assisted LSB radix sort (§5) — default
  Baseline,  ///< torch.sort-like vector merge sort
};

struct ScanOptions {
  ScanAlgo algo = ScanAlgo::MCScan;
  std::size_t tile = 128;  ///< matrix tile edge s (16/32/64/128)
  int blocks = 0;          ///< AI cores (0 = all)
  bool exclusive = false;  ///< MCScan only
};

template <typename T>
struct ValueResult {
  std::vector<T> values;
  Report report;
};

struct SortResult {
  std::vector<half> values;
  std::vector<std::int32_t> indices;
  Report report;
};

struct SplitResult {
  std::vector<half> values;
  std::vector<std::int32_t> indices;
  std::size_t num_true = 0;
  Report report;
};

struct MaskedSelectResult {
  std::vector<half> values;  ///< exactly the kept elements
  Report report;
};

struct TopKResult {
  std::vector<half> values;  ///< descending
  std::vector<std::int32_t> indices;
  Report report;
};

struct SampleResult {
  std::int32_t index = -1;
  std::size_t nucleus = 0;  ///< top-p only
  Report report;
};

class Session {
 public:
  explicit Session(MachineConfig cfg = MachineConfig::ascend_910b4());

  const MachineConfig& config() const { return dev_.config(); }
  ascend::acc::Device& device() { return dev_; }

  /// Aggregate of every operator executed on this session.
  const Report& total() const { return total_; }

  // --- Fault injection & resilience -----------------------------------------

  /// Installs a seeded fault plan on the session's device. Deterministic:
  /// the same plan on the same call sequence produces the identical fault
  /// sequence and Report on every run.
  void set_fault_plan(const FaultPlan& plan) { dev_.set_fault_plan(plan); }

  /// Retry / degradation policy applied to every operator call.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Resilience accounting for the most recent operator call.
  const RetryStats& last_retry_stats() const { return last_stats_; }

  /// Lifetime resilience accounting (sum of every call's RetryStats).
  /// Not synchronised: read it from the thread running the session's
  /// calls, or after that thread has been joined.
  const CumulativeRetryStats& cumulative_retry_stats() const {
    return cumulative_stats_;
  }

  /// AI cores still online (excluded stragglers/bad cores are gone until
  /// the session is destroyed, like a production NPU taking a core
  /// offline).
  int active_cores() const { return dev_.config().num_ai_cores; }

  // --- Scans ----------------------------------------------------------------

  /// Inclusive (or exclusive) prefix sum; fp16 input, fp32 output
  /// (the cube accumulator type). Single-core algorithms emit fp16.
  ValueResult<float> cumsum(const std::vector<half>& x,
                            const ScanOptions& opt = {});

  /// fp16-output scan (single-core algorithms and the vector baseline).
  ValueResult<half> cumsum_f16(const std::vector<half>& x,
                               const ScanOptions& opt = {});

  /// int8 -> int32 scan (mask offsets for split/compress).
  ValueResult<std::int32_t> cumsum_i8(const std::vector<std::int8_t>& x,
                                      const ScanOptions& opt = {});

  /// Row-wise scan of a [batch, len] tensor. `use_ul1_schedule` picks the
  /// one-row-per-core ScanUL1 schedule instead of the paired ScanU one.
  ValueResult<half> cumsum_batched(const std::vector<half>& x,
                                   std::size_t batch, std::size_t len,
                                   std::size_t tile = 128,
                                   bool use_ul1_schedule = false);

  // --- Data movement ----------------------------------------------------------

  /// torch.clone: bandwidth yardstick.
  ValueResult<half> clone(const std::vector<half>& x);

  // --- Scan-based operators ----------------------------------------------------

  SplitResult split(const std::vector<half>& x,
                    const std::vector<std::int8_t>& mask,
                    std::size_t tile = 128);

  MaskedSelectResult masked_select(const std::vector<half>& x,
                                   const std::vector<std::int8_t>& mask,
                                   std::size_t tile = 128,
                                   bool baseline = false);

  SortResult sort(const std::vector<half>& keys, bool descending = false,
                  SortAlgo algo = SortAlgo::Radix, std::size_t tile = 128);

  TopKResult topk(const std::vector<half>& x, std::size_t k,
                  bool baseline = false, std::size_t tile = 128);

  /// Nucleus sampling (Llama-3 pipeline): returns the sampled token id.
  /// `u` is the uniform variate; pass your own RNG draw for determinism.
  SampleResult top_p_sample(const std::vector<half>& probs, double p,
                            double u, bool baseline_ops = false,
                            std::size_t tile = 128);

  /// Inverse-transform weighted sampling (torch.multinomial, without its
  /// 2^24 support-size cap).
  SampleResult multinomial(const std::vector<half>& weights, double u,
                           std::size_t tile = 128);

  /// Batched nucleus sampling over `batch` packed rows of `vocab`
  /// probabilities (the constant-batch LLM serving pattern of §5): one
  /// token per row, one uniform variate per row, aggregated report.
  struct BatchSampleResult {
    std::vector<std::int32_t> tokens;  ///< row-local token ids
    Report report;
  };
  BatchSampleResult top_p_sample_batch(const std::vector<half>& probs,
                                       std::size_t batch, std::size_t vocab,
                                       double p, const std::vector<double>& u,
                                       std::size_t tile = 128);

  // --- Extensions beyond the paper ----------------------------------------------

  /// Segmented inclusive scan: prefix sums restarting at every flags[i]!=0.
  ValueResult<float> segmented_cumsum(const std::vector<half>& x,
                                      const std::vector<std::int8_t>& flags);

  // --- Stepwise (tile-granular) launches --------------------------------------
  //
  // Iteration-level entry points for a serving layer: instead of one opaque
  // call over the whole batch, the caller drives the operator one
  // tile-column at a time — begin() fixes the launch shape, each step()
  // runs one resumable slice (its own resilient kernel launch, so the
  // retry/degradation state machine and the launch-shape timing cache apply
  // per step), finish() returns the aggregated Report with Report::steps
  // stamped. Between steps the caller may change the row set: every row's
  // outputs depend only on its own data and carry-in, never on batch
  // composition, which is what makes mid-launch admission bit-exact with a
  // standalone run of the same request (tests/test_serve.cpp pins this).
  //
  // Rounding note: a step applies the row carry as one uniform fp add per
  // element, where the monolithic kernels chain carries at s-element
  // granularity — for integer-valued data both are exact and identical; for
  // general fp data they may differ by the usual 1-ulp reassociation
  // already documented for batched serving.

  /// In-progress stepwise launch: aggregated accounting plus the fixed
  /// group shape. Treat as opaque outside Session and the serving layer.
  struct LaunchStream {
    Report report;           ///< sum of the steps' reports so far
    int steps = 0;           ///< step() calls so far
    std::size_t tile = 128;  ///< matrix tile edge s of the group
    bool ul1 = false;        ///< Cumsum: ScanUL1 row schedule
    double p = 0;            ///< TopP: nucleus mass of the group
    bool open = false;       ///< begin() called, finish() not yet
  };

  /// Stepwise batched row scan. Each step scans `batch` packed rows of
  /// `len` fp16 elements (len <= tile*tile, the kernel's l-tile) and adds
  /// `carries[i]` — row i's running prefix from its previous steps — to
  /// every element of row i. Rows shorter than `len` must be zero-padded
  /// (trailing zeros cannot change any valid prefix). The caller reads row
  /// i's carry-out from its last valid output element.
  LaunchStream cumsum_batched_begin(std::size_t tile = 128,
                                    bool use_ul1_schedule = false);
  ValueResult<half> cumsum_batched_step(LaunchStream& ls,
                                        const std::vector<half>& xs,
                                        std::size_t batch, std::size_t len,
                                        const std::vector<half>& carries);
  Report cumsum_batched_finish(LaunchStream& ls);

  /// Stepwise segmented scan over concatenated per-row chunks. `xs`/`flags`
  /// hold sum(row_len) elements: row i's next chunk of its flagged stream.
  /// Each row's chunk start is treated as a forced segment start inside the
  /// kernel (so no carry crosses rows or steps in-device); `carries[i]` —
  /// row i's running prefix — is then added to row i's elements up to (not
  /// including) the first real flag of the chunk. The caller reads row i's
  /// carry-out from its last output element.
  LaunchStream segmented_cumsum_begin();
  ValueResult<float> segmented_cumsum_step(
      LaunchStream& ls, const std::vector<half>& xs,
      const std::vector<std::int8_t>& flags,
      const std::vector<std::size_t>& row_len,
      const std::vector<float>& carries);
  Report segmented_cumsum_finish(LaunchStream& ls);

  /// Stepwise batched nucleus sampling: one row per step (a row's sample is
  /// already a multi-kernel pipeline, so the row is the natural resumable
  /// slice). Identical to top_p_sample of the row — the monolithic batch
  /// path loops the same per-row kernel.
  LaunchStream top_p_begin(double p, std::size_t tile = 128);
  SampleResult top_p_step(LaunchStream& ls, const std::vector<half>& probs,
                          double u);
  Report top_p_finish(LaunchStream& ls);

  /// Sum reduction; `use_cube` accumulates on the cube units' L0C path.
  ValueResult<float> reduce(const std::vector<half>& x, bool use_cube = true);

  // --- Composition hooks ------------------------------------------------------

  /// Runs a caller-composed sequence of kernel calls under the session's
  /// retry/degradation state machine, exactly like a built-in operator.
  /// `attempt` must be idempotent-relaunchable (the kernels are). This is
  /// the re-entry point for higher layers — src/serve uses it so a whole
  /// coalesced batch launch retries/degrades as one unit.
  Report run_resilient(const char* what, const std::function<Report()>& attempt);

 private:
  /// Runs one operator attempt under the retry/degradation state machine.
  /// `attempt` performs the kernel call(s) and returns their report; it is
  /// re-invoked verbatim on retry (kernels are idempotent-relaunchable).
  Report resilient(const char* what, const std::function<Report()>& attempt);
  Report resilient_loop(const std::function<Report()>& attempt);

  /// Takes the faulted AI core offline: rebuilds the device with blocks-1,
  /// carrying the fault injector (and its launch ordinal) over.
  void exclude_core();

  ascend::acc::Device dev_;
  Report total_;
  RetryPolicy retry_;
  RetryStats last_stats_;
  CumulativeRetryStats cumulative_stats_;
};

/// RAII request-scoped retry policy: installs `policy` for the lifetime of
/// the scope and restores the session's previous policy on exit. Lets a
/// serving layer give individual requests their own resilience budget
/// without perturbing the session default.
class ScopedRetryPolicy {
 public:
  ScopedRetryPolicy(Session& session, const RetryPolicy& policy)
      : session_(session), saved_(session.retry_policy()) {
    session_.set_retry_policy(policy);
  }
  ~ScopedRetryPolicy() { session_.set_retry_policy(saved_); }

  ScopedRetryPolicy(const ScopedRetryPolicy&) = delete;
  ScopedRetryPolicy& operator=(const ScopedRetryPolicy&) = delete;

 private:
  Session& session_;
  RetryPolicy saved_;
};

}  // namespace ascan
