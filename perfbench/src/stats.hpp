// Measurement helpers of the benchmark: order statistics with the
// "at least ten samples beyond" rule, process CPU/RSS sampling, open-loop
// schedule arithmetic and failure accounting. Independent of the library so
// the self-tests (selftest.cpp) exercise them in isolation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nearest-rank quantile of `v` (q in [0,1]); sorts a copy. 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest reported percentile a sample supports: the largest q of
/// {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} whose nearest-rank order statistic
/// has at least `min_beyond` samples strictly after it in sorted order.
/// `q` is 0 and `value` 0 when even the median is unsupported.
struct Tail {
  double q = 0;
  double value = 0;
  std::size_t beyond = 0;  ///< samples ranked after the selected one
  std::size_t count = 0;   ///< sample count the tail was selected from
};
Tail supported_tail(std::vector<double> v, std::size_t min_beyond = 10);

/// Process resource usage (getrusage RUSAGE_SELF).
struct CpuSample {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t vol_ctxsw = 0;
  std::uint64_t invol_ctxsw = 0;
  double max_rss_mb = 0;  ///< peak resident set so far, MiB

  double cpu_s() const { return user_s + sys_s; }
};
CpuSample cpu_now();

/// Resource usage accrued between two samples.
struct CpuDelta {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t ctxsw = 0;  ///< voluntary + involuntary

  double cpu_s() const { return user_s + sys_s; }
  /// sys / (user + sys); 0 when no CPU time accrued.
  double sys_share() const;
  CpuDelta& operator+=(const CpuDelta& o);
};
CpuDelta operator-(const CpuSample& after, const CpuSample& before);

/// Fixed-rate open-loop schedule: request i is due at start + i / rate,
/// whatever happened to earlier requests.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double rate_per_s)
      : start_(start), period_s_(1.0 / rate_per_s) {}

  Clock::time_point due(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            period_s_ * static_cast<double>(i)));
  }
  /// Latency of request i measured from when it was due, not from when the
  /// generator got round to sending it: a stall delays every later send, and
  /// that wait is part of what the client sees.
  double latency_s(std::size_t i, Clock::time_point resolved) const {
    return std::chrono::duration<double>(resolved - due(i)).count();
  }

 private:
  Clock::time_point start_;
  double period_s_;
};

/// How one attempted operation ended.
enum class Outcome { Ok, Rejected, Failed, Cancelled, Mismatch };

/// Operations attempted and how each ended. Everything but a verified Ok
/// counts as failed, and a failed deadline-bearing operation counts as a
/// missed deadline.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t deadline_attempted = 0;
  std::uint64_t deadline_met = 0;

  /// `has_deadline` operations meet it when they end Ok and `on_time`.
  void record(Outcome o, bool has_deadline = false, bool on_time = true);
  Tally& operator+=(const Tally& o);
  std::uint64_t not_ok() const { return attempted - ok; }
  double ok_pct() const;
  double fail_pct() const;
  /// Deadline-bearing operations that met their deadline, in percent; 100
  /// when none carried a deadline (nothing was missed).
  double slo_met_pct() const;
};

}  // namespace perfbench
