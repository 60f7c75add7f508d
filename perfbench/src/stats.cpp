#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail supported_tail(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t k =
        std::min(rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1,
                 v.size() - 1);
    const std::size_t beyond = v.size() - 1 - k;
    if (beyond >= min_beyond) {
      t.q = q;
      t.value = v[k];
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

CpuSample cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuSample s;
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  s.vol_ctxsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.invol_ctxsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return s;
}

double CpuDelta::sys_share() const {
  const double total = cpu_s();
  return total > 0 ? sys_s / total : 0.0;
}

CpuDelta& CpuDelta::operator+=(const CpuDelta& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  ctxsw += o.ctxsw;
  return *this;
}

CpuDelta operator-(const CpuSample& after, const CpuSample& before) {
  CpuDelta d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.ctxsw = (after.vol_ctxsw + after.invol_ctxsw) -
            (before.vol_ctxsw + before.invol_ctxsw);
  return d;
}

void Tally::record(Outcome o, bool has_deadline, bool on_time) {
  ++attempted;
  switch (o) {
    case Outcome::Ok: ++ok; break;
    case Outcome::Rejected: ++rejected; break;
    case Outcome::Failed: ++failed; break;
    case Outcome::Cancelled: ++cancelled; break;
    case Outcome::Mismatch: ++mismatched; break;
  }
  if (has_deadline) {
    ++deadline_attempted;
    if (o == Outcome::Ok && on_time) ++deadline_met;
  }
}

Tally& Tally::operator+=(const Tally& o) {
  attempted += o.attempted;
  ok += o.ok;
  rejected += o.rejected;
  failed += o.failed;
  cancelled += o.cancelled;
  mismatched += o.mismatched;
  deadline_attempted += o.deadline_attempted;
  deadline_met += o.deadline_met;
  return *this;
}

double Tally::ok_pct() const {
  return attempted ? 100.0 * static_cast<double>(ok) /
                         static_cast<double>(attempted)
                   : 0.0;
}

double Tally::fail_pct() const {
  return attempted ? 100.0 * static_cast<double>(not_ok()) /
                         static_cast<double>(attempted)
                   : 0.0;
}

double Tally::slo_met_pct() const {
  return deadline_attempted
             ? 100.0 * static_cast<double>(deadline_met) /
                   static_cast<double>(deadline_attempted)
             : 100.0;
}

}  // namespace perfbench
