// Self-tests of the benchmark's own helpers (stats.hpp, trace.hpp). Exits
// nonzero on the first failed check. Run with `python3 perfbench/run.py
// --selftest`.
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

void test_quantiles() {
  EXPECT(median({}) == 0);
  EXPECT(median({7}) == 7);
  EXPECT(median(ramp(100)) == 50);  // nearest rank: ceil(0.5 * 100) = 50
  EXPECT(quantile(ramp(100), 0.99) == 99);
  EXPECT(quantile(ramp(100), 1.0) == 100);
  EXPECT(quantile(ramp(100), 0.0) == 1);
}

void test_supported_tail() {
  // 1000 samples: p99 is the 990th, with exactly 10 beyond it.
  Tail t = supported_tail(ramp(1000));
  EXPECT(t.q == 0.99);
  EXPECT(t.value == 990);
  EXPECT(t.beyond == 10);
  EXPECT(t.count == 1000);
  // 10000 samples support p99.9 (10 beyond the 9990th).
  t = supported_tail(ramp(10000));
  EXPECT(t.q == 0.999);
  EXPECT(t.beyond == 10);
  // 999 samples: p99 has only 9 beyond, so fall back to p95.
  t = supported_tail(ramp(999));
  EXPECT(t.q == 0.95);
  EXPECT(t.beyond >= 10);
  EXPECT(t.count == 999);
  // Too few samples for even the median to have ten beyond.
  t = supported_tail(ramp(15));
  EXPECT(t.q == 0);
  EXPECT(t.count == 15);
  t = supported_tail(ramp(20));
  EXPECT(t.q == 0.5);
  EXPECT(t.value == 10);
}

void test_open_loop() {
  const auto start = Clock::now();
  const OpenLoop sched(start, 1000);  // one request per ms
  EXPECT(sched.due(0) == start);
  EXPECT(std::abs(std::chrono::duration<double>(sched.due(250) - start)
                      .count() -
                  0.25) < 1e-9);
  // Request 10 was due at 10 ms. The generator stalled and only sent it at
  // 14 ms; it resolved at 15 ms. Its latency counts the stall: 5 ms, not 1.
  const auto resolved = start + std::chrono::milliseconds(15);
  EXPECT(std::abs(sched.latency_s(10, resolved) - 5e-3) < 1e-9);
  // A request resolved on schedule has zero latency.
  EXPECT(std::abs(sched.latency_s(3, sched.due(3))) < 1e-12);
}

void test_tally() {
  Tally t;
  t.record(Outcome::Ok, true, true);
  t.record(Outcome::Ok, true, false);       // late: a miss, but not a failure
  t.record(Outcome::Rejected, true, true);  // a refusal misses the deadline
  t.record(Outcome::Failed);
  t.record(Outcome::Cancelled);
  t.record(Outcome::Mismatch, true, true);  // a wrong answer is a failure
  t.record(Outcome::Ok);
  EXPECT(t.attempted == 7);
  EXPECT(t.ok == 3);
  EXPECT(t.not_ok() == 4);
  EXPECT(t.rejected == 1 && t.failed == 1 && t.cancelled == 1 &&
         t.mismatched == 1);
  EXPECT(std::abs(t.fail_pct() - 400.0 / 7) < 1e-9);
  EXPECT(std::abs(t.ok_pct() + t.fail_pct() - 100) < 1e-9);
  EXPECT(t.deadline_attempted == 4);
  EXPECT(t.deadline_met == 1);
  EXPECT(t.slo_met_pct() == 25);
  EXPECT(Tally{}.slo_met_pct() == 100);
}

void test_cpu_sampling() {
  const CpuSample a = cpu_now();
  // Burn CPU on this thread and on a second one; the process sample must
  // see both, and wall time must not be mistaken for CPU time.
  // Each burn runs until its own thread has used 60 ms of CPU, however
  // long that takes on a busy host.
  volatile double sink = 0;
  const auto burn = [&sink] {
    const auto thread_cpu_s = [] {
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
    };
    const double until = thread_cpu_s() + 0.06;
    double x = 0;
    while (thread_cpu_s() < until) x += std::sqrt(x + 1);
    sink = sink + x;
  };
  std::thread other(burn);
  burn();
  other.join();
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // no CPU
  const double slept = std::chrono::duration<double>(Clock::now() - t0).count();
  const CpuDelta d = cpu_now() - a;
  EXPECT(d.cpu_s() >= 0.11);  // two threads x 60 ms, minus tick rounding
  EXPECT(d.cpu_s() < 0.12 + slept / 2);
  EXPECT(d.sys_share() >= 0 && d.sys_share() <= 1);
  EXPECT(cpu_now().max_rss_mb > 0);
  CpuDelta sum;
  sum += d;
  sum += d;
  EXPECT(std::abs(sum.cpu_s() - 2 * d.cpu_s()) < 1e-12);
}

void test_spans() {
  SpanRecorder off(false);
  EXPECT(off.add("x", Clock::now(), Clock::now()) == 0);
  EXPECT(off.size() == 0);

  SpanRecorder rec(true);
  const auto t0 = Clock::now();
  const std::uint64_t root =
      rec.add("request", t0, t0 + std::chrono::microseconds(100), 0, 7);
  { ScopedSpan child(rec, "submit", root, 7); }
  const auto spans = rec.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[0].id == root && spans[0].parent == 0);
  EXPECT(spans[1].parent == root && spans[1].request == 7);
  EXPECT(std::abs(spans[0].end_us - spans[0].start_us - 100) < 1e-6);

  const char* path = "perfbench_selftest_trace.json";
  EXPECT(rec.write_chrome(path));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  EXPECT(text.find("\"traceEvents\"") != std::string::npos);
  EXPECT(text.find("\"name\": \"submit\"") != std::string::npos);
  EXPECT(text.find("\"parent\": 1") != std::string::npos);
  std::remove(path);
}

}  // namespace

int main() {
  test_quantiles();
  test_supported_tail();
  test_open_loop();
  test_tally();
  test_cpu_sampling();
  test_spans();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-tests: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench self-tests: all checks passed\n");
  return 0;
}
