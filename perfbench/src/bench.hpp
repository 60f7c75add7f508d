// Shared vocabulary of the benchmark's workloads (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ascan.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one workload run measured. `e2e` carries the workload's own
/// end-to-end metrics (the simulated figures are added by the figure pass),
/// `layer` its per-layer metrics.
struct RunResult {
  Metrics e2e;
  Metrics layer;
  Tally tally;
  std::vector<std::string> errors;  ///< correctness violations

  bool correct() const { return errors.empty(); }
  void error(std::string what) { errors.push_back(std::move(what)); }
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Workloads: run the timed region and fill in host metrics.
RunResult run_paper_kernels(const Args& args, SpanRecorder& spans);
RunResult run_serve_interactive(const Args& args, SpanRecorder& spans);

/// The paper-sized operator sequence on fixed inputs: every output is
/// checked against kernels/reference and every simulated figure against
/// perfbench/expected_sim.txt. Adds the simulated figures to `r.e2e` and the
/// kernel-layer metrics to `r.layer`.
void figure_pass(const std::string& expected_path, SpanRecorder& spans,
                 RunResult& r);

/// Per-layer probes of sim, ascendc and core (Session) layers.
void layer_probes(std::uint64_t seed, SpanRecorder& spans, RunResult& r);

/// Cluster-layer probe: a 4-device Cluster under chaos traffic with one
/// device killed. Adds the cluster.* and chaos.* per-layer metrics, and its
/// requests to the tally.
void cluster_probe(std::uint64_t seed, SpanRecorder& spans, RunResult& r);

}  // namespace perfbench
