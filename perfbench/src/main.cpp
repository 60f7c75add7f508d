// perfbench — the repository's benchmark. Runs one workload and prints, as
// the last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. See perfbench/README.md.
//
//   perfbench --workload paper_kernels|serve_interactive
//             --seed N --seconds S --trace 0|1 --expected PATH
//             [--out DIR] [--commit SHA]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload traced, then the layer probes, and reports the
// per-layer metrics, with the traced run's own end-to-end metrics under the
// extra key "end_to_end"; it writes the spans as Chrome trace JSON into DIR.
// perfbench/run.py runs the two modes as two processes and subtracts their
// end-to-end metrics for the tracing overhead, so neither run's peak RSS or
// warm caches carry over into the other.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

/// One-minute load average before the workload starts (a run's own device
/// pools push it up, so it is only meaningful when sampled first).
double loadavg_1m() {
  std::ifstream is("/proc/loadavg");
  double v = -1;
  is >> v;
  return v;
}

const char* env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_kernels|serve_interactive "
               "--seed N --seconds S --trace 0|1 "
               "--expected PATH [--out DIR] [--commit SHA]\n",
               argv0);
  return 2;
}

RunResult run_workload(const Args& args, SpanRecorder& spans) {
  return args.workload == "paper_kernels" ? run_paper_kernels(args, spans)
                                          : run_serve_interactive(args, spans);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string expected, commit = "unknown";
  if (argc % 2 == 0) return usage(argv[0]);  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--expected") {
      expected = v;
    } else if (k == "--out") {
      args.out_dir = v;
    } else if (k == "--commit") {
      commit = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.workload != "paper_kernels" &&
      args.workload != "serve_interactive") {
    return usage(argv[0]);
  }
  if (expected.empty() || !(args.seconds > 0)) return usage(argv[0]);
  // Both variables change the program under test; a result measured under
  // either is not comparable with the committed baseline.
  for (const char* var : {"ASCAN_EXECUTOR", "ASCAN_TIMING_CACHE"}) {
    if (*env_or_empty(var) != '\0') {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 3;
    }
  }

  const double load = loadavg_1m();
  std::printf(
      "{\"environment\": {\"nproc\": %ld, \"loadavg_1m_before\": %s, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"ASCAN_EXECUTOR\": \"\", \"ASCAN_TIMING_CACHE\": \"\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), number(load).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      json_escape(commit).c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace ? 1 : 0);
  std::fflush(stdout);

  const bool traced = args.trace;
  SpanRecorder spans(traced);
  RunResult out = run_workload(args, spans);
  figure_pass(expected, spans, out);
  if (traced) {
    layer_probes(args.seed, spans, out);
    cluster_probe(args.seed, spans, out);
    out.layer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    if (!spans.write_chrome(path)) {
      out.error("cannot write trace file " + path);
    } else {
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", spans.size(),
                   path.c_str());
    }
  }

  for (const auto& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const Metrics& shown = traced ? out.layer : out.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s%s%s}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.tally.attempted),
              static_cast<unsigned long long>(out.tally.not_ok()),
              metrics_json(shown).c_str(), traced ? ", \"end_to_end\": " : "",
              traced ? metrics_json(out.e2e).c_str() : "");
  return out.correct() ? 0 : 1;
}
