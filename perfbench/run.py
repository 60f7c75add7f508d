#!/usr/bin/env python3
"""Builds and runs the benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and builds
perfbench/CMakeLists.txt (the repository's root project plus the benchmark
program) into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The metrics in it are exactly those that
BENCHMARK.json lists for the mode.

--trace 1 runs the workload twice, as two processes with half of --seconds
each: untraced, then traced. It reports the traced process's per-layer
metrics and, as trace_overhead.<metric>, the traced minus the untraced
value of every end-to-end metric. Per-layer metrics of a layer the workload
does not exercise (NOT_EXERCISED) are reported as 0; any other listed
metric that the program does not emit is an error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_kernels", "serve_interactive")
# Per-layer metric name prefixes of layers a workload does not run:
# paper_kernels drives no serve::Engine, so it has no engine, generator or
# serving-device figures; serve_interactive makes no passes of fresh
# Sessions.
NOT_EXERCISED = {
    "paper_kernels": ("engine.", "gen.", "session.retries",
                      "session.excluded_cores", "session.op_failures"),
    "serve_interactive": ("session.rss_growth_mb_per_pass",),
}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
              "perfbench_selftest"]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    out = build_dir()
    build(out)
    if a.selftest:
        return subprocess.call([os.path.join(out, "perfbench_selftest")],
                               cwd=out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if a.trace else "end_to_end"]

    def run(trace, seconds):
        """Runs the program once; returns (exit code, stdout lines, result)."""
        proc = subprocess.run([
            os.path.join(out, "perfbench"), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--expected", os.path.join(HERE, "expected_sim.txt"),
            "--out", os.path.dirname(out), "--commit", commit()],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 1, lines, None
        return 0, lines, json.loads(lines[-1])

    if not a.trace:
        code, lines, result = run(0, a.seconds)
        if code != 0:
            return code
    else:
        code, base_lines, base = run(0, a.seconds / 2)
        if code != 0:
            return code
        code, lines, result = run(1, a.seconds / 2)
        if code != 0:
            return code
        lines = base_lines[:-1] + lines
        traced_e2e = result.pop("end_to_end")
        for name, m in base["metrics"].items():
            result["metrics"]["trace_overhead." + name] = {
                "value": traced_e2e[name]["value"] - m["value"],
                "unit": m["unit"]}
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]

    metrics = result["metrics"]
    names = {m["name"] for m in listed}
    unlisted = sorted(set(metrics) - names)
    if unlisted:
        print("perfbench: not listed in BENCHMARK.json: " + ", ".join(unlisted),
              file=sys.stderr)
        return 1
    skip = NOT_EXERCISED[a.workload] if a.trace else ()
    missing = sorted(n for n in names - set(metrics) if not n.startswith(skip))
    if missing:
        print("perfbench: listed but not measured: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {
        m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in listed}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
