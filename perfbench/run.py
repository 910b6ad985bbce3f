#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload, print its metrics.

    python3 perfbench/run.py --workload design_sweep|montecarlo|array_lint \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark (Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset.  Every metric is printed by name with its unit; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics (read
back from the Chrome trace file) with --trace 1.  The exit status is 0 only
when every item and output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_sweep", "montecarlo", "array_lint")
END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms",
              "peak_rss_mb")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-layer metrics, all per item of the traced pass.  Times are span self
# times: a span's duration minus the part its child spans cover.
SELF_TIME = {
    "sram.characterize.s": "sram.characterize",
    "sram.testbench.build_s": "sram.testbench.build",
    "lint.gate_s": "lint.gate",
    "spice.tran.s": "spice.tran",
    "spice.dc.s": "spice.dc",
    "core.energy_model.s": "core.energy_model",
    "sram.montecarlo.draw_s": "sram.montecarlo.draw",
    "sram.snm.vtc_s": "sram.snm.vtc",
    "sram.snm.square_s": "sram.snm.square",
    "runner.overhead_s": "runner.run",
    "spice.parse.s": "spice.parse",
    "lint.s": "lint",
    "lint.structural_s": "lint.structural",
    "lint.other_s": "lint.other",
    "spice.structure.s": "spice.structure",
    "lint.format_s": "lint.format",
    "lint.hier_s": "lint.hier",
}
CALLS = {
    "sram.characterize.calls": "sram.characterize",
    "sram.snm.vtc_calls": "sram.snm.vtc",
    "spice.dc.solves": "spice.dc",
}
ARG_SUMS = {
    "sram.characterize.cache_misses": ("sram.characterize", "cache_misses"),
    "spice.tran.steps": ("spice.tran", "steps"),
    "spice.tran.rejected_steps": ("spice.tran", "rejected_steps"),
    "spice.tran.newton_iters": ("spice.tran", "newton_iters"),
    "spice.tran.recoveries": ("spice.tran", "recoveries"),
    "spice.dc.newton_iters": ("spice.dc", "newton_iters"),
    "spice.dc.failed": ("spice.dc", "failed"),
    "core.energy_model.evals": ("core.energy_model", "evals"),
    "spice.parse.devices": ("spice.parse", "devices"),
    "lint.findings": ("lint", "findings"),
    "lint.errors": ("lint", "errors"),
    "spice.structure.unknowns": ("spice.structure", "unknowns"),
}
# trace.coverage: replayed layer self times over the real calls they replay.
COVERAGE = {
    "design_sweep": ("sram.characterize",
                     ("sram.testbench.build", "lint.gate", "spice.tran",
                      "spice.dc")),
    "montecarlo": ("item",
                   ("sram.montecarlo.draw", "sram.snm.vtc", "sram.snm.square",
                    "sram.testbench.build", "spice.dc")),
    "array_lint": ("lint", ("lint.structural", "lint.other")),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            return False
    return True


def provenance():
    sha = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # The checkout may not be a git repository: hash the sources as well.
    h = hashlib.sha256()
    for top in ("src", os.path.join("tests", "support"), "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"git {sha} | sources sha256 {h.hexdigest()[:16]} | "
            f"build Release | nproc {os.cpu_count()} | cpu {cpu}")


def layer_metrics(trace_path, workload):
    """Per-item layer metrics computed from the Chrome trace file."""
    with open(trace_path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    facts = trace["otherData"]
    child_time = {}
    for e in events:
        parent = e["args"]["parent"]
        child_time[parent] = child_time.get(parent, 0.0) + e["dur"]
    self_s, dur_s, calls, args = {}, {}, {}, {}
    for e in events:
        name = e["name"]
        dur = e["dur"] * 1e-6
        own = dur - child_time.get(e["args"]["id"], 0.0) * 1e-6
        self_s[name] = self_s.get(name, 0.0) + own
        dur_s[name] = dur_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        for k, v in e["args"].items():
            if k not in ("id", "parent"):
                args[(name, k)] = args.get((name, k), 0.0) + v
    items = max(1.0, facts["items"])
    out = {}
    for metric, span in SELF_TIME.items():
        out[metric] = (self_s.get(span, 0.0) / items, "s/item")
    for metric, span in CALLS.items():
        out[metric] = (calls.get(span, 0) / items, "count/item")
    for metric, key in ARG_SUMS.items():
        out[metric] = (args.get(key, 0.0) / items, "count/item")
    steps = args.get(("spice.tran", "steps"), 0.0)
    out["spice.tran.us_per_step"] = (
        1e6 * self_s.get("spice.tran", 0.0) / steps if steps else 0.0,
        "us/step")
    real, layers = COVERAGE[workload]
    real_s = dur_s.get(real, 0.0)
    out["trace.coverage"] = (
        sum(self_s.get(s, 0.0) for s in layers) / real_s if real_s else 0.0,
        "ratio")
    # Item time of the traced pass over the untraced pass, on the items
    # both passes ran.
    out["trace.overhead_pct"] = (
        100.0 * (facts["traced_common_s"] / facts["untraced_common_s"] - 1.0),
        "%")
    return out, int(facts["items"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 2
    print("provenance: " + provenance(), flush=True)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, opts.workload + ".result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds),
           "--trace", str(opts.trace), "--out", out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False, stdout=sys.stdout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.flush()
    if not os.path.exists(result_path):
        log(f"perfbench: exited {proc.returncode} without a result")
        return proc.returncode or 4
    with open(result_path) as f:
        result = json.load(f)
    print(f"process wall: {time.monotonic() - t0:.3f} s")
    print(f"digest: {result['digest']} over the first "
          f"{result['digest_items']} items")
    print("NVSRAM_* variables removed before the run: "
          f"{', '.join(result['scrubbed_env']) or 'none'}")

    if opts.trace:
        metrics, items = layer_metrics(result["trace"], opts.workload)
        print(f"trace: {result['trace']} ({items} traced items; open in "
              "Perfetto)")
        print("per-layer metrics (per traced item):")
    else:
        metrics = {k: (result["metrics"][k]["value"],
                       result["metrics"][k]["unit"]) for k in END_TO_END}
        print("end-to-end metrics (untraced):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
