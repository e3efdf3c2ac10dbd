#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke          # every workload briefly, traced and not

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program into .bench_build/ (later calls only
rebuild what changed). The fixed workload parameters come from
perfbench/params.json; the metric names from BENCHMARK.json. The last line
printed is the JSON result; the exit code is 0 only when the run finished
and every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ndsnn_perfbench")


def build():
    """Configure once, then build; cmake's output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "ndsnn_perfbench"],
                   check=True, stdout=sys.stderr)


def param_args(smoke):
    """params.json flattened to --<section>.<key> <value> pairs."""
    with open(os.path.join(HERE, "params.json")) as f:
        params = json.load(f)
    flat = {}
    for section, values in params.items():
        if section != "smoke":
            for key, value in values.items():
                flat[f"{section}.{key}"] = value
    if smoke:
        flat.update(params["smoke"])
    out = []
    for key, value in flat.items():
        out += [f"--{key}", str(value)]
    return out


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def run(workload, seed, seconds, trace, smoke=False, perturb=None):
    """Run the program; returns (exit code, stdout lines before the result,
    result dict or None)."""
    e2e, per_layer, _ = declared()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")]
    if perturb:
        cmd += ["--perturb", perturb]
    cmd += param_args(smoke)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 2, [], None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 2, lines, None
    # The result carries exactly the declared metrics: a traced run reports
    # 0 for a layer its workload never calls; a missing end-to-end metric
    # is a benchmark bug.
    got = result["metrics"]
    wanted = per_layer if trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            print(f"perfbench: {workload} did not report {m['name']}", file=sys.stderr)
            return 2, lines[:-1], None
    for name in got:
        if name in metrics:
            continue
        print(f"perfbench: {workload} reported undeclared metric {name}", file=sys.stderr)
        # A per-layer name can follow the program's structure (runtime.opNN
        # shifts when the plan's op list changes): warn and drop it rather
        # than fail the run. An undeclared end-to-end metric is a bug.
        if not trace:
            return 2, lines[:-1], None
    result["metrics"] = metrics
    return proc.returncode, lines[:-1], result


def smoke():
    """Every workload briefly, untraced and traced; all checks must pass."""
    _, _, workloads = declared()
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            code, lines, result = run(workload, 1, 1, trace, smoke=True)
            good = code == 0 and result is not None and result["correct"]
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}")
            if not good:
                print("\n".join(lines))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--perturb", help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    code, lines, result = run(args.workload, args.seed, args.seconds, args.trace,
                              perturb=args.perturb)
    for line in lines:
        print(line)
    if result is None:
        return code or 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
