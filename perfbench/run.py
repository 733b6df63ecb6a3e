#!/usr/bin/env python3
"""Builds and runs the perfbench binary; the repository's benchmark entry point.

    python3 perfbench/run.py --workload pbft-mixed --seed 1 --seconds 20 --trace 0

Run from anywhere inside a full checkout. The binary is built from source
into .bench_build/ at the checkout root with the tier-1 configuration
(RelWithDebInfo, RUBIN_AUDIT=ON); --no-audit builds without audits in its
own build directory, for manual comparisons. Build output goes to stderr.
Standard output carries the binary's lines, then the JSON result: the
binary's values, named and labelled with the units that BENCHMARK.json
gives its end-to-end (--trace 0) or per-layer (--trace 1) metrics. The
exit status is non-zero when the build fails, the configuration guard
trips, or an output check fails. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_seeds():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return json.load(f)


def cached(build_dir):
    """CMake cache entries of an existing build directory, or {}."""
    out = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    out[key.split(":", 1)[0]] = value
    except FileNotFoundError:
        pass
    return out


def build(audit):
    want = {"CMAKE_BUILD_TYPE": "RelWithDebInfo",
            "RUBIN_AUDIT": "ON" if audit else "OFF"}
    build_dir = os.path.join(ROOT, ".bench_build",
                             "perfbench" + ("" if audit else "-noaudit"))
    have = cached(build_dir)
    if any(have.get(k) != v for k, v in want.items()):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        cmd += [f"-D{k}={v}" for k, v in want.items()]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "perfbench")
    # Configuration guard: the binary reports what it was compiled with.
    config = json.loads(subprocess.run([binary, "--print-config"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    if (config["build_type"] != want["CMAKE_BUILD_TYPE"]
            or config["rubin_audit"] != audit
            or config["rubin_parallel_lanes"]):
        fail(f"binary configuration {config} is not the one requested")
    return build_dir, binary


def result(raw, defs):
    """The benchmark result from the binary's last line: each metric of
    `defs` with its value and unit. A metric the binary did not report
    belongs to a layer the workload never enters and is 0; one it reported
    as null cannot be measured on this build and is left out. Also returns
    the names that were not reported."""
    metrics, missing = {}, []
    for d in defs:
        if d["name"] not in raw["values"]:
            missing.append(d["name"])
        value = raw["values"].get(d["name"], 0.0)
        if value is not None:
            metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    out = {k: raw[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics if raw["correct"] else {}
    return out, missing


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True)
    except FileNotFoundError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pbft-mixed", "pop-open-loop", "explore-smoke"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: seeds.json 'default')")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes, for the self-test")
    ap.add_argument("--no-audit", action="store_true",
                    help="build with RUBIN_AUDIT=OFF (audit-derived metrics "
                         "are then absent)")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no rubin source tree at {ROOT}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        defs = json.load(f)["per_layer" if args.trace else "end_to_end"]
    seed = load_seeds()["default"] if args.seed is None else args.seed
    build_dir, binary = build(not args.no_audit)

    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{seed}.json")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
        ok = set(raw) == {"correct", "attempted", "failed", "values"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        fail(f"{args.workload} printed no result (exit {r.returncode})")
    out, missing = result(raw, defs)
    lines[-1] = "perfbench-not-reported " + " ".join(missing)
    print("\n".join(lines))
    print(json.dumps(out))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
