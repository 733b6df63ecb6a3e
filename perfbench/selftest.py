#!/usr/bin/env python3
"""Smoke self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run passes its output checks, that every metric
BENCHMARK.json names appears with its unit (and no other), that the
binary itself reports every end-to-end metric on every workload and every
per-layer metric on at least one (a name it never reports is a typo in
BENCHMARK.json or a lost metric), that a second untraced process on the
same seed repeats the exact metrics (virtual time and counts) bit for bit,
and that the traced run wrote its span file. Exits non-zero on the first
failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace), "--smoke"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        raise AssertionError(f"{workload} trace={trace}: exit {r.returncode}")
    lines = r.stdout.splitlines()
    digest = [l for l in lines if l.startswith("perfbench-exact-digest ")]
    missing = [l.split()[1:] for l in lines
               if l.startswith("perfbench-not-reported")]
    return json.loads(lines[-1]), digest, set(missing[0])


def check_metrics(label, result, defs):
    assert result["correct"] is True, f"{label}: correct is not true"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    assert result["failed"] == 0, f"{label}: {result['failed']} ops failed"
    want = {d["name"]: d["unit"] for d in defs}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    assert not missing and not extra, f"{label}: missing {missing}, extra {extra}"
    for name, m in got.items():
        assert m["unit"] == want[name], f"{label}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(
            m["value"]), f"{label}: {name} value {m['value']!r}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "seeds.json")) as f:
        seed = json.load(f)["default"]
    never = {d["name"] for d in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        plain, digest, missing = run(name, seed, 0)
        check_metrics(f"{name} trace=0", plain, bench["end_to_end"])
        assert not missing, f"{name}: end-to-end {sorted(missing)} not reported"
        _, again, _ = run(name, seed, 0)
        assert digest and digest == again, f"{name}: exact metrics differ " \
            f"between processes ({digest} vs {again})"
        traced, _, missing = run(name, seed, 1)
        check_metrics(f"{name} trace=1", traced, bench["per_layer"])
        never &= missing
        spans = os.path.join(ROOT, ".bench_build", "perfbench", "spans",
                             f"{name}-{seed}.json")
        with open(spans) as f:
            assert json.load(f)["traceEvents"], f"{name}: empty span file"
        print(f"ok  {name}")
    assert not never, f"per-layer {sorted(never)} reported by no workload"
    print("selftest: all workloads pass")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
