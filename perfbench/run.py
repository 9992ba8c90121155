#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload mb-sharded --seed 1 --seconds 40 --trace 0

Steadiness mode: N fresh runs of one workload with seeds base..base+N-1,
then each metric's median, quartiles and spread (quartile distance over
median, as statistics.quantiles(values, n=4) gives them), set against the
bounds in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload mb-sharded [--seed-base 1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when it is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary; exits with cargo's code on failure."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo reports on stderr; stdout stays for the result lines.
    code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    if code != 0:
        sys.exit(code)
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "sgnn-perfbench")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the steadiness check takes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(binary, args):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    names = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[names]}
    values, steal, failed_shares = {}, [], set()
    for i in range(args.steady):
        seed = args.seed_base + i
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        if set(result["metrics"]) != set(bounds):
            sys.exit(f"seed {seed}: metrics {sorted(result['metrics'])} are not "
                     f"BENCHMARK.json's {names} {sorted(bounds)}")
        host = next(json.loads(l)["host"] for l in lines if l.startswith('{"host"'))
        steal.append(host["steal_s"])
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall {host['wall_s']:.1f}s steal {host['steal_s']:.2f}s "
              f"correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    for name, vals in values.items():
        print(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or sp < bound / 3 else "  <-- over a third of its bound"
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    print(f"steal per run: median {statistics.median(steal):.2f}s, max {max(steal):.2f}s")
    print(f"failed share of attempted, per run: {sorted(failed_shares)}")


def main():
    if "--steady" not in sys.argv:
        binary = build()
        os.execv(binary, [binary] + sys.argv[1:])
    p = argparse.ArgumentParser()
    p.add_argument("--steady", type=int, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    steady(build(), args)


if __name__ == "__main__":
    main()
