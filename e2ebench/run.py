#!/usr/bin/env python3
"""Runs one workload of the rectpart wall-clock benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of the repository. It builds the `e2e` program
twice from source: untraced, and traced (`--features obs`, which compiles
the span tree and counters into every layer), each in its own
subdirectory of `$CARGO_TARGET_DIR` (default `.bench_build`), so neither
build ever recompiles the other. Cargo skips both builds when nothing
changed.

`--trace 0` runs the untraced program and reports the end-to-end
metrics of BENCHMARK.json. `--trace 1` runs the untraced program, then
the traced one with the same seed, and reports the per-layer metrics:
clock-measured stage times from the untraced run, span and counter
metrics from the traced run, and `trace_overhead`, the traced
throughput over the untraced throughput. The traced run also writes a
Chrome trace and a per-layer table to `$CARGO_TARGET_DIR/e2e-out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every answer was correct, 1 when a check failed, and 2 when the
benchmark could not be built or run (nothing is printed then).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# A run must end within 180 s. The first run in a fresh checkout also
# builds, so the builds get a limit of their own.
RUN_DEADLINE_S = 175
BUILD_TIMEOUT_S = 850


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(variant, features):
    """Builds the e2e program into its own target directory; returns its path."""
    target = os.path.join(target_dir(), variant)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "e2e"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(cmd + features, env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(target, "release", "e2e")


def run(program, args, variant, deadline, traced):
    """Runs one e2e process and returns its JSON report."""
    out_dir = os.path.join(target_dir(), "e2e-out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-{variant}.json")
    if os.path.exists(report):
        os.remove(report)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", report]
    if traced:
        cmd += ["--trace-dir", out_dir]
    # A fixed mmap threshold keeps glibc from adapting it to the first
    # large free: with the adaptive threshold, whether a request's matrix
    # copy reused freed heap depended on the allocation history, and
    # peak_rss_mb jumped by one copy between runs.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{variant} run exited with {proc.returncode}")
    with open(report) as f:
        return json.load(f)


def pick(values, metrics):
    """The spec's metrics, by name, from a name -> {value, unit} map."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: values[m["name"]] for m in metrics}


def main():
    start = time.monotonic()
    # Turn SIGTERM into an exception, so that subprocess.run kills the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report here")
    args = parser.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
        # Both builds every time: the first run in a checkout has the
        # long time limit, so it pays for the traced build as well.
        plain = build("plain", [])
        traced = build("obs", ["--features", "obs"])
        deadline = start + RUN_DEADLINE_S
        reports = [run(plain, args, "plain", deadline, False)]
        if args.trace:
            reports.append(run(traced, args, "obs", deadline, True))
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    if args.trace:
        untraced, traced_report = reports
        # Stage times from the untraced run; spans and counters, which
        # only the traced build records, from the traced run.
        layers = dict(traced_report["layers"], **untraced["layers"])
        overhead = (traced_report["metrics"]["throughput_rps"]["value"]
                    / untraced["metrics"]["throughput_rps"]["value"])
        layers["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], reports[0]["metrics"]
    try:
        metrics = pick(values, wanted)
    except RuntimeError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(result, workload=args.workload, seed=args.seed,
                           trace=args.trace, reports=reports), f, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
