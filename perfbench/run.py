"""Benchmark runner for the fiberdim CLI.

    python3 perfbench/run.py --workload {cloud,pressure,dimension,perturb}
                             [--seed N] [--seconds S] [--trace 0|1]

Each run of the program is a fresh child process (perfbench/child.py) that
imports fiberdim from `src/` of this checkout and calls `fiberdim.cli.main`;
this script starts them one at a time and checks every output.  With
`--trace 0` it reports the end-to-end metrics as medians over the runs; with
`--trace 1` it alternates untraced and traced runs and reports the per-layer
metrics (see tracer.py).  The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it name
every metric with its unit and the environment.  Records are also appended to
`.perfbench_out/results.jsonl` in the checkout.

Workloads `pressure` and `perturb` are run once more with `--workers 1`
outside the timed runs, and their CSV must be byte-identical to the
`--workers 2` output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

MIN_RUNS = 3  # the reported medians need at least three timed runs
SETUP_PROBES = 10  # extra import-only launches per invocation for setup_s
CHILD_TIMEOUT = 45.0  # a normal run takes under 15 s

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
# ns/leaf measured with ad hoc timing when the roadmap was written.
ROADMAP_NS_PER_LEAF = {20: 85.0, 22: 115.0}


def _units() -> dict[str, str]:
    units = {}
    for name in tracer.layer_metrics([]):
        if name.endswith("_s"):
            units[name] = "s"
        elif ".ns_per" in name:
            units[name] = "ns"
        elif name.endswith("us_per_row"):
            units[name] = "us"
        elif name.endswith("bytes_computed"):
            units[name] = "B"
        elif name.endswith("efficiency"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Child:
    """One finished child process and its parsed record."""

    def __init__(self, argv: list[str]):
        launched = time.perf_counter()
        # A process group of its own lets a timeout kill the child's pool workers too.
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv], cwd=ROOT, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            self.stdout, self.stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            self.stdout, self.stderr = proc.communicate()
        self.exit = proc.returncode
        lines = self.stdout.splitlines()
        self.record = {}
        if self.exit == 0 and lines:
            try:
                self.record = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        self.setup_s = self.record["ready"] - launched if "ready" in self.record else None


def environment(seed: int, trace: int) -> dict:
    def getconf(key: str) -> int | None:
        try:
            text = subprocess.run(["getconf", key], capture_output=True, text=True).stdout
            return int(text.strip())
        except (OSError, ValueError):
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    caches = {level: getconf(f"LEVEL{level}_CACHE_SIZE") for level in (2, 3, 4)}
    return {
        "git_sha": sha,  # None outside a git checkout; src_sha256 still pins the code
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "l2_cache_bytes": caches[2],
        "llc_cache_bytes": next((caches[k] for k in (4, 3, 2) if caches[k]), None),
        "seed": seed,
        "trace": bool(trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fiberdim" / "cli.py").is_file():
        print(f"error: no fiberdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{work.name}-{args.seed}-{os.getpid()}"
    env = environment(args.seed, args.trace)
    print(f"workload {work.name}: {work.why}")
    print("environment " + json.dumps(env))

    attempted = failed = 0
    problems: list[str] = []
    first_csv: bytes | None = None

    def run(traced: bool) -> Child | None:
        nonlocal attempted, failed, first_csv
        out = OUT / f"{tag}.csv"
        prefix = ["--spans", str(OUT / f"{tag}.spans.json")] if traced else []
        child = Child(prefix + ["--"] + work.argv(args.seed, out))
        attempted += 1
        record = child.record
        if child.exit != 0 or record.get("code") != 0:
            found = [f"exit {child.exit}, cli code {record.get('code')}: "
                     + child.stderr.strip()[-500:]]
        else:
            found = workloads.check(work.name, out, child.stdout, args.seed)
        if found:
            failed += 1
            problems.extend(found)
        elif work.fans_out and first_csv is None:
            first_csv = out.read_bytes()
        out.unlink(missing_ok=True)
        return None if found else child

    # Everything below shares one budget of --seconds: the serial run for the
    # determinism check (which also warms the page cache), the import-only
    # launches for setup_s, then timed runs for as long as another one fits.
    start = time.perf_counter()
    serial_csv = None
    if work.fans_out:
        out = OUT / f"{tag}.w1.csv"
        serial = Child(["--"] + work.argv(args.seed, out, workers=1))
        if serial.exit == 0 and out.is_file():
            serial_csv = out.read_bytes()
        out.unlink(missing_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Child(["--probe"])
            if probe.setup_s is not None:
                setups.append(probe.setup_s)

    timed: list[Child | None] = []
    traced: list[Child | None] = []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = (timed and traced) if args.trace else len(timed) >= MIN_RUNS
        if enough and elapsed + last > args.seconds:
            break
        want_traced = bool(args.trace) and len(traced) < len(timed)
        began = time.perf_counter()
        (traced if want_traced else timed).append(run(traced=want_traced))
        last = time.perf_counter() - began
        if attempted >= 2 * MIN_RUNS and failed == attempted:
            break  # every run fails; stop instead of spinning for the whole budget
    timed = [c for c in timed if c is not None]
    traced = [c for c in traced if c is not None]
    setups += [c.setup_s for c in timed]

    if work.fans_out and first_csv is not None:  # without a passing run there is nothing to compare
        same = serial_csv == first_csv
        print(f"determinism: --workers 1 and --workers 2 CSVs "
              f"{'byte-identical' if same else 'DIFFER'}")
        if not same:
            problems.append("CSV differs between --workers 1 and --workers 2")

    units = _units()
    metrics: dict[str, dict] = {}
    if timed and not args.trace:
        for name, unit in END_TO_END.items():
            values = setups if name == "setup_s" else [c.record[name] for c in timed]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{name} = {statistics.median(values):.6g} {unit} "
                  f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    if timed and traced and args.trace:
        layers = {name: statistics.median(c.record["layers"][name] for c in traced)
                  for name in traced[0].record["layers"]}
        layers["trace.overhead_s"] = (statistics.median(c.record["wall_s"] for c in traced)
                                      - statistics.median(c.record["wall_s"] for c in timed))
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name} = {value:.6g} {units[name]}")
        for depth, ns in ROADMAP_NS_PER_LEAF.items():
            got = layers[f"orbits.ns_per_leaf.d{depth}"]
            if got:
                print(f"cross-check: orbits.ns_per_leaf.d{depth} = {got:.1f} ns "
                      f"vs ROADMAP {ns:.0f} ns ({got / ns - 1:+.0%})")
        unaccounted = abs(layers["trace.unaccounted_s"])
        if unaccounted > max(abs(layers["trace.overhead_s"]), 1e-3):
            problems.append(f"layer self times miss {unaccounted:.3g} s of the traced wall")
        (OUT / f"{tag}.spans.json").rename(OUT / f"spans-{work.name}-{args.seed}.json")

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"fail_ratio = {fail_ratio:.6g} ({failed} of {attempted} runs failed)")
    for problem in dict.fromkeys(problems):
        print(f"problem ({problems.count(problem)}x): {problem}")
    correct = not problems and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"workload": work.name, "environment": env, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
