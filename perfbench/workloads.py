"""The four benchmark workloads, their seeded arguments and their output checks.

Every result fiberdim computes is a reduction over one 2**n-leaf pullback
tree of f_l(z) = l/2 (z^2 - 1) + 1, so the workloads differ in how that tree
is consumed: emitted as CSV, reduced at a t grid, bisected, box-counted, or
rebuilt many times over perturbed sequences.  Shares quoted below are of the
untraced wall time at seed 7 on a 2-CPU x86-64 machine.

Left out on purpose:
- `transfer`: only `verify` reaches it; `pressure` reduces with its own
  `_lse_neg_t`, so `transfer` joins once pressure is routed through it.
- `verify`: its `transfer.parallel_determinism` check starts 8 worker
  processes, more than the 2 CPUs the benchmark may use.
- `family`: its maps run inside the traversal and are timed as part of it.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
REFERENCE = Path(__file__).resolve().parent / "reference" / f"seed{DEFAULT_SEED}"
# Reference comparison: |a - b| <= RTOL * max(|a|, |b|) + ATOL.  This admits
# last-ulp reorderings of the log-derivative sums (measured at 2e-14 on
# values near 70) and a Bowen zero moving by a bisection step of its 1e-10
# residual tolerance, and still catches any wrong digit among the first nine.
RTOL = 1e-9
ATOL = 1e-12
CLOUD_STRIDE = 4096  # the cloud reference keeps every 4096th row and column sums

LOG_FLOOR = math.log(80.0 / 3.0)  # one-step expansion floor of the planar metric
CLOUD_DEPTH = 20
PRESSURE_N = (4, 23)
PRESSURE_T = 21
PERTURB_X = 21


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fans_out: bool  # takes --workers; checked for worker-count determinism

    def argv(self, seed: int, out: Path, workers: int = 2) -> list[str]:
        rand = f"random:seed={seed % 2**32},min=45,max=80"  # spec seeds are nonnegative
        if self.name == "cloud":
            return ["julia", "--seq", rand, "--depth", str(CLOUD_DEPTH), "-o", str(out)]
        if self.name == "pressure":
            return ["pressure", "--seq", rand, "--t", f"0:0.4:{PRESSURE_T}",
                    "--n", f"{PRESSURE_N[0]}:{PRESSURE_N[1]}", "--workers", str(workers),
                    "-o", str(out)]
        if self.name == "dimension":
            return ["dimension", "--seq", periodic_spec(seed), "--window", "14:22",
                    "--tol", "1e-10", "--box-check", "--box-depth", "18", "-o", str(out)]
        return ["perturb", "--mode", "kink", "--base", rand, "--blocks", "2x2",
                f"--x=-0.1:0.1:{PERTURB_X}", "--t", "0.18", "--window", "2:20",
                "--workers", str(workers), "-o", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # `cloud` is runnable but not declared in BENCHMARK.json: its Python-bound row
        # loop follows the host's CPU speed so closely that ten runs spread beyond the
        # 0.25 bound in two of four sets (see README.md).
        Workload(
            "cloud",
            "Shows CSV-emission changes (write_cloud_csv is ~96% of the wall on one depth-20 "
            "tree) and bypasses log-sum-exp, bisection, fan-out and tree nesting",
            False,
        ),
        Workload(
            "pressure",
            "Shows traversal, tree-nesting, log-sum-exp and fan-out changes: 20 trees up to "
            "depth 23 reduced at 21 exponents over an unbalanced 2-worker fan-out",
            True,
        ),
        Workload(
            "dimension",
            "Shows root-finding, log-sum-exp and box-count changes: 9 cached trees bisected "
            "to 1e-10, then a serial box count over 2^18 points",
            False,
        ),
        Workload(
            "perturb",
            "Many small trees instead of a few deep ones, so per-tree overhead and the at "
            "calls of PerturbedSequence show; the only workload that reaches experiments",
            True,
        ),
    )
}


def periodic_spec(seed: int) -> str:
    """Two cycle entries drawn from the seed, moduli in [45, 80]."""
    rng = random.Random(seed)
    entries = []
    for _ in range(2):
        z = cmath.rect(rng.uniform(45.0, 80.0), rng.uniform(0.0, 2.0 * math.pi))
        entries.append(f"{z.real:.6f}{z.imag:+.6f}i")
    return "periodic:" + ",".join(entries)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list is a pass.
# ---------------------------------------------------------------------------


def _close(a, b):
    return np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL


def _compare_rows(name: str, rows: list[list[str]], ref: list[list[str]]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{name}: {len(rows)} rows, reference has {len(ref)}"]
    for i, (row, want) in enumerate(zip(rows, ref)):
        if len(row) != len(want):
            return [f"{name}: row {i} has {len(row)} fields, reference has {len(want)}"]
        for got, exp in zip(row, want):
            try:
                ok = _close(float(got), float(exp))
            except ValueError:
                ok = got == exp
            if not ok:
                return [f"{name}: row {i} field {got!r} differs from reference {exp!r}"]
    return []


def _read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def check_cloud(out: Path, seed: int) -> list[str]:
    rows = 1 << CLOUD_DEPTH
    words = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0, dtype=f"S{CLOUD_DEPTH}")
    re, im, ld = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3), unpack=True)
    if words.size != rows or ld.size != rows:
        return [f"cloud: {words.size} rows, expected {rows}"]
    problems = []
    index = np.arange(rows, dtype=np.int64)
    bits = (index[:, None] >> np.arange(CLOUD_DEPTH - 1, -1, -1)) & 1
    expected = (bits + ord("0")).astype(np.uint8).view(f"S{CLOUD_DEPTH}").ravel()
    if not np.array_equal(words, expected):
        problems.append("cloud: word column is not the row index in binary")
    center = np.where(bits[:, 0] == 0, 1.0, -1.0)
    if not np.all(np.hypot(re - center, im) <= 1.0 / 3.0):
        problems.append("cloud: a point lies outside the trapping disk its first bit names")
    if not np.all(ld >= CLOUD_DEPTH * LOG_FLOOR):
        problems.append(f"cloud: a log_deriv is below {CLOUD_DEPTH}*log(80/3)")
    if seed == DEFAULT_SEED:
        ref = json.loads((REFERENCE / "cloud.json").read_text())
        got = np.column_stack([re, im, ld])[:: ref["stride"]]
        want = np.array(ref["rows"])
        if got.shape != want.shape or not np.all(_close(got, want)):
            problems.append("cloud: sampled rows differ from the reference")
        sums = cloud_sums(re, im, ld)
        if not all(_close(a, b) for a, b in zip(sums, ref["sums"])):
            problems.append(f"cloud: column sums {sums} differ from reference {ref['sums']}")
    return problems


def cloud_sums(re, im, ld) -> list[float]:
    # Points come in +-z pairs, so plain sums cancel; absolute sums do not.
    return [math.fsum(np.abs(re)), math.fsum(np.abs(im)), math.fsum(ld)]


def check_pressure(out: Path, seed: int) -> list[str]:
    rows = _read_rows(out)
    n_lo, n_hi = PRESSURE_N
    expected = (n_hi - n_lo + 1) * PRESSURE_T
    if rows[0] != ["n", "t", "a_n"] or len(rows) - 1 != expected:
        return [f"pressure: {len(rows) - 1} data rows, expected {expected}"]
    values = np.array([[float(v) for v in r] for r in rows[1:]])
    problems = []
    for n in range(n_lo, n_hi + 1):
        curve = values[values[:, 0] == n]
        if abs(curve[0, 2] - math.log(2.0)) > 1e-12 or curve[0, 1] != 0.0:
            problems.append(f"pressure: a_{n}(0) = {curve[0, 2]!r} is not log 2")
        if not np.all(np.diff(curve[:, 2]) < 0):
            problems.append(f"pressure: a_{n}(t) is not strictly decreasing")
    if seed == DEFAULT_SEED:
        problems += _compare_rows("pressure", rows, _read_rows(REFERENCE / "pressure.csv"))
    return problems


def check_dimension(out: Path, stdout: str, seed: int) -> list[str]:
    rows = _read_rows(out)
    if len(rows) != 3 or [r[0] for r in rows[1:]] != ["lower", "upper"]:
        return ["dimension: roots CSV does not hold a lower and an upper row"]
    lower, upper = float(rows[1][1]), float(rows[2][1])
    problems = []
    if not 0.0 < lower <= upper < 2.0:
        problems.append(f"dimension: h_lower {lower!r}, h_upper {upper!r} out of order")
    if "box-check: slope" not in stdout:
        problems.append("dimension: the box-check line was not printed")
    if seed == DEFAULT_SEED:
        problems += _compare_rows("dimension", rows, _read_rows(REFERENCE / "dimension.csv"))
    return problems


def check_perturb(out: Path, seed: int) -> list[str]:
    rows = _read_rows(out)
    if len(rows) - 1 != PERTURB_X:
        return [f"perturb: {len(rows) - 1} rows, expected {PERTURB_X}"]
    if seed == DEFAULT_SEED:
        return _compare_rows("perturb", rows, _read_rows(REFERENCE / "perturb.csv"))
    return []


def check(name: str, out: Path, stdout: str, seed: int) -> list[str]:
    """Problems with one run's output; the caller has already required exit code 0."""
    if not out.is_file():
        return [f"{name}: no output file"]
    if name == "cloud":
        return check_cloud(out, seed)
    if name == "pressure":
        return check_pressure(out, seed)
    if name == "dimension":
        return check_dimension(out, stdout, seed)
    return check_perturb(out, seed)
