import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

from fiberdim import Constant, cli, parallel, verification

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter whose default start method is spawn.  os.fork is
# disabled first, so a pool that still forked would fail instead of passing.
SPAWN_SCRIPT = """
import multiprocessing, os
from fiberdim import SignSchedule, kink_scan
from fiberdim.sequences import parse_sequence

def no_fork():
    raise RuntimeError("os.fork called")

multiprocessing.set_start_method("spawn")
os.fork = no_fork
seq = parse_sequence("periodic:50,60+10i")
for anchor in (1.0, -1.05 + 0.1j):
    serial, pooled = (
        kink_scan(seq, SignSchedule(2, 2), 0.18, (-0.05, 0.0, 0.05), (2, 9), anchor=anchor,
                  workers=workers)
        for workers in (1, 2)
    )
    assert serial == pooled, anchor
print("ok")
"""


def test_spawn_start_method_matches_serial():
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_verify_determinism_check_starts_a_pool(monkeypatch):
    # the check compares a pooled run with a serial one, not two serial runs
    pools = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        pools.append(kwargs["processes"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    result = verification.check_transfer_parallel(Constant(50), 8)
    assert result.passed and pools == [2]


def test_available_workers_counts_the_affinity_mask(monkeypatch):
    # an affinity-limited process gets one default perturb worker, not one per host CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert parallel.available_workers() == 1
    assert cli._build_parser().parse_args(["perturb", "--base", "const:50"]).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it
    assert parallel.available_workers() == 8
