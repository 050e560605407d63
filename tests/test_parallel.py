import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter whose default start method is spawn.  os.fork is
# disabled first, so a pool that still forked would fail instead of passing.
SPAWN_SCRIPT = """
import multiprocessing, os
import numpy as np
from fiberdim import pressure_curve
from fiberdim.sequences import parse_sequence

def no_fork():
    raise RuntimeError("os.fork called")

multiprocessing.set_start_method("spawn")
os.fork = no_fork
seq = parse_sequence("periodic:50,60+10i")
for anchor in (1.0, -1.05 + 0.1j):
    serial = pressure_curve(seq, np.linspace(0.0, 0.4, 5), (2, 9), anchor=anchor, workers=1)
    pooled = pressure_curve(seq, np.linspace(0.0, 0.4, 5), (2, 9), anchor=anchor, workers=2)
    for name in ("values", "leaf_log_min", "leaf_log_max"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name)), (anchor, name)
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
