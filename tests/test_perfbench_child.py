"""The benchmark's traced child runs a CLI command to its end.

`perfbench/tracer.py` wraps fiberdim functions by name before the run, so a
rename or deletion of any of them makes every traced run fail while untraced
runs still pass. This runs one traced `pressure` the way the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_runs_pressure(tmp_path):
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--spans", str(spans), "--",
         "pressure", "--seq", "const:50", "--t", "0:0.4:3", "--n", "2:6",
         "-o", str(tmp_path / "curve.csv")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["code"] == 0, done.stderr
    assert json.loads(spans.read_text())  # the spans of the traced layers were written
