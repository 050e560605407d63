"""The benchmark's traced child runs a CLI command to its end.

`perfbench/tracer.py` wraps fiberdim functions by name before the run, and
binds some of their arguments by name, so a rename or deletion of any of
them makes every traced run fail while untraced runs still pass.  This runs
one small traced command per benchmark workload the way the benchmark does:
the `dimension` box check binds `box_dimension`'s `points` and `offsets`,
and the `perturb` scan, given `--workers 2` as the benchmark gives it, runs
its cells through the wrapped `parallel.run_jobs`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each workload's command and the span its wrapped layer must leave
WORKLOADS = {
    "pressure": (["pressure", "--seq", "const:50", "--t", "0:0.4:3", "--n", "2:6"],
                 "pressure.pressure_curve"),
    "dimension": (["dimension", "--seq", "const:50", "--window", "4:6", "--box-check",
                   "--box-depth", "12"], "boxcount.box_dimension"),
    "perturb": (["perturb", "--mode", "kink", "--base", "const:50", "--x=-0.1:0.1:3",
                 "--window", "2:6", "--workers", "2"], "parallel.run_jobs"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_child_runs(tmp_path, workload):
    args, span = WORKLOADS[workload]
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--spans", str(spans), "--",
         *args, "-o", str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["code"] == 0, done.stderr
    assert span in {s["name"] for s in json.loads(spans.read_text())}
