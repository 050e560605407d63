"""Capture the default-seed reference outputs that run.py compares against.

    python3 perfbench/capture_reference.py

Run it only on a commit whose outputs are trusted; the references pin every
CSV number (a sample and column sums for the 2^20-row cloud) at that commit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import workloads
from run import CHILD, OUT, ROOT


def main() -> int:
    OUT.mkdir(exist_ok=True)
    workloads.REFERENCE.mkdir(parents=True, exist_ok=True)
    for name, work in workloads.WORKLOADS.items():
        out = OUT / f"reference-{name}.csv"
        argv = work.argv(workloads.DEFAULT_SEED, out)
        subprocess.run([sys.executable, str(CHILD), "--", *argv], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if name == "cloud":
            re, im, ld = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3),
                                    unpack=True)
            ref = {
                "stride": workloads.CLOUD_STRIDE,
                "rows": np.column_stack([re, im, ld])[:: workloads.CLOUD_STRIDE].tolist(),
                "sums": workloads.cloud_sums(re, im, ld),
            }
            (workloads.REFERENCE / "cloud.json").write_text(json.dumps(ref) + "\n")
        else:
            shutil.copyfile(out, workloads.REFERENCE / f"{name}.csv")
        out.unlink()
        print(f"captured {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
