"""Deterministic fan-out of independent jobs.

Results are always collected in job order, so output is identical for any
worker count; workers only change wall time.  Serial execution is used when
it cannot help (single job or workers <= 1).  Pools use the platform's
default start method (fork on Linux before Python 3.14, forkserver from
3.14, spawn on macOS and Windows), so every job function is a picklable
module-level function.
"""

from __future__ import annotations

import multiprocessing
import os


def available_workers() -> int:
    return os.cpu_count() or 1


def run_jobs(fn, args_list, workers: int = 1) -> list:
    """Apply fn to each args tuple; ordered results, any worker count."""
    args_list = list(args_list)
    if workers <= 1 or len(args_list) <= 1:
        return [fn(args) for args in args_list]
    with multiprocessing.Pool(processes=min(workers, len(args_list))) as pool:
        return pool.map(fn, args_list)
