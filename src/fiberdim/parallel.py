"""In-order loop over independent jobs.

Kept only for `perfbench/tracer.py`, which wraps `run_jobs` by name and calls
it as `run_jobs(job_fn, args_list, workers)`.  It goes once the tracer reads
run records instead (ROADMAP item 1, a perfbench-only change).  Every job
runs in this process.
"""

from __future__ import annotations


def run_jobs(fn, args_list, workers: int = 1) -> list:
    """Apply fn to each args tuple in order; workers is accepted and ignored."""
    return [fn(args) for args in args_list]
