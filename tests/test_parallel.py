import multiprocessing
import os

from fiberdim import SignSchedule, cli, experiments, parallel
from fiberdim.sequences import parse_sequence

SEQ = parse_sequence("periodic:50,60+10i")
SCHEDULE = SignSchedule(2, 2)
X_GRID = (-0.05, 0.0, 0.05)


def _no_process(*args, **kwargs):
    raise RuntimeError("a scan started a process")


def test_run_jobs_runs_every_job_in_order_in_this_process():
    # workers is accepted for the old call shape and changes nothing
    jobs = [(k,) for k in range(5)]
    for workers in (1, 2, 8):
        out = parallel.run_jobs(lambda args: (args[0] ** 2, os.getpid()), jobs, workers)
        assert out == [(k * k, os.getpid()) for k in range(5)], workers


def test_scans_start_no_process(monkeypatch):
    # scans computed with fork and pools disabled match scans whose cells run
    # last-to-first, so every cell stands alone and none leaves this process
    def reversed_jobs(fn, args_list, workers=1):
        return [fn(args) for args in reversed(args_list)][::-1]

    runs = []
    for runner in (parallel.run_jobs, reversed_jobs):
        with monkeypatch.context() as m:
            m.setattr(experiments, "run_jobs", runner)
            m.setattr(os, "fork", _no_process, raising=False)
            m.setattr(multiprocessing, "Pool", _no_process)
            runs.append(
                [
                    experiments.kink_scan(SEQ, SCHEDULE, 0.18, X_GRID, (2, 9), anchor=anchor)
                    for anchor in (1.0, -1.05 + 0.1j)
                ]
                + [experiments.gap_scan(SEQ, SCHEDULE, X_GRID, (6, 8))]
            )
    assert runs[0] == runs[1]


def test_workers_default_is_one_whatever_the_cpu_count(monkeypatch):
    # --workers is accepted and ignored; its default no longer follows the host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    parser = cli._build_parser()
    assert parser.parse_args(["perturb", "--base", "const:50"]).workers == 1
    assert parser.parse_args(["pressure", "--seq", "const:50"]).workers == 1
