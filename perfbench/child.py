"""One benchmark child: import fiberdim from the checkout, run `cli.main`, report.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py [--spans PATH] -- <fiberdim arguments>

The last line of standard output is a JSON record.  `ready` is the
`time.perf_counter()` reading once `fiberdim.cli` is imported; the parent
subtracts its own reading taken just before launch to get the set-up time.
With `--spans`, the layers are wrapped by `tracer.install()` before the run
and the spans are written to PATH afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _rusage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MiB) of this process and its reaped workers.

    The own peak is read from VmHWM, which starts afresh at exec.  ru_maxrss
    of RUSAGE_SELF would not: it keeps the high-water mark of the launcher's
    address space, which the child shares until exec when spawned via vfork.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    status = Path("/proc/self/status").read_text()
    hwm_kib = int(status.split("VmHWM:", 1)[1].split()[0])
    return cpu, max(hwm_kib, workers.ru_maxrss) / 1024.0  # both in KiB on Linux


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from fiberdim import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fiberdim imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    ready = time.perf_counter()
    record: dict = {"ready": ready}
    if argv == ["--probe"]:
        print(json.dumps(record))
        return 0

    spans_path = None
    if argv[0] == "--spans":
        spans_path, argv = Path(argv[1]), argv[2:]
    args = argv[1:] if argv[:1] == ["--"] else argv

    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.install(run=f"{spans_path.stem}-{os.getpid()}")
        root = tracer.open("cli.main")
    start = time.perf_counter()
    try:
        code = cli.main(args)
    except Exception:  # the record must say the run failed, not vanish
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
        spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
        record["layers"] = tracing.layer_metrics(tracer.spans)
    cpu, rss = _rusage()
    record.update(code=code, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss)
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
