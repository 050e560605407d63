"""Command-line surface.

Subcommands: julia (leaf cloud CSV), pressure (curve CSV), dimension (Bowen
zeros, optional box-count cross-check), perturb (kink or gap scan CSV),
motion (speed check), verify (invariant suite).  Exit codes: 0 success, 1
invariant failure, 2 usage error (also an output path that cannot be opened).

All floats are printed with 17 significant digits.  A `--config path` file of
key=value lines supplies defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import ExitStack, contextmanager

# one BLAS thread: the only LAPACK call is a 2-column polyfit, and a second thread spins at start-up
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .boxcount import box_dimension, check_sample_size, cloud_ladder, write_boxcount_csv
from .errors import BracketFailure, DepthLimit, SandwichViolation
from .experiments import (
    gap_scan,
    kink_scan,
    motion_speed_check,
    write_gap_csv,
    write_kink_csv,
)
from .orbits import check_depth, distinct_points, julia_cloud, resolution_bound, write_cloud_csv
from .pressure import dimension_pair, pressure_curve, write_pressure_csv, write_roots_csv
from .sequences import parse_complex, parse_schedule, parse_sequence

GRAMMAR = """sequence spec grammar:
  const:50                  constant parameter (complex literals as a+bi)
  periodic:50,60+10i        repeating cycle
  explicit:41,42;tail=50    finite prefix, constant tail
  random:seed=7,min=45,max=80   seeded annulus draws, 40 < min <= |l| <= max
  perturb:base=<spec>;blocks=2x2;x=0.1[;sign=-1]   l_k = exp(x s_k) * base_k
ranges: --n 4:20 and --window 12:20 are inclusive int pairs;
grids:  --t 0:0.4:21 and --x=-0.1:0.1:5 are start:stop:count (inclusive;
use the --flag=value form when the grid starts with a minus sign)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        raise SystemExit(2)


def _int_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None


def _grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if not (math.isfinite(start) and math.isfinite(stop)):  # linspace would warn
            raise argparse.ArgumentTypeError(f"grid ends must be finite, got {text!r}")
        return np.linspace(start, stop, count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}") from None


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout, sys.stderr
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle, sys.stdout


def _apply_config(argv: list[str]) -> list[str]:
    """Splice key=value pairs from a --config file in front of explicit flags.

    The file is named once, as `--config PATH`, `--config=PATH` or an
    abbreviation argparse would also expand (--conf), and names no other.
    """
    flags = [arg.partition("=")[0] for arg in argv]
    spots = [i for i, flag in enumerate(flags) if len(flag) > 2 and "--config".startswith(flag)]
    if not spots:
        return argv
    if len(spots) > 1:
        raise ValueError("--config given more than once")
    idx = spots[0]
    _, inline, path = argv[idx].partition("=")
    if not inline:
        if idx + 1 >= len(argv):
            raise ValueError("--config requires a path")
        path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + (1 if inline else 2) :]
    tokens: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {raw.strip()!r} is not key=value")
            flag = "--" + key.strip().replace("_", "-")
            if len(flag) > 2 and "--config".startswith(flag):  # argparse would drop it unread
                raise ValueError(f"config line {raw.strip()!r} names another config file")
            value = value.strip()
            if value.lower() == "true":
                tokens.append(flag)
            elif value.lower() != "false":
                tokens.extend([flag, value])
    if not rest:
        raise ValueError("--config needs a subcommand")
    return [rest[0]] + tokens + rest[1:]


def _build_parser(command: str | None = None) -> _Parser:
    parser = _Parser(prog="fiberdim", description=__doc__, epilog=GRAMMAR,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # pressure and perturb keep --workers so that existing command lines still parse
    workers_help = "accepted and ignored: every run uses one process"

    def add_parser(name, help, seq_flag="--seq", anchor=True):
        p = sub.add_parser(name, help=help)
        if command not in (None, name):  # only command's arguments (all with None) are built
            return argparse.Namespace(add_argument=lambda *args, **kwargs: None)
        p.add_argument(seq_flag, required=True, help="sequence spec string")
        if anchor:
            p.add_argument("--anchor", type=parse_complex, default=1 + 0j)
        if name not in ("motion", "verify"):  # those two print to stdout only
            p.add_argument("--out", "-o", default=None, help="output CSV path (default stdout)")
        p.add_argument("--config", help="key=value defaults file (flags override)")
        return p

    p = add_parser("julia", "export the depth-n leaf cloud as CSV")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--metric", choices=("planar", "spherical"), default="planar")

    p = add_parser("pressure", "finite-depth pressure matrix a_n(t) as CSV")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--t", type=_grid, default="0:0.4:21")
    p.add_argument("--n", type=_int_pair, default="4:20")
    p.add_argument("--window", type=_int_pair, default=None)
    p.add_argument("--metric", choices=("planar", "spherical"), default="planar")

    p = add_parser("dimension", "windowed Bowen zeros, optional box-count check")
    p.add_argument("--window", type=_int_pair, default=(12, 20))
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--metric", choices=("planar", "spherical"), default="planar")
    p.add_argument("--box-check", action="store_true")
    p.add_argument("--box-depth", type=int, default=18)
    p.add_argument("--box-out", default=None, help="optional eps,count CSV path")

    p = add_parser("perturb", "kink or gap scan over a symmetric x grid", "--base")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--blocks", default="2x2", help="sign schedule AxB")
    p.add_argument("--sign", type=int, default=1, choices=(-1, 1))
    p.add_argument("--x", type=_grid, default="-0.1:0.1:5")
    p.add_argument("--t", type=float, default=0.18)
    p.add_argument("--window", type=_int_pair, default=(2, 18))
    p.add_argument("--mode", choices=("kink", "gap"), default="kink")
    p.add_argument("--tol", type=float, default=None, help="gap mode only (default 1e-4)")

    p = add_parser("motion", "leaf displacement and modulus-ratio bounds", "--base")
    p.add_argument("--blocks", default="2x2")
    p.add_argument("--sign", type=int, default=1, choices=(-1, 1))
    p.add_argument("--x", type=float, default=0.05)
    p.add_argument("--depth", type=int, default=18)

    p = add_parser("verify", "run the bundled invariant suite", anchor=False)  # from anchor 1
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_julia(args) -> int:
    cloud = julia_cloud(parse_sequence(args.seq), args.depth, args.anchor, metric=args.metric)
    with _open_out(args.out) as (csv_out, info):
        write_cloud_csv(cloud, csv_out)
        print(
            f"julia cloud: {cloud.points.size} leaves at depth {cloud.depth}, "
            f"resolution bound {cloud.resolution:.17g}",
            file=info,
        )
    return 0


def _cmd_pressure(args) -> int:
    curve = pressure_curve(
        parse_sequence(args.seq),
        args.t,
        args.n,
        anchor=args.anchor,
        metric=args.metric,
        window=args.window,
    )
    with _open_out(args.out) as (csv_out, info):
        write_pressure_csv(curve, csv_out)
        w = curve.window
        print(
            f"pressure: n in [{curve.n_values[0]}, {curve.n_values[-1]}], "
            f"window {w[0]}:{w[1]}, {curve.t_grid.size} t values",
            file=info,
        )
    return 0


def _box_report(seq, depth, anchor):
    points = distinct_points(seq, depth, anchor)
    resolution = resolution_bound(seq, depth)
    return box_dimension(
        points, cloud_ladder(resolution), min_scale=resolution, leaves=2**depth
    )


def _cmd_dimension(args) -> int:
    if args.box_out and not args.box_check:
        raise ValueError("--box-out needs --box-check")
    seq = parse_sequence(args.seq)
    if args.box_check:  # a bad --box-depth is rejected before any work
        check_depth(args.box_depth)
        check_sample_size(2**args.box_depth)
    lower, upper = dimension_pair(
        seq, args.window, args.tol, anchor=args.anchor, metric=args.metric
    )
    # Counted after the roots, so the window cache (the memory peak) starts from
    # a clean heap: counted first, the count's freed arrays made peak RSS flip
    # by ~4 MiB with the heap layout, down to the length of the checkout path.
    report = _box_report(seq, args.box_depth, args.anchor) if args.box_check else None
    # --box-out is opened first, so that a bad path leaves no roots CSV, and removed if -o fails
    with ExitStack() as files:
        box_out = None
        if args.box_out:
            box_out = files.enter_context(open(args.box_out, "w", encoding="utf-8", newline="\n"))
        try:
            csv_out, info = files.enter_context(_open_out(args.out))
        except OSError:
            if box_out is not None and os.path.isfile(args.box_out):  # not a device
                os.remove(args.box_out)
            raise
        write_roots_csv([lower, upper], csv_out)
        print(
            f"dimension: h_lower {lower.t_star:.17g} (+-{lower.uncertainty:.3g}), "
            f"h_upper {upper.t_star:.17g}, bracket [{lower.bracket[0]:.6g}, {lower.bracket[1]:.6g}]",
            file=info,
        )
        if report is not None:
            agreement = abs(report.slope - lower.t_star)
            print(
                f"box-check: slope {report.slope:.17g} vs h_lower {lower.t_star:.17g} "
                f"(|diff| = {agreement:.6g}, fit residual {report.residual:.3g})",
                file=info,
            )
            if box_out is not None:
                write_boxcount_csv(report, box_out)
    return 0


def _cmd_perturb(args) -> int:
    if args.mode == "kink" and args.tol is not None:
        raise ValueError("--tol needs --mode gap")
    base = parse_sequence(args.base)
    schedule = parse_schedule(args.blocks, args.sign)
    if args.mode == "kink":
        scan = kink_scan(base, schedule, args.t, args.x, args.window, anchor=args.anchor)
        writer = write_kink_csv
    else:
        tol = 1e-4 if args.tol is None else args.tol
        scan = gap_scan(base, schedule, args.x, args.window, tol, anchor=args.anchor)
        writer = write_gap_csv
    with _open_out(args.out) as (csv_out, info):
        writer(scan, csv_out)
        print(scan.summary(), file=info)
    return 0 if scan.passed() else 1


def _cmd_motion(args) -> int:
    base = parse_sequence(args.base)
    schedule = parse_schedule(args.blocks, args.sign)
    report = motion_speed_check(base, schedule, args.x, args.depth, anchor=args.anchor)
    print(report.summary())
    return 0 if report.passed() else 1


def _cmd_verify(args) -> int:
    from .verification import run_all  # only verify compiles the suite and transfer

    results = run_all(parse_sequence(args.seq), depth=args.depth, tol=args.tol, seed=args.seed)
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"verify: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "julia": _cmd_julia,
    "pressure": _cmd_pressure,
    "dimension": _cmd_dimension,
    "perturb": _cmd_perturb,
    "motion": _cmd_motion,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 2
    try:
        args = _build_parser(argv[0] if argv else "").parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DepthLimit, ValueError) as exc:  # InvalidSpec, ResolutionError, ... are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketFailure, SandwichViolation) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
