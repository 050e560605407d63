"""Outside-in span tracing of the fiberdim layers, and the per-layer metrics.

`install()` replaces the public functions of each layer, in every fiberdim
module that holds a reference to them, with wrappers that record spans.
Modules bind imported names at import time, so patching only the defining
module would miss the calls made through `cli`, `pressure` and
`experiments`.  Nothing under `src/` is edited.

A span records a name, start, end, parent span and run id; `start`/`end` come
from `time.perf_counter()`, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the parent and its forked workers.  Spans are kept in
memory and written out by the caller when the run ends.  Jobs fanned out by
`parallel.run_jobs` are timed inside the worker, which returns its spans with
the result; the wrapper unwraps them before the caller sees the result.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass

# Trees at these depths get their own ns/leaf figure (pressure reaches all).
PER_DEPTH = range(18, 24)
LAYERS = ("cli", "sequences", "orbits", "pressure", "boxcount", "parallel", "experiments")

# The tracer that the wrappers and forked job runners record into.  Worker
# processes inherit it through fork, which is why it is module state.
_ACTIVE: "Tracer | None" = None


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    pid: int
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pid = os.getpid()
        self.counter = 0

    def open(self, name: str) -> Span:
        self.counter += 1
        span = Span((self.pid << 32) | self.counter, self.stack[-1] if self.stack else None,
                    name, self.run, self.pid, time.perf_counter())
        self.stack.append(span.id)
        return span

    def close(self, span: Span, attrs: dict | None = None) -> None:
        span.end = time.perf_counter()
        span.attrs = attrs
        self.stack.pop()
        self.spans.append(span)


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    return wrapper


def _wrap_blocks(tracer: Tracer, fn):
    """Time iter_leaf_blocks per next(), so consumer time between yields is excluded."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = signature.bind(*args, **kwargs).arguments.get("n", 1)
        gen = fn(*args, **kwargs)
        first = True
        while True:
            span = tracer.open("orbits.iter_leaf_blocks")
            try:
                _, pts, _ = item = next(gen)
            except StopIteration:
                tracer.close(span, {"depth": depth, "tree": int(first), "leaves": 0})
                return
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, {"depth": depth, "tree": int(first), "leaves": int(pts.size)})
            first = False
            yield item

    return wrapper


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _run_job(fn, parent: int, args):
    """Run one fanned-out job with a fresh span list; return (result, spans)."""
    tracer = _ACTIVE
    saved = tracer.spans, tracer.stack, tracer.pid
    tracer.spans, tracer.stack, tracer.pid = [], [parent], os.getpid()
    try:
        span = tracer.open(f"{_layer_of(fn)}.{fn.__name__}")
        try:
            result = fn(args)
        finally:
            tracer.close(span)
        return result, tracer.spans
    finally:
        tracer.spans, tracer.stack, tracer.pid = saved


def _wrap_run_jobs(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(job_fn, args_list, workers: int = 1):
        args_list = list(args_list)
        span = tracer.open("parallel.run_jobs")
        used = min(workers, len(args_list)) if workers > 1 and len(args_list) > 1 else 1
        try:
            out = fn(functools.partial(_run_job, job_fn, span.id), args_list, workers)
        finally:
            tracer.close(span, {"jobs": len(args_list), "workers": used})
        results = []
        for result, spans in out:
            tracer.spans.extend(spans)
            results.append(result)
        return results

    return wrapper


def _csv_attrs(args, kwargs, result):
    return {"rows": int(args[0].points.size)}


def _curve_attrs(args, kwargs, curve):
    leaves = sum(2 ** int(n) for n in curve.n_values)
    return {"leaf_evals": leaves * int(curve.t_grid.size)}


def _pair_attrs(args, kwargs, pair):
    upper = pair[1]
    lo, hi = upper.window
    # BowenZero.evaluations counts over the window cache both zeros share,
    # so the upper zero carries the total.
    leaves = sum(2 ** n for n in range(lo, hi + 1))
    return {"evaluations": upper.evaluations, "leaf_evals": leaves * upper.evaluations}


def _box_attrs(args, kwargs, report):
    from fiberdim.boxcount import box_dimension

    bound = inspect.signature(box_dimension).bind(*args, **kwargs)
    bound.apply_defaults()
    passes = int(report.epsilons.size) * int(bound.arguments["offsets"])
    return {"points": int(len(bound.arguments["points"])), "passes": passes}


def install(run: str) -> Tracer:
    """Wrap every traced public function in all loaded fiberdim modules."""
    global _ACTIVE
    from fiberdim import boxcount, experiments, orbits, parallel, pressure, sequences

    tracer = Tracer(run)
    _ACTIVE = tracer
    wrappers = {
        sequences.at: _wrap(tracer, "sequences.at", sequences.at),
        orbits.iter_leaf_blocks: _wrap_blocks(tracer, orbits.iter_leaf_blocks),
        orbits.leaf_log_derivs: _wrap(tracer, "orbits.leaf_log_derivs", orbits.leaf_log_derivs),
        orbits.julia_cloud: _wrap(tracer, "orbits.julia_cloud", orbits.julia_cloud),
        orbits.write_cloud_csv: _wrap(tracer, "orbits.write_cloud_csv", orbits.write_cloud_csv,
                                      _csv_attrs),
        pressure.pressure_curve: _wrap(tracer, "pressure.pressure_curve",
                                       pressure.pressure_curve, _curve_attrs),
        pressure.dimension_pair: _wrap(tracer, "pressure.dimension_pair",
                                       pressure.dimension_pair, _pair_attrs),
        pressure.bowen_zero: _wrap(tracer, "pressure.bowen_zero", pressure.bowen_zero),
        boxcount.box_dimension: _wrap(tracer, "boxcount.box_dimension", boxcount.box_dimension,
                                      _box_attrs),
        experiments.kink_scan: _wrap(tracer, "experiments.kink_scan", experiments.kink_scan),
        parallel.run_jobs: _wrap_run_jobs(tracer, parallel.run_jobs),
    }
    for name, module in list(sys.modules.items()):
        if name == "fiberdim" or name.startswith("fiberdim."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    return tracer


# ---------------------------------------------------------------------------
# Span reduction
# ---------------------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _self_intervals(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """The parts of a span's interval that none of its children cover."""
    out, cursor = [], span.start
    for lo, hi in _union([(max(c.start, span.start), min(c.end, span.end)) for c in children]):
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if span.end > cursor:
        out.append((cursor, span.end))
    return out


def _wall_shares(self_parts: list[tuple[str, list]]) -> dict[str, float]:
    """Split wall time among layers; concurrent self intervals share each instant equally."""
    events = []
    for layer, parts in self_parts:
        for lo, hi in parts:
            events.append((lo, 1, layer))
            events.append((hi, -1, layer))
    events.sort(key=lambda e: e[0])
    shares = dict.fromkeys(LAYERS, 0.0)
    active: dict[str, int] = {}
    total, last = 0, None
    for when, delta, layer in events:
        if total and last is not None and when > last:
            for name, count in active.items():
                if count:
                    shares[name] += (when - last) * count / total
        active[layer] = active.get(layer, 0) + delta
        total += delta
        last = when
    return shares


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers it did not reach read 0."""
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    names = {span.id: span.name for span in spans}
    self_time: dict[int, float] = {}
    self_parts = []
    for span in spans:
        parts = _self_intervals(span, children.get(span.id, []))
        self_time[span.id] = sum(hi - lo for lo, hi in parts)
        self_parts.append((span.layer, parts))

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        return sum(s.duration if key is None else (s.attrs or {}).get(key, 0) for s in named(name))

    def self_of(layer):
        return sum(self_time[s.id] for s in spans if s.layer == layer)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    m["orbits.csv_s"] = total("orbits.write_cloud_csv")
    m["orbits.csv_rows"] = total("orbits.write_cloud_csv", "rows")
    m["orbits.us_per_row"] = ratio(m["orbits.csv_s"], m["orbits.csv_rows"], 1e6)

    blocks = [s for s in named("orbits.iter_leaf_blocks") if s.attrs]
    m["orbits.trees"] = sum(s.attrs["tree"] for s in blocks)
    m["orbits.blocks"] = sum(1 for s in blocks if s.attrs["leaves"])
    m["orbits.leaves"] = sum(s.attrs["leaves"] for s in blocks)
    m["orbits.traverse_s"] = total("orbits.iter_leaf_blocks")
    m["orbits.ns_per_leaf"] = ratio(m["orbits.traverse_s"], m["orbits.leaves"], 1e9)
    for depth in PER_DEPTH:
        at_depth = [s for s in blocks if s.attrs["depth"] == depth]
        m[f"orbits.ns_per_leaf.d{depth}"] = ratio(
            sum(s.duration for s in at_depth), sum(s.attrs["leaves"] for s in at_depth), 1e9
        )
    m["orbits.materialize_s"] = sum(
        self_time[s.id] for s in spans if s.name in ("orbits.leaf_log_derivs", "orbits.julia_cloud")
    )

    m["pressure.lse_s"] = self_of("pressure")
    m["pressure.leaf_evals"] = total("pressure.pressure_curve", "leaf_evals") + total(
        "pressure.dimension_pair", "leaf_evals"
    )
    m["pressure.ns_per_leaf_eval"] = ratio(m["pressure.lse_s"], m["pressure.leaf_evals"], 1e9)
    m["pressure.lse_bytes_computed"] = 8 * m["pressure.leaf_evals"]
    m["pressure.evaluations"] = total("pressure.dimension_pair", "evaluations")

    m["boxcount.box_s"] = total("boxcount.box_dimension")
    m["boxcount.points"] = total("boxcount.box_dimension", "points")
    m["boxcount.passes"] = total("boxcount.box_dimension", "passes")
    m["boxcount.ns_per_point_pass"] = ratio(
        m["boxcount.box_s"], m["boxcount.points"] * m["boxcount.passes"], 1e9
    )

    fanouts = named("parallel.run_jobs")
    jobs = [s for f in fanouts for s in children.get(f.id, [])]
    m["parallel.jobs"] = len(jobs)
    m["parallel.run_jobs_s"] = total("parallel.run_jobs")
    m["parallel.busy_s"] = sum(s.duration for s in jobs)
    m["parallel.max_job_s"] = max((s.duration for s in jobs), default=0.0)
    m["parallel.efficiency"] = ratio(
        m["parallel.busy_s"], sum(f.attrs["workers"] * f.duration for f in fanouts if f.attrs)
    )

    # PerturbedSequence evaluates `at` on its base, so count outermost calls only.
    calls = [s for s in named("sequences.at") if names.get(s.parent) != "sequences.at"]
    m["sequences.at_calls"] = len(calls)
    m["sequences.at_s"] = sum(s.duration for s in calls)

    m["experiments.kink_s"] = total("experiments.kink_scan")
    m["experiments.self_s"] = self_of("experiments")

    wall = sum(s.duration for s in children.get(None, []))
    shares = _wall_shares(self_parts)
    m["trace.wall_s"] = wall
    m["trace.unaccounted_s"] = wall - math.fsum(shares.values())
    for layer in LAYERS:
        m[f"share.{layer}_s"] = shares[layer]
    return m
