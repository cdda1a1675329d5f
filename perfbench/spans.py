"""In-memory span tracer that times unipol's layers from outside the package.

The tracer replaces module attributes that unipol's own code looks up at call
time (``solver.minimize_batch``, ``baselines._can_step``, ...) with timing
wrappers, so ``src/unipol`` stays untouched. Each wrapped call records one
span: name, start, end, parent span, thread id and the CPU time its thread
spent inside it. Spans stay in memory until the run ends, when ``dump``
writes them out and ``layer_metrics`` reduces them to per-layer self time,
call counts and shares.

A span's self time is its duration minus the part of that interval its child
spans cover (the union of the child intervals, so overlapping children in
worker threads are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

LAYERS = ("metrics", "surrogate", "quartic", "solver", "baselines", "io", "cli", "bench")


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    cpu: float  # time.thread_time() spent inside the span, on its own thread
    attrs: Optional[dict]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from wrapped callables; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Parent for spans opened on a worker thread with no span of its own
        # (bench trials run on pool threads on behalf of run_bench).
        self._fanout_parent: Optional[int] = None
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None, fanout: bool = False):
        """Return fn wrapped in a span; attrs(args, result) may add counters to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fanout_parent
            sid = next(tracer._ids)
            stack.append(sid)
            if fanout:
                tracer._fanout_parent = sid
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                if fanout:
                    tracer._fanout_parent = None
            # Counters are taken after the clock stops; their cost lands in the
            # parent's self time and in the reported tracing overhead.
            extra = attrs(args, result) if attrs is not None else None
            tracer.spans.append(Span(sid, parent, name, start, end, threading.get_ident(), cpu, extra))
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, key: str, name: str, attrs=None, fanout: bool = False) -> None:
        """Wrap owner.key (or owner[key] for a dict) in place; uninstall() puts it back."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        wrapped = self.wrap(name, original, attrs, fanout)
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._undo.append((owner, key, original, is_dict))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s._asdict() for s in self.spans], fh)


def _roots_attrs(args, roots):
    return {"rows": int(roots.shape[0]), "real_roots": int(np.count_nonzero(~np.isnan(roots)))}


def _surrogate_attrs(args, ab):
    return {"rows": int(ab[0].size)}


def _minimize_attrs(args, theta):
    return {"rows": int(theta.size), "pi_picks": int(np.count_nonzero(theta == np.pi))}


def _write_attrs(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer, unipol) -> None:
    """Patch every layer boundary the workloads cross; see README for the span names."""
    solver, baselines, quartic = unipol.solver, unipol.baselines, unipol.quartic
    metrics, io, cli, bench = unipol.metrics, unipol.io, unipol.cli, unipol.bench
    p = tracer.patch
    # entry points, under every name a caller looks them up by
    for owner in (unipol, solver, cli):
        p(owner, "run", "solver.run")
    for owner in (unipol, baselines, cli):
        p(owner, "can_run", "baselines.can_run")
    p(bench._RUNNERS, "unipol", "solver.run")
    p(bench._RUNNERS, "can", "baselines.can_run")
    p(cli, "main", "cli.main")
    p(bench, "run_bench", "bench.run_bench", fanout=True)
    p(bench, "_one_trial", "bench.trial")
    # solver and baselines
    p(solver, "_run_loop", "solver.loop")
    p(baselines, "_run_loop", "solver.loop")
    p(solver, "unipol_step", "solver.step")
    p(baselines, "_can_step", "baselines.can_step")
    # surrogate and quartic
    p(solver, "ab_all_fast", "surrogate.ab_all_fast", _surrogate_attrs)
    p(solver, "minimize_batch", "quartic.minimize_batch", _minimize_attrs)
    p(quartic, "_real_roots_batch", "quartic.roots", _roots_attrs)
    # metrics
    for owner in (metrics, solver, cli):
        p(owner, "isl_time", "metrics.isl_time")
    p(io, "psl", "metrics.psl")
    p(io, "merit_factor", "metrics.merit_factor")
    p(metrics.UnimodularSequence, "__post_init__", "metrics.sequence_new")
    # io
    p(io, "run_record_dict", "io.record")
    p(io, "write_run_record", "io.write", _write_attrs)
    p(io, "write_sequence_file", "io.write", _write_attrs)
    p(io, "read_run_record", "io.read")
    p(io, "read_sequence_file", "io.read")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json (zeros where unused)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return float(sum(selfs[s.id] for s in by_name[name]))

    def calls(name):
        return len(by_name[name])

    def ms_p50(name):
        """Median duration of the calls at the run's largest N (its primary cell),
        so a workload mixing sizes does not report a median between them."""
        rows = [(s.attrs or {}).get("rows", 0) for s in by_name[name]]
        if not rows:
            return 0.0
        top = max(rows)
        durations = [s.end - s.start for s, r in zip(by_name[name], rows) if r == top]
        return 1e3 * float(np.median(durations))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    total_self = sum(layer_self.values())

    def share(value):
        return value / total_self if total_self > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = share(layer_self[layer])

    mb = "quartic.minimize_batch"
    rows = attr_sum(mb, "rows")
    root_rows = attr_sum("quartic.roots", "rows")
    m[f"{mb}.calls"] = calls(mb)
    m[f"{mb}.rows"] = rows
    m[f"{mb}.self_s"] = self_s(mb)
    m[f"{mb}.ms_p50"] = ms_p50(mb)
    m["quartic.roots.self_s"] = self_s("quartic.roots")
    # minimize_batch minus its root call; equals minimize_batch.self_s while the
    # root call is the only wrapped child.
    m["quartic.select.self_s"] = float(
        sum(s.end - s.start for s in by_name[mb]) - sum(s.end - s.start for s in by_name["quartic.roots"])
    )
    m["quartic.pi_picks"] = attr_sum(mb, "pi_picks")
    m["quartic.real_roots_per_row"] = (
        attr_sum("quartic.roots", "real_roots") / root_rows if root_rows else 0.0
    )

    m["surrogate.ab_all_fast.calls"] = calls("surrogate.ab_all_fast")
    m["surrogate.ab_all_fast.self_s"] = self_s("surrogate.ab_all_fast")
    m["surrogate.ab_all_fast.ms_p50"] = ms_p50("surrogate.ab_all_fast")

    m["metrics.isl_time.calls"] = calls("metrics.isl_time")
    m["metrics.isl_time.self_s"] = self_s("metrics.isl_time")
    m["metrics.isl_time.share"] = share(m["metrics.isl_time.self_s"])
    m["metrics.sequence_new.self_s"] = self_s("metrics.sequence_new")

    m["solver.loop.self_s"] = self_s("solver.loop")
    m["solver.step.self_s"] = self_s("solver.step")

    m["baselines.can_step.calls"] = calls("baselines.can_step")
    m["baselines.can_step.self_s"] = self_s("baselines.can_step")
    m["baselines.can_step.share"] = share(m["baselines.can_step.self_s"])

    m["io.write_s"] = sum(s.end - s.start for s in by_name["io.write"])
    m["io.read_s"] = sum(s.end - s.start for s in by_name["io.read"])
    m["io.bytes_written"] = attr_sum("io.write", "bytes")
    m["cli.main.self_s"] = self_s("cli.main")

    m["bench.trial_queue_wait_s"] = _median_dispatch_gap(by_name["bench.run_bench"], by_name["bench.trial"])
    # CPU time, not open intervals: two pool threads that take turns on the GIL
    # both hold a trial span open, but only one of them is on a core at a time.
    busy = sum(s.cpu for s in by_name["bench.trial"])
    wall = sum(s.end - s.start for s in by_name["bench.run_bench"])
    m["bench.concurrency"] = busy / wall if wall > 0 else 0.0
    return m


def _median_dispatch_gap(batches: list[Span], trials: list[Span]) -> float:
    """Median time from a pool worker becoming free (run_bench starting, or
    the worker's previous trial ending) to its next trial starting."""
    batch_start = {b.id: b.start for b in batches}
    free_at = {}  # (batch, thread) -> end of that worker's last trial
    gaps = []
    for t in sorted(trials, key=lambda s: s.start):
        if t.parent not in batch_start:
            continue
        worker = (t.parent, t.thread)
        gaps.append(t.start - free_at.get(worker, batch_start[t.parent]))
        free_at[worker] = t.end
    return float(np.median(gaps)) if gaps else 0.0
