"""Span recording around the package's public entry points, and the
per-layer metrics derived from the spans.

The recorder wraps module attributes where the callers look them up (for
example ``lsvd.pipeline.propagator``, which ``time_points`` calls through
its module globals), so a traced run executes exactly the code path of an
untraced one.  Nothing inside the package is modified on disk.

A span is ``(id, name, start, end, parent, thread, attrs)``.  Spans live
in memory and are handed back once the run ends.  A span opened on a
thread with no open span of its own (a pool worker) takes the innermost
open span of the installing thread as its parent, which is where the
pool was entered.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

#: (module, attribute, span name) for every wrapped entry point.  Both the
#: pipeline's and the circuit module's ``apply_circuit`` are wrapped: the
#: pipeline applies each circuit once, the verification in
#: ``build_svd_circuit`` applies it again to its probe states.
ENTRY_POINTS = (
    ("lsvd.cli", "rpm_model", "models.rpm_model"),
    ("lsvd.models", "rpm_model", "models.rpm_model"),
    ("lsvd.cli", "fmo_model", "models.fmo_model"),
    ("lsvd.cli", "theta_sweep", "models.theta_sweep"),
    ("lsvd.cli", "quantum_evolve", "pipeline.quantum_evolve"),
    ("lsvd.models", "quantum_evolve", "pipeline.quantum_evolve"),
    ("lsvd.pipeline", "time_points", "pipeline.time_points"),
    ("lsvd.pipeline", "readout", "pipeline.readout"),
    ("lsvd.pipeline", "build_superoperator", "lindblad.build_superoperator"),
    ("lsvd.pipeline", "propagator", "lindblad.propagator"),
    ("lsvd.lindblad", "expm", "numerics.expm"),
    ("lsvd.pipeline", "pad_to_power_of_two", "dilation.pad"),
    ("lsvd.pipeline", "decompose", "dilation.decompose"),
    ("lsvd.dilation", "svd", "numerics.svd"),
    ("lsvd.circuit", "dilate", "dilation.dilate"),
    ("lsvd.pipeline", "build_svd_circuit", "circuit.build"),
    ("lsvd.pipeline", "apply_circuit", "circuit.apply"),
    ("lsvd.circuit", "apply_circuit", "circuit.apply"),
    ("lsvd.pipeline", "sample", "sampler.sample"),
    ("lsvd.pipeline", "estimate_populations", "sampler.estimate"),
)

#: Span opened by the benchmark's child process around ``lsvd.cli.main``.
CLI_SPAN = "cli.main"

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MB = 1024.0 * 1024.0


def current_rss_bytes() -> int:
    """Resident set size of this process now (not its peak)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES


def _svd_attrs(args, kwargs, result) -> dict:
    matrix = args[0] if args else kwargs.get("a")
    return {"n": int(getattr(matrix, "shape", (0,))[0])}


def _sample_attrs(args, kwargs, result) -> dict:
    return {
        "shots": int(getattr(result, "shots", 0)),
        "postselected": int(getattr(result, "postselected_shots", 0)),
    }


#: Extra values read from a call's arguments or result, per span name.
_ATTRS = {"numerics.svd": _svd_attrs, "sampler.sample": _sample_attrs}
#: Span names that record resident memory at entry and exit.
_RSS_SPANS = frozenset({"pipeline.time_points"})


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.thread, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row[:6], attrs=dict(row[6]))


class Recorder:
    """Collects spans from wrapped callables, across threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records one span."""
        attrs_of = _ATTRS.get(name)
        track_rss = name in _RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            rss0 = current_rss_bytes() if track_rss else 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else {}
                if track_rss:
                    attrs["rss_growth"] = current_rss_bytes() - rss0
                self.spans.append(Span(span_id, name, start, end, parent, thread, attrs))

        return wrapper

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every listed module attribute; note the ones that are absent."""
        for module_name, attr, name in entry_points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, name))


# --- arithmetic over recorded spans -----------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def _percentile_ms(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their benchmark names.

    Entry points that were never called, or are missing from the package,
    report zero calls and zero time.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    time_points = by_name.get("pipeline.time_points", [])
    tp_ids = {s.id for s in time_points}
    tp_wall = busy("pipeline.time_points")
    tp_child_busy = sum(s.duration for s in spans if s.parent in tp_ids)
    shots = attr_sum("sampler.sample", "shots")

    return {
        "cli.self_s": self_s(CLI_SPAN),
        "models.rpm_model.calls": calls("models.rpm_model"),
        "models.rpm_model.busy_s": busy("models.rpm_model"),
        "lindblad.build_superoperator.calls": calls("lindblad.build_superoperator"),
        "lindblad.build_superoperator.busy_s": busy("lindblad.build_superoperator"),
        "lindblad.propagator.calls": calls("lindblad.propagator"),
        "lindblad.propagator.self_s": self_s("lindblad.propagator"),
        "numerics.expm.calls": calls("numerics.expm"),
        "numerics.expm.busy_s": busy("numerics.expm"),
        "numerics.expm.ms_p50": _percentile_ms(durations("numerics.expm"), 50),
        "numerics.expm.ms_p95": _percentile_ms(durations("numerics.expm"), 95),
        "numerics.svd.calls": calls("numerics.svd"),
        "numerics.svd.busy_s": busy("numerics.svd"),
        "numerics.svd.ms_p50": _percentile_ms(durations("numerics.svd"), 50),
        "numerics.svd.ms_p95": _percentile_ms(durations("numerics.svd"), 95),
        "numerics.svd.dim_cubed_sum": float(
            sum(s.attrs.get("n", 0) ** 3 for s in by_name.get("numerics.svd", ()))
        ),
        "dilation.pad.busy_s": busy("dilation.pad"),
        "dilation.decompose.self_s": self_s("dilation.decompose"),
        "dilation.dilate.busy_s": busy("dilation.dilate"),
        "circuit.build.calls": calls("circuit.build"),
        "circuit.build.self_s": self_s("circuit.build"),
        "circuit.apply.calls": calls("circuit.apply"),
        "circuit.apply.busy_s": busy("circuit.apply"),
        "pipeline.time_points.wall_s": tp_wall,
        "pipeline.self_s": sum(
            selfs[s.id] for s in spans if s.name.startswith("pipeline.")
        ),
        "pipeline.readout.busy_s": busy("pipeline.readout"),
        "pipeline.parallel_eff": tp_child_busy / (workers * tp_wall) if tp_wall > 0 else 0.0,
        # median over calls, so one-off buffers of the first call (BLAS
        # workspace) do not count on the sweep's 201 one-point calls
        "pipeline.rss_growth_mb": statistics.median(
            [s.attrs.get("rss_growth", 0) for s in time_points] or [0]
        )
        / _MB,
        "sampler.sample.calls": calls("sampler.sample"),
        "sampler.sample.busy_s": busy("sampler.sample"),
        "sampler.estimate.busy_s": busy("sampler.estimate"),
        "sampler.postselect_ratio": (
            attr_sum("sampler.sample", "postselected") / shots if shots else 0.0
        ),
    }
