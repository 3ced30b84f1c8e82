"""In-memory span recorder for the traced run.

Spans are recorded only by the benchmark's own wrappers around public
calls of the program (:func:`wrap`); the program itself is untouched.
Each span keeps its name, stack layer, start, end, parent span and the
id of the unit of work it belongs to (one flit pair, one grid task, one
request or batch).  Parent and unit travel in ``contextvars``, so they
follow the serve batcher into its executor thread, which runs each
forward under a copy of the batcher's context.

Nothing is written until :meth:`Tracer.write`, which emits Perfetto
(Chrome trace-event) JSON and a self-time table.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

_parent: ContextVar[int | None] = ContextVar("nocbench_parent", default=None)
_unit: ContextVar[object] = ContextVar("nocbench_unit", default=None)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    unit: object
    thread: int
    args: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Collects :class:`Span` records; thread-safe appends.

    While ``enabled`` is false, :meth:`span` records nothing, so a run can
    alternate traced and untraced units to measure the tracing overhead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.t0 = time.perf_counter()
        #: closed ``(start, end)`` windows during which recording was on
        self.windows: list[tuple[float, float]] = []
        self._on_since: float | None = self.t0

    @property
    def enabled(self) -> bool:
        return self._on_since is not None

    @enabled.setter
    def enabled(self, on: bool) -> None:
        now = time.perf_counter()
        if on and self._on_since is None:
            self._on_since = now
        elif not on and self._on_since is not None:
            self.windows.append((self._on_since, now))
            self._on_since = None

    @contextmanager
    def span(self, name: str, layer: str, **args):
        if not self.enabled:
            yield
            return
        sid = next(self._ids)
        parent = _parent.get()
        token = _parent.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _parent.reset(token)
            record = Span(
                sid, parent, name, layer, start, end, _unit.get(),
                threading.get_ident(), args,
            )
            with self._lock:
                self.spans.append(record)

    # -- analysis ----------------------------------------------------------
    def self_times(self, spans: list[Span] | None = None) -> dict[tuple[str, str], dict]:
        """``(layer, name) -> {count, total_s, self_s}`` over ``spans`` (all by
        default); self time is the span's duration minus the part of it its
        children cover."""
        spans = self.spans if spans is None else spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        table: dict[tuple[str, str], dict] = {}
        for s in spans:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, [])]
            covered = _union_length([k for k in kids if k[1] > k[0]])
            row = table.setdefault((s.layer, s.name), {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.dur
            row["self_s"] += s.dur - covered
        return table

    def coverage(self, start: float, end: float) -> float:
        """Share of the recording windows within ``[start, end]`` that lies
        under at least one span."""
        windows = self.windows + ([(self._on_since, end)] if self.enabled else [])
        windows = [(max(a, start), min(b, end)) for a, b in windows]
        windows = [w for w in windows if w[1] > w[0]]
        covered = 0.0
        for a, b in windows:
            clipped = [(max(s.start, a), min(s.end, b)) for s in self.spans]
            covered += _union_length([c for c in clipped if c[1] > c[0]])
        return covered / sum(b - a for a, b in windows)

    # -- output ------------------------------------------------------------
    def write(self, out_dir: Path) -> tuple[Path, Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - self.t0) * 1e6,
                "dur": s.dur * 1e6,
                "pid": 1,
                "tid": threads[s.thread],
                "args": {"id": s.id, "parent": s.parent, "unit": repr(s.unit), **s.args},
            }
            for s in self.spans
        ]
        trace_path = out_dir / "trace.json"
        trace_path.write_text(json.dumps({"traceEvents": events}))
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1]["self_s"])
        lines = [f"{'layer':<10} {'span':<44} {'count':>7} {'total_s':>10} {'self_s':>10}"]
        lines += [
            f"{layer:<10} {name:<44} {r['count']:>7} {r['total_s']:>10.4f} {r['self_s']:>10.4f}"
            for (layer, name), r in rows
        ]
        table_path = out_dir / "selftime.txt"
        table_path.write_text("\n".join(lines) + "\n")
        return trace_path, table_path


@contextmanager
def unit(uid):
    """Mark the enclosed work as belonging to unit ``uid``."""
    token = _unit.set(uid)
    try:
        yield
    finally:
        _unit.reset(token)


def wrap(obj, attr: str, tracer: Tracer, layer: str, name: str | None = None, args=None):
    """Shadow ``obj.attr`` with a traced instance attribute.

    ``args`` is either a dict of span arguments or a callable mapping the
    call's arguments to one.
    """
    fn = getattr(obj, attr)
    span_name = name or f"{type(obj).__name__}.{attr}"

    @functools.wraps(fn)
    def traced(*a, **kw):
        extra = args(*a, **kw) if callable(args) else (args or {})
        with tracer.span(span_name, layer, **extra):
            return fn(*a, **kw)

    setattr(obj, attr, traced)
    return fn


def span(tracer: Tracer | None, name: str, layer: str, **args):
    """``tracer.span(...)``, or a no-op context without a tracer."""
    return nullcontext() if tracer is None else tracer.span(name, layer, **args)
