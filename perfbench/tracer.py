"""Span tracer that wraps heartbn's public functions from outside the program.

A traced function is replaced by a wrapper at every binding that refers to
it: in the module that defines it, in the package namespace and in every
heartbn module that imported it by name (``heartbn.evaluation.classify``,
``heartbn.learn.count_table``, ...).  Calls through any of those names are
recorded; calls through a reference captured before installation are not.

Spans are kept in memory, one per call, with the id of the enclosing span,
and can be written out as gzipped JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "heartbn"
TRACED_MODULES = (
    "dataset", "core", "learn", "inference", "naive_bayes", "evaluation", "model_io", "cli",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    error: str | None = None
    note: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function.

    ``notes`` maps a traced name to a function of the call's return value;
    its result is stored on the span (for instance the number of edges a
    structure learner returned).
    """

    def __init__(
        self,
        notes: dict[str, Callable] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._notes = notes or {}
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self._clock
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                value = note(result) if note is not None and error is None else None
                spans.append(Span(span_id, parent, name, start, end, error, value))

        return traced

    def install(self) -> list[str]:
        """Wrap every public function of TRACED_MODULES; return the traced names."""
        wrappers = {}
        names = []
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue  # a removed module: its metrics are reported absent
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                    names.append(f"{short}.{attr}")
        loaded = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        return sorted(names)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Spans from one thread nest properly, so the children of a span cover
    disjoint parts of its interval.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per traced name: call count, total time, self time and errors raised."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += own[s.id]
        if s.error is not None:
            entry["errors"][s.error] = entry["errors"].get(s.error, 0) + 1
    return out


def under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        above = by_id.get(s.parent)
        while above is not None and above.name != ancestor:
            above = by_id.get(above.parent)
        count += above is not None
    return count


FIELDS = ("id", "parent", "name", "start", "end", "error", "note")


def write_jsonl(spans: list[Span], path) -> None:
    """Gzipped JSON lines: a header naming the fields, then one array per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": FIELDS}) + "\n")
        for s in spans:
            fh.write(json.dumps([getattr(s, f) for f in FIELDS]) + "\n")
