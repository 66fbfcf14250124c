"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the library's public functions by
wrapping those functions in every ``fusehash`` module namespace that binds
them (``from .kernel import apply_kernel`` binds ``apply_kernel`` in
``training`` and ``encoding`` as well as in ``kernel``). The library source is
never edited; :meth:`SpanRecorder.tracing` removes every wrapper on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call into a traced function."""

    name: str  # "<module>.<function>", e.g. "kernel.apply_kernel"
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder, if any
    op: str | None  # operation id the call served, e.g. "setup-0" or "op-17"
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def read_spans(path) -> list[Span]:
    """Spans as :meth:`SpanRecorder.write` wrote them."""
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)["spans"]
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["op"], r["counts"]) for r in rows]


class SpanRecorder:
    """Keeps spans in memory; the caller sets ``op`` before each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._open: list[int] = []

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, targets: dict):
        """Wrap each target function wherever a ``fusehash`` module binds it.

        ``targets`` maps an original function to an optional counter,
        ``counter(args, kwargs, result) -> dict``, whose counts are stored on
        the span. All original bindings are restored on exit.
        """
        wrappers = {
            id(fn): self._wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", counter)
            for fn, counter in targets.items()
        }
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "fusehash" and not mod_name.startswith("fusehash."):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def extend(self, spans: list[Span]) -> None:
        """Append spans recorded elsewhere (by a child process), keeping their tree."""
        offset = len(self.spans)
        for span in spans:
            if span.parent is not None:
                span.parent += offset
            self.spans.append(span)

    def write(self, path) -> None:
        """Write every span, with its self time, as one JSON document."""
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self": own,
                "parent": s.parent,
                "op": s.op,
                "counts": s.counts,
            }
            for s, own in zip(self.spans, self_times(self.spans))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
