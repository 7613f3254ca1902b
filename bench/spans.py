"""In-memory span recorder for the benchmark's traced pass.

A span is one call into a public function of a cpda layer module: its name
(``<layer>.<function>``), start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started (its parent, -1 at the top)
and the run id of the pass that recorded it. Spans stay in memory and are
written out once, when the benchmark ends.

The spans are recorded from the benchmark's side: ``instrument`` swaps every
public module-level function of the layer modules for a timing wrapper,
wherever a ``cpda`` module binds it, and puts the originals back afterwards.
Nothing under ``src/`` changes, and calls the package makes to itself (for
example ``simulate()`` calling ``place``) are recorded as child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

LAYERS = ("construct", "model", "validate", "simulate", "analysis", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``keep`` names spans whose return values are collected."""

    def __init__(self, keep: tuple[str, ...] = ()) -> None:
        self.spans: list[Span] = []
        self.kept: list[tuple[str, Any]] = []
        self.keep = frozenset(keep)
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        # placeholder keeps the index stable while children are appended
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in self.keep:
                self.kept.append((name, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run_id": s.run_id}) + "\n")


def outermost_total(tracer: Tracer, names: frozenset[str], run_id: int) -> float:
    """Summed duration of spans in ``names``, skipping those nested in another of ``names``."""
    total = 0.0
    for s in tracer.spans:
        if s.run_id != run_id or s.name not in names:
            continue
        p = s.parent
        while p >= 0 and tracer.spans[p].name not in names:
            p = tracer.spans[p].parent
        if p < 0:
            total += s.duration
    return total


def public_functions(module: Any) -> dict[str, Callable[..., Any]]:
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every call to a public layer function through ``tracer`` while active."""
    wrapped: dict[Callable[..., Any], Callable[..., Any]] = {}
    for layer in LAYERS:
        module = sys.modules[f"cpda.{layer}"]
        for name, fn in public_functions(module).items():
            wrapped[fn] = tracer.wrap(f"{layer}.{name}", fn)
    patched: list[tuple[Any, str, Callable[..., Any]]] = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "cpda" and not modname.startswith("cpda."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    patched.append((module, attr, value))
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
