"""Spans recorded from outside the program, by wrapping the names it looks up.

A layer is traced by replacing a module attribute that its caller reads at
call time (``cloudtrack.association.crop_frame``, say) with a wrapper that
records a span and then forwards the arguments, the return value and any
exception unchanged.  A name that does not exist is skipped, so the benchmark
keeps running when a refactor deletes or renames a function.

Spans are kept in memory in call order; each knows the span that was open
when it started.  The benchmark pins ``--threads 1``, so every wrapped call
happens on the thread that runs the CLI and one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    notes: dict = field(default_factory=dict)  # counts an observer read off


class Tracer:
    """Installs timing wrappers and collects their spans and counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.observer_failures: dict[str, int] = {}
        self.installed: list[str] = []
        self.skipped: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, observe=None):
        """A wrapper around fn that records a span named name.

        observe(args, kwargs, result) runs after fn has returned, outside
        the span, and returns a dict of counts that becomes the span's notes.
        It only reads its arguments; when the program's data shapes change
        and it cannot, the failure is counted and the call's result is still
        returned unchanged.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observe is not None:
                try:
                    span.notes = observe(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    self.observer_failures[name] = (
                        self.observer_failures.get(name, 0) + 1
                    )
            return result

        return traced

    def install(self, module_name: str, attr: str, name: str, observe=None) -> bool:
        """Wrap module_name.attr in place; False when it does not exist."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.skipped.append(f"{module_name}.{attr}")
            return False
        setattr(module, attr, self.wrap(original, name, observe))
        self._saved.append((module, attr, original))
        self.installed.append(f"{module_name}.{attr}")
        return True

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading the spans -------------------------------------------------

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span.end - span.start

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                out.setdefault(span.parent, []).append(index)
        return out

    def self_time(self, index: int, children: dict[int, list[int]]) -> float:
        """Duration minus the part covered by direct child spans."""
        return self.duration(index) - sum(
            self.duration(child) for child in children.get(index, ())
        )

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def select(self, name: str, under: str | None = None) -> list[int]:
        """Indices of spans called name, optionally only those inside under."""
        return [
            i for i, span in enumerate(self.spans)
            if span.name == name and (under is None or self.has_ancestor(i, under))
        ]
