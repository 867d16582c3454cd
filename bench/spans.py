"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces chosen public functions of losanova's modules
with timing or counting wrappers, in every module of the package that
refers to them (``losanova.anova.ols_fit`` as well as
``losanova.cli.ols_fit``), so calls from one layer into another nest as
child spans. ``Tracer.remove`` puts the original functions back.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "losanova"


@dataclass
class Span:
    name: str
    op: str  # the benchmark operation the span belongs to
    start: float
    end: float = 0.0
    child_s: float = 0.0
    parent: "Span | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def within(self, names: set[str]) -> bool:
        """Whether an enclosing span has one of the names."""
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self, timed: dict[str, list[str]], counted: dict[str, list[str]]):
        self.timed = timed  # module -> functions recorded as spans
        self.counted = counted  # module -> functions whose calls are counted only
        self.spans: list[Span] = []
        self.counts: Counter[tuple[str, str]] = Counter()  # (op, name) -> n
        self._stack: list[Span] = []
        self._op = ""
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, op: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is not None:
            self._op = op
        span = Span(name, self._op, time.perf_counter(), parent=parent)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def operation(self, kind: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span of kind ``kind``."""
        span = self.begin(f"op.{kind}", op=kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        replace = {}
        for kinds, make in ((self.timed, self._timed), (self.counted, self._counted)):
            for module, names in kinds.items():
                mod = sys.modules[f"{PACKAGE}.{module}"]
                for name in names:
                    fn = getattr(mod, name)
                    replace[id(fn)] = make(f"{module}.{name}", fn)
        self._on_call(replace)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _on_call(self, replace: dict) -> None:
        """Counters that read a call's arguments."""
        fit = sys.modules[f"{PACKAGE}.linmod"].ols_fit
        inner = replace[id(fit)]

        def ols_fit(X, *args, **kwargs):
            self.counts[self._op, "linmod.qr_rows"] += X.n_rows
            return inner(X, *args, **kwargs)
        replace[id(fit)] = ols_fit

    def remove(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    # -- reading -----------------------------------------------------------

    def calls(self, op: str, names: tuple[str, ...]) -> int:
        """Calls of the named functions, whether timed or counted."""
        spans = sum(1 for s in self.spans if s.op == op and s.name in names)
        return spans + sum(self.counts[op, name] for name in names)

    def total_s(self, op: str, names: tuple[str, ...]) -> float:
        """Wall time inside any of the named spans, nested calls counted once."""
        wanted = set(names)
        return sum(
            s.duration for s in self.spans
            if s.op == op and s.name in wanted and not s.within(wanted)
        )

    def self_s(self, op: str, names: tuple[str, ...]) -> float:
        return sum(s.self_s for s in self.spans if s.op == op and s.name in names)

    def operations(self, op: str) -> int:
        return self.calls(op, (f"op.{op}",))
