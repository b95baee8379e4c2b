"""In-memory span tracing around the program's module boundaries.

The program itself carries no instrumentation. A traced pass rebinds the
public functions that each calling module imported (for example
``noisestab.ousim.contains`` and ``noisestab.verify.contains``) to a
wrapper that records a span and a few work counts, then puts every
original back. Spans stay in memory and are written out once, at the end
of a run.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    pass_id: int | None


class Tracer:
    """Collects spans and counters; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._next_sid = 0

    def open(self) -> tuple[int, int | None]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int | None, name: str, start_ns: int):
        end_ns = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(sid, name, start_ns, end_ns, parent,
                               self.pass_id))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span of its own (used for the root CLI call)."""
        sid, parent = self.open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid, parent, name, start)

    def write(self, path: str):
        """One JSON array per line: sid, name, start, end, parent, pass."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    covered = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times_ns(spans) -> dict[int, int]:
    """Per span: duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {s.sid: (s.end_ns - s.start_ns)
            - _covered_ns(s.start_ns, s.end_ns, children.get(s.sid, ()))
            for s in spans}


@dataclass
class NameTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def totals_by_name(spans) -> dict[str, NameTotals]:
    selfs = self_times_ns(spans)
    out: dict[str, NameTotals] = defaultdict(NameTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_ns += s.end_ns - s.start_ns
        t.self_ns += selfs[s.sid]
    return out


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """A function to trace: ``attr`` of module ``home`` (``Class.method``
    for a method, patched on the class). ``span`` is a name or a function
    of the call's arguments; ``count`` records work counts after the call."""
    home: str
    attr: str
    span: str | Callable
    count: Callable | None = None


def _make_wrapper(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    span, count = target.span, target.count

    def wrapper(*args, **kwargs):
        name = span if isinstance(span, str) else span(args, kwargs)
        sid, parent = tracer.open()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid, parent, name, start)
        if count is not None:
            count(tracer.counters, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _bindings(target: Target):
    """(owner, attribute name, original) for every place to patch.

    A method is patched once on its class. A function is patched in every
    loaded module of the home package that bound the same object, so calls
    through ``from .x import f`` names are traced too.
    """
    home = importlib.import_module(target.home)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".", 1)
        cls = getattr(home, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    original = getattr(home, target.attr)
    package = target.home.split(".", 1)[0]
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        if vars(mod).get(target.attr) is original:
            out.append((mod, target.attr, original))
    return out


class RestoreError(RuntimeError):
    """A wrapped name did not get its original object back."""


class patched:
    """Context manager that wraps every target and restores each binding
    on exit, then checks that every binding is the original again."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                bindings = _bindings(target)
                if not bindings:
                    raise LookupError(f"nothing to wrap for "
                                      f"{target.home}.{target.attr}")
                wrapper = _make_wrapper(self.tracer, bindings[0][2], target)
                for owner, attr, original in bindings:
                    self.saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.saved
                 if vars(o).get(a) is not orig]
        if wrong:
            raise RestoreError("not restored: " + ", ".join(wrong))
        return False
