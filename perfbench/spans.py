"""Span recorder for the benchmark's traced runs.

The program under test has no spans of its own, so the traced run wraps
the public functions of each layer from outside: :meth:`Tracer.install`
replaces a function with a timing wrapper and rebinds every name a
loaded ``repro.*`` module (or one of the benchmark's own modules) bound
to it, and :meth:`Tracer.restore` puts every original back.  Methods are
wrapped on their class.  Each span records its layer, start, end, the
span that caused it (the enclosing span on the same thread, or the root
span of the timed region for a thread's outermost span) and the answer
it belongs to.  Spans stay in memory and are written once, at the end.

Worker processes inherit the wrappers when they fork, but their spans
never come home: layers that run in shard workers are measured from the
counters the program returns (see ``workloads.py``).

Self time is computed by :func:`attribute`: a sweep over the timed
region gives every instant to the innermost spans open at that instant,
shared equally when several threads have one open, so the per-layer
totals plus the root's own remainder (``unattributed``) add up to the
traced wall time exactly.  Spans marked ``wait`` (a client blocked on
the service) only receive instants when no other innermost span is
open, so time the server spends working is charged to the server.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Layer name of the root span around the timed region.
ROOT = "root"


class Span:
    """One timed call of a wrapped function (or a benchmark region)."""

    __slots__ = ("layer", "name", "start", "end", "parent", "answer",
                 "wait", "note")

    def __init__(self, layer: str, name: str, parent: Optional["Span"],
                 answer: Any, wait: bool = False) -> None:
        self.layer = layer
        self.name = name
        self.parent = parent
        self.answer = answer
        self.wait = wait
        self.note: Dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public function or method to wrap.

    ``attr`` is ``"function"`` or ``"Class.method"`` in ``module``.
    ``note(span, args, kwargs)`` runs before each call and may record
    facts about it on ``span.note``; when it returns a callable, that is
    called with the call's result afterwards.  ``wait`` marks a layer
    that blocks on other threads (see :func:`attribute`).
    """

    module: str
    attr: str
    layer: str
    wait: bool = False
    note: Optional[Callable] = None


class Tracer:
    """Records spans from wrapped functions; undoes its own patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        self._root_open = False
        self._local = threading.local()
        #: (namespace, attribute, original value) of every rebinding.
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original), for the restore sweep.
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}
        self._extra_modules: List[Any] = []

    # ----------------------------------------------------------------- #
    # Recording.
    # ----------------------------------------------------------------- #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str, wait: bool = False) -> Span:
        """Start a span on the calling thread."""
        stack = self._stack()
        parent = stack[-1] if stack else (self.root if self._root_open else None)
        span = Span(layer, name, parent, getattr(self._local, "answer", None), wait)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` (the innermost open span of this thread)."""
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextmanager
    def span(self, layer: str, name: str, wait: bool = False) -> Iterator[Span]:
        span = self.open(layer, name, wait)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def region(self) -> Iterator[Span]:
        """The root span: the timed region every other span falls in."""
        self.root = Span(ROOT, ROOT, None, None)
        self.spans.append(self.root)
        self._root_open = True
        try:
            yield self.root
        finally:
            self._root_open = False
            self.root.end = time.perf_counter()

    @contextmanager
    def answer(self, answer_id: Any) -> Iterator[None]:
        """Tag the spans this thread opens with ``answer_id``."""
        previous = getattr(self._local, "answer", None)
        self._local.answer = answer_id
        try:
            yield
        finally:
            self._local.answer = previous

    # ----------------------------------------------------------------- #
    # Wrapping.
    # ----------------------------------------------------------------- #

    def _wrapper(self, func: Callable, target: Target) -> Callable:
        name, layer, wait, note = (func.__qualname__, target.layer,
                                   target.wait, target.note)
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
                span = tracer.open(layer, name, wait)
                try:
                    yield from func(*args, **kwargs)
                finally:
                    tracer.close(span)
        else:
            # functools.wraps keeps __module__/__qualname__, so a wrapped
            # pool worker function still pickles by reference.
            @functools.wraps(func)
            def traced(*args: Any, **kwargs: Any) -> Any:
                span = tracer.open(layer, name, wait)
                after = note(span, args, kwargs) if note else None
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(result)
                return result
        traced.perfbench_wrapper = True
        self._wrappers[id(traced)] = (traced, func)
        return traced

    def _modules(self) -> List[Any]:
        """The loaded ``repro`` modules plus the benchmark's own."""
        return [m for name, m in list(sys.modules.items())
                if name == "repro" or name.startswith("repro.")
                ] + self._extra_modules

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every name bound to ``original`` at ``replacement``."""
        for module in self._modules():
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, targets: Iterable[Target],
                extra_modules: Iterable[Any] = ()) -> None:
        """Wrap every target; see :class:`Target`."""
        targets = list(targets)
        self._extra_modules = list(extra_modules)
        for target in targets:
            __import__(target.module)
        for target in targets:
            module = sys.modules[target.module]
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrapper(raw.__func__, target))
                else:
                    wrapped = self._wrapper(raw, target)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(module, attr)
                self._rebind(original, self._wrapper(original, target))

    def restore(self) -> None:
        """Undo every rebinding, newest first, then sweep the modules for
        wrappers a module imported while they were installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for module in self._modules():
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    # ----------------------------------------------------------------- #
    # Output.
    # ----------------------------------------------------------------- #

    def dump(self) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts (parent by index, times relative
        to the root's start)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        t0 = self.root.start if self.root is not None else 0.0
        return [
            {
                "layer": s.layer, "name": s.name,
                "start": s.start - t0, "end": s.end - t0,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "answer": s.answer, "wait": s.wait,
                **({"note": s.note} if s.note else {}),
            }
            for s in self.spans
        ]


def attribute(spans: Iterable[Span], root: Span) -> Dict[str, float]:
    """Share the root interval out over the layers of the open spans.

    Every elementary interval between span boundaries goes to the
    innermost open spans (those with no open child); several such spans
    split it equally, busy spans taking precedence over ``wait`` spans.
    The root's own share is returned under :data:`ROOT` - the time no
    wrapped layer accounts for.  The values sum to the root's duration.
    """
    lo, hi = root.start, root.end
    events: List[Tuple[float, int, int]] = []
    members: List[Span] = []
    for span in spans:
        if span is root:
            continue
        start, end = max(span.start, lo), min(span.end, hi)
        if end <= start:
            continue
        k = len(members)
        members.append(span)
        events.append((start, 1, k))
        events.append((end, 0, k))
    # Ends sort before starts at the same instant.
    events.sort()
    totals: Dict[str, float] = {ROOT: 0.0}
    open_children: Dict[int, int] = {}
    active: Dict[int, Span] = {id(root): root}
    leaves: Dict[int, Span] = {id(root): root}
    now = lo
    for at, kind, k in events:
        if at > now:
            _share(leaves, at - now, totals)
            now = at
        span = members[k]
        parent = span.parent if span.parent is not None else root
        pid = id(parent)
        if kind == 1:
            active[id(span)] = span
            leaves[id(span)] = span
            if pid in active:
                open_children[pid] = open_children.get(pid, 0) + 1
                leaves.pop(pid, None)
        else:
            active.pop(id(span), None)
            leaves.pop(id(span), None)
            if pid in active:
                open_children[pid] = open_children.get(pid, 1) - 1
                if open_children[pid] <= 0:
                    leaves[pid] = parent
    if hi > now:
        _share(leaves, hi - now, totals)
    return totals


def _share(leaves: Dict[int, Span], dt: float, totals: Dict[str, float]) -> None:
    busy = [s for s in leaves.values() if not s.wait]
    takers = busy or list(leaves.values())
    each = dt / len(takers)
    for span in takers:
        totals[span.layer] = totals.get(span.layer, 0.0) + each
