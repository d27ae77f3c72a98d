"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps each named function and rebinds the wrapper in
every ``lebesgue_interp`` namespace that holds the original, including
module-level dicts such as ``bench.METHODS``; ``uninstall`` puts the
originals back. A name the program no longer has is skipped and reported as
absent, so deleting a function does not break the benchmark.

A hook runs after each call to count work or check an invariant. Its time
is taken off the span clock, so checking costs no span any time. A hook that
raises (say, after the function's signature changed) is reported, not fatal.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "lebesgue_interp"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    thread: int
    run: str
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))  # (run, key) -> int
    failures: list[str] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    hook_errors: set[str] = field(default_factory=set)
    run: str = ""
    _paused: float = 0.0
    _local: threading.local = field(default_factory=threading.local)
    _restore: list = field(default_factory=list)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.run, key)] += int(n)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, threading.get_ident(), self.run)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.now()
                stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].children_s += span.duration
            if hook is not None:
                t0 = time.perf_counter()
                try:
                    hook(self, result, *args, **kwargs)
                except Exception as exc:  # keep timing; the count or check goes missing
                    self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap ``(module, function, hook)`` targets; span name ``module.function``."""
        for module, func, hook in targets:
            name = f"{module}.{func}"
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func, None)
            except ImportError:
                original = None
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for ns in self._namespaces():
                for container in [ns, *(v for v in ns.values() if isinstance(v, dict))]:
                    for key, value in list(container.items()):
                        if value is original:
                            container[key] = wrapper
                            self._restore.append((container, key, original))

    @staticmethod
    def _namespaces() -> list[dict]:
        return [vars(mod) for key, mod in list(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()
