"""Spans recorded around calls into the package's modules.

The benchmark does not edit the package.  It replaces a module-level
name with a timing wrapper for the duration of a ``with`` block, in the
module that looks the name up at call time (``solver`` imports the
oracle functions by name, so their wrappers go into ``solver``;
``estimator_delta`` finds ``component_eval`` in ``operators``).

Spans are aggregated per name in memory rather than stored one by one: a
run makes millions of oracle calls.  Each thread keeps its own stack of
open spans, so self time (duration minus the time covered by child spans
in the same thread) stays correct while the harness runs seeds on a
thread pool.  Under the interpreter lock a span's duration includes time
spent waiting for the lock.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Tracer:
    """Per-name totals of calls, wall seconds and self seconds."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
        return local

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread_state()
            stack = local.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                entry = local.stats.get(name)
                if entry is None:
                    entry = local.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, wall seconds, self seconds), summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            for stats in self._per_thread:
                for name, (calls, wall, self_s) in stats.items():
                    acc = out.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += wall
                    acc[2] += self_s
        return {name: tuple(v) for name, v in out.items()}


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``module.attr = factory(original)`` for each
    (module, attr, factory) triple; originals are restored on exit."""
    saved = []
    try:
        for module, attr, factory in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
