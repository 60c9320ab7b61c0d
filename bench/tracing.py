"""Span tracing installed from outside the arcert package.

A traced run replaces every public function in every ``arcert`` module
namespace, and ``Trajectory.to_csv``, with a timing wrapper.  Layers call one
another through those module attributes (``arcert.montecarlo.simulate_batch``,
``arcert.process.ar_recursion``, ``arcert.cli.rate_analysis``, ...), so each
call across a layer boundary becomes one span.  Spans are kept in memory and
written out when the run ends.  ``restore`` puts every original back.

Campaigns run with one thread, so a single span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

#: Marks a wrapper so that ``count_wrappers`` can find one left installed.
_MARK = "_bench_span_name"


def _targets(package):
    """(owner, attribute, function, span name) for every attribute to wrap."""
    prefix = package.__name__ + "."
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(prefix + info.name)
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if not value.__module__.startswith(prefix):
                continue
            yield module, attr, value, f"{value.__module__[len(prefix):]}.{value.__name__}"
    trajectory = importlib.import_module(prefix + "process").Trajectory
    yield trajectory, "to_csv", vars(trajectory)["to_csv"], "process.to_csv"


def count_wrappers(package) -> int:
    """Number of module attributes of ``package`` that are tracing wrappers."""
    return sum(1 for owner, attr, _, _ in _targets(package)
               if hasattr(vars(owner)[attr], _MARK))


class Tracer:
    """Records spans (name, start, end, parent index, run id) while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, func, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self, package) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, func, name in list(_targets(package)):
            setattr(owner, attr, self._wrap(func, name))
            self._patched.append((owner, attr, func))

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original attribute back; returns what was restored."""
        restored = self._patched
        for owner, attr, func in reversed(restored):
            setattr(owner, attr, func)
        self._patched = []
        return restored

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        With one thread, children of a span never overlap, so the covered
        time is the sum of their durations.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
