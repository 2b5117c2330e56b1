"""Spans around injcolor's public functions, recorded from outside the package.

Tracer.install() wraps each function named in spec.SPANNED in every injcolor
module namespace that holds it (``injcolor.injective.degeneracy_order`` as
well as ``injcolor.graphs.degeneracy_order``), so calls between modules are
seen too.  Spans stay in memory as [name, parent index, start, end] and are
written out by dump().  uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager

from spec import ATTEMPT_RATIOS, COUNTED, ORACLES, SPANNED

NAME, PARENT, START, END = range(4)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.recording = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, package: str = "injcolor") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module, names in table.items():
                home = sys.modules[f"{package}.{module}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = make(f"{module}.{name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def layer_metrics(spans: list, first: int, end: int, roots: dict, oracle_timeout: float):
    """Per-layer metrics of spans[first:end] (one pass), and the inclusive
    seconds of each layer per sweep instance size.

    ``roots`` maps the index of each command's cli.run_command span to
    (m, sweep) of its input instance; sweep commands feed the scaling fits.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    child_s = [0.0] * (end - first)
    root_of = [0] * (end - first)
    attempts: dict[str, int] = {}
    inclusive: dict[tuple[str, int], float] = {}  # (layer, m) -> seconds
    slowest_oracle = 0.0
    wanted = {verify: build for _, build, verify in ATTEMPT_RATIOS}
    for i in range(end - 1, first - 1, -1):  # children before parents
        name, parent, began, ended = spans[i]
        dur = ended - began
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i - first]
        if parent >= first:
            child_s[parent - first] += dur
            if wanted.get(name) == spans[parent][NAME]:
                attempts[name] = attempts.get(name, 0) + 1
        if name in ORACLES:
            slowest_oracle = max(slowest_oracle, dur)
    for i in range(first, end):
        parent = spans[i][PARENT]
        root_of[i - first] = i if parent < first else root_of[parent - first]
        m, sweep = roots.get(root_of[i - first], (0, False))
        if sweep:
            key = spans[i][NAME], m
            inclusive[key] = inclusive.get(key, 0.0) + spans[i][END] - spans[i][START]

    out = {}
    for module, names in SPANNED.items():
        for name in names:
            layer = f"{module}.{name}"
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for ratio, build, verify in ATTEMPT_RATIOS:
        out[ratio] = attempts.get(verify, 0) / calls[build] if calls.get(build) else 0.0
    out["oracles.timeout_headroom"] = 1.0 - slowest_oracle / oracle_timeout
    return out, inclusive


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(m); 0 with fewer than
    two distinct sizes."""
    points = [(math.log(m), math.log(t)) for m, t in points if m > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx
