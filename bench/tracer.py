"""Outside-in span tracer for the xkd benchmark.

The package itself carries no instrumentation.  For a traced pass the
tracer replaces each watched function at *every* module or class attribute
of the loaded ``xkd`` modules that is bound to it -- including names copied
by ``from ... import`` such as ``verify.fit_quadrupole`` or
``diffraction.evaluate_potential`` -- with a wrapper that records a span,
and puts the originals back afterwards.

Spans nest through a stack: each span knows its parent, and a span's self
time is its duration minus the durations of its direct children.  Spans are
folded into per-name totals as they close, so memory stays flat however
many calls an operation makes (``run_checks`` makes ~40k lookups).
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from time import perf_counter


class SpanStats:
    __slots__ = ("calls", "self_s", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.extra: dict[str, float] = {}


class Tracer:
    """Records nested spans for the functions named in ``targets``.

    ``targets`` maps a span name to a list of ``(owner, attribute)`` pairs
    naming the functions to watch; ``owner`` is a module or a class.
    ``hooks`` maps a span name to ``f(result) -> {stat: number}``; the
    numbers are summed into that span's ``extra`` counters.
    """

    def __init__(self, targets: dict[str, list[tuple[object, str]]], hooks=None):
        self.targets = targets
        self.hooks = hooks or {}
        self.stats: dict[str, SpanStats] = {}
        # open spans: [name, child_seconds]
        self._stack: list[list] = []
        self._patches = None

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                for key, value in hook(result).items():
                    stats.extra[key] = stats.extra.get(key, 0.0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a span of its own, e.g. the root of one operation."""
        return self._wrap(fn, name)(*args)

    def _sites(self):
        """Every (owner, attribute, original, span name) to patch."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "xkd" or k.startswith("xkd.")) and m is not None]
        sites = []
        for name, pairs in self.targets.items():
            for owner, attr in pairs:
                raw = inspect.getattr_static(owner, attr)
                if inspect.isclass(owner):
                    # class attributes are reached through the one class object
                    sites.append((owner, attr, raw, name))
                    continue
                for module in modules:
                    for key, value in vars(module).items():
                        if value is raw:
                            sites.append((module, key, raw, name))
        return sites

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore."""
        if self._patches is None:
            self._patches = [
                (owner, attr, raw,
                 classmethod(self._wrap(raw.__func__, name))
                 if isinstance(raw, classmethod) else self._wrap(raw, name))
                for owner, attr, raw, name in self._sites()
            ]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, raw, _ in reversed(self._patches):
                setattr(owner, attr, raw)
