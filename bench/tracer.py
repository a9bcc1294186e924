"""Span tracer that wraps the public functions and methods of `timebin`.

The tracer rebinds names from outside the program: each public function of
the listed modules, each public method (plus ``__init__`` and ``__call__``)
of their classes, every other `timebin` module global that refers to one of
those functions (``experiments.fixed_point``, ``timebin.derive_quantities``),
and every entry of a module-level dict that holds one (``cli.RUNNERS``).
`uninstall` puts every original object back.

Spans live in memory as ``[name, start, end, parent_index]`` lists and are
written out by the caller when the run ends.  A hook registered under a
span name sees each call's arguments and result, so counts (iterations,
bytes, distinct inputs) are taken where the work happens.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

PACKAGE = "timebin"
MODULES = (
    "fock", "gates", "lattice", "spectral", "dynamics", "subtraction",
    "schedule", "experiments",
)


def _targets(module):
    """(owner, attribute, descriptor, span name, function) for every public
    function and method defined in the module."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{short}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("_") and attr not in ("__init__", "__call__"):
                    continue
                if attr == "__init__" and dataclasses.is_dataclass(obj):
                    continue  # generated field assignment, not program logic
                fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
                if inspect.isfunction(fn):
                    out.append((obj, attr, val, f"{short}.{name}.{attr}", fn))
    return out


class Tracer:
    """Wrap, record spans, restore.  Use as a context manager."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []
        self.counters = {}
        self.wrapped = set()
        self._stack = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for short in MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for owner, attr, desc, span, fn in _targets(module):
                wrapper = self._wrap(span, fn)
                if isinstance(desc, classmethod):
                    new = classmethod(wrapper)
                elif isinstance(desc, staticmethod):
                    new = staticmethod(wrapper)
                else:
                    new = wrapper
                    replaced[id(fn)] = (fn, wrapper)
                self._setattr(owner, attr, desc, new)
                self.wrapped.add(span)
        # rebind the same function objects wherever other modules hold them
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != PACKAGE:
                continue
            for name, val in list(vars(module).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._setattr(module, name, val, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append(("item", val, key, item))
                            val[key] = hit[1]
        return self

    def _setattr(self, owner, attr, original, new):
        self._patches.append(("attr", owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            kind, owner, key, original = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}; self time is the
        span's duration minus the durations of its direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out
