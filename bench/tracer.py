"""Span tracer for the rmx layers, installed from outside the package.

The layers are the computing modules of ``rmx``.  ``Tracer`` replaces every
public function of those modules, plus ``LatticeParams.lattice_distance``, by
a wrapper that records one span per call: the function, the span that caused
it (the innermost wrapped call still open), start and end times, whether it
raised, and for a few functions an amount of work.  The modules import each
other's functions by name (``from .rmatrix import r_matrix``), so the wrapper
is bound under every name in every ``rmx`` module that refers to the
original; ``profile_counts`` proves afterwards that no call went around it.
Spans stay in memory and are summarised when the sweep ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("special_functions", "rmatrix", "tensor_ops", "identities",
          "applications", "cli")
ROOT = "cli.run_suites"

# Work amounts recorded per call, computed from the return value:
# kronecker_phi broadcasts, so its result size is the number of points
# evaluated; embed_two_site returns the dense N^n x N^n embedding in bytes.
AMOUNTS = {
    "special_functions.kronecker_phi": lambda out: getattr(out, "size", 1),
    "tensor_ops.embed_two_site": lambda out: out.nbytes,
}


def traced_functions(rmx):
    """{qualified name: original function} for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{rmx.__name__}.{layer}")
        if module is None:  # a layer merged away leaves its metrics at 0
            continue
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[f"{layer}.{name}"] = obj
    method = vars(rmx.LatticeParams).get("lattice_distance")
    if method is not None:
        found["special_functions.lattice_distance"] = method
    return found


class Tracer:
    """Records a span for every call of a wrapped rmx function.

    ``spans`` holds ``[function index, parent span or None, start, end,
    raised, amount]`` lists in call order; ``names[function index]`` is the
    ``layer.function`` name.
    """

    def __init__(self, rmx):
        self._rmx = rmx
        self.originals = traced_functions(rmx)
        self.names = list(self.originals)
        self.spans = []
        self._stack = []

    def _wrap(self, index, fn):
        spans, stack = self.spans, self._stack
        amount = AMOUNTS.get(self.names[index])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else None, 0.0, 0.0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        wrappers = {id(fn): (fn, self._wrap(i, fn))
                    for i, fn in enumerate(self.originals.values())}
        lattice = self._rmx.LatticeParams
        modules = [m for name, m in list(sys.modules.items())
                   if name == self._rmx.__name__
                   or name.startswith(self._rmx.__name__ + ".")]
        patched = []
        for target in modules + [lattice]:
            for name, obj in list(vars(target).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if obj is original:
                    setattr(target, name, wrapper)
                    patched.append((target, name, obj))
        try:
            yield self
        finally:
            for target, name, obj in patched:
                setattr(target, name, obj)

    def summary(self):
        """Aggregate the spans into per-function and per-layer figures.

        Self time is a span's duration minus the durations of the spans it
        caused.  An error counts where an exception leaves its layer.
        """
        child = [0.0] * len(self.spans)
        for idx, parent, t0, t1, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        funcs = {name: {"calls": 0, "self_s": 0.0, "errors": 0, "amount": 0,
                        "callers": Counter()} for name in self.names}
        layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        orphans = 0
        root_s = 0.0
        for i, (idx, parent, t0, t1, raised, amount) in enumerate(self.spans):
            name = self.names[idx]
            layer = name.split(".", 1)[0]
            own = t1 - t0 - child[i]
            caller = None if parent is None else self.names[self.spans[parent][0]]
            f = funcs[name]
            f["calls"] += 1
            f["self_s"] += own
            f["amount"] += amount
            f["callers"][caller or "-"] += 1
            layers[layer]["calls"] += 1
            layers[layer]["self_s"] += own
            if raised and (caller is None or caller.split(".", 1)[0] != layer):
                f["errors"] += 1
                layers[layer]["errors"] += 1
            if parent is None:
                root_s += t1 - t0
                if name != ROOT:
                    orphans += 1
        return {"functions": funcs, "layers": layers, "orphans": orphans,
                "root_s": root_s}


def profile_counts(profile, originals):
    """Calls per original function as counted by a finished cProfile.Profile."""
    profile.create_stats()
    return {name: profile.stats.get((fn.__code__.co_filename,
                                     fn.__code__.co_firstlineno,
                                     fn.__code__.co_name), (0, 0))[1]
            for name, fn in originals.items()}
