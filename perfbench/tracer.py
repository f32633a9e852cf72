"""Span recorder and call-site instrumentation for the traced run.

Spans are recorded from outside the package: ``instrument`` replaces the
public functions and methods of every dyadlab module, wherever a module
namespace refers to them, with wrappers that open a span named
``<module>.<function>``, and ``restore`` puts the originals back.  The
layer of a span is the dyadlab module that defines the callee.

A call made from inside a span of the same layer is not recorded: it
changes no layer's self time, and skipping it keeps the per-call cost low
in tight loops such as Young-function evaluations inside a Luxemburg
solve.  Self time is computed as spans close (duration minus the time
covered by direct children), so it is exact however many spans there are.
Spans at depth <= KEEP_DEPTH (the job span and the layer entry points it
calls) are kept one by one; deeper spans are aggregated per job and
name, and both are written out at the end of the run.
"""
from __future__ import annotations

import copy
import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "grid",
    "sampled",
    "scan",
    "orlicz",
    "operators",
    "sparse",
    "constants",
    "normest",
    "pairs",
    "cli",
)

JOB_LAYER = "job"
KEEP_DEPTH = 2  # spans kept one by one: the job span and the layer entry points it calls


class Tracer:
    """In-memory spans with streaming self-time accounting per layer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans = []  # kept spans: (id, name, parent id, job id, start, end)
        self.aggregate = defaultdict(lambda: [0, 0.0, 0.0])  # (job, name) -> [count, total, self]
        self.self_time = defaultdict(float)  # layer -> seconds
        self.calls = defaultdict(int)  # layer -> spans recorded
        self.entry_time = defaultdict(float)  # (job, layer) -> seconds spent inside the layer
        self._open_layers = defaultdict(int)
        self._stack = []  # [id, name, layer, start, child seconds]
        self._next_id = 0

    # --- recording -----------------------------------------------------------

    def open(self, name: str, layer: str):
        sid = self._next_id
        self._next_id += 1
        self._open_layers[layer] += 1
        self._stack.append([sid, name, layer, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        sid, name, layer, start, child = self._stack.pop()
        dur = end - start
        self_s = dur - child
        depth = len(self._stack) + 1
        job = self._stack[0][1] if self._stack else name
        if self._stack:
            self._stack[-1][4] += dur
        self.self_time[layer] += self_s
        self.calls[layer] += 1
        self._open_layers[layer] -= 1
        if self._open_layers[layer] == 0:
            self.entry_time[(job, layer)] += dur
        if depth <= KEEP_DEPTH:
            parent = self._stack[-1][0] if self._stack else None
            job_id = self._stack[0][0] if self._stack else sid
            self.spans.append((sid, name, parent, job_id, start - self.origin, end - self.origin))
        else:
            agg = self.aggregate[(job, name)]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s

    def job(self, name: str):
        """Context manager for the job span that parents a job's calls."""
        return _Span(self, f"{JOB_LAYER}.{name}", JOB_LAYER)

    # --- queries -------------------------------------------------------------

    def layer_entry_time(self, layer: str, jobs=None) -> float:
        return sum(
            t for (job, lay), t in self.entry_time.items()
            if lay == layer and (jobs is None or job in jobs)
        )

    def write(self, path: Path):
        obj = {
            "run_id": self.run_id,
            "spans": [
                {"id": sid, "name": name, "parent": parent, "job": job_id,
                 "run": self.run_id, "start": start, "end": end}
                for sid, name, parent, job_id, start, end in self.spans
            ],
            "aggregated": [
                {"job": job, "name": name, "count": c, "total_s": tot, "self_s": own,
                 "run": self.run_id}
                for (job, name), (c, tot, own) in sorted(self.aggregate.items())
            ],
            "layer_self_s": dict(sorted(self.self_time.items())),
            "layer_calls": dict(sorted(self.calls.items())),
        }
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.tracer.open(self.name, self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.close()
        return False


# === instrumentation =========================================================


def _traced(fn, name: str, layer: str, tracer: Tracer):
    stack = tracer._stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if stack and stack[-1][2] == layer:
            return fn(*args, **kwargs)
        tracer.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return traced


def _layer_of(obj):
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("dyadlab."):
        return None
    layer = mod.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _wrappable(name: str, fn) -> bool:
    return (
        isinstance(fn, types.FunctionType)
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(fn)
    )


def instrument(tracer: Tracer, package) -> list:
    """Wrap dyadlab's public functions and methods; returns the undo list
    for ``restore``.  ``package`` is the imported dyadlab package."""
    undo = []
    wrappers = {}

    def wrapper_for(fn, layer, name):
        key = id(fn)
        if key not in wrappers:
            wrappers[key] = _traced(fn, name, layer, tracer)
        return wrappers[key]

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [package] + [sys.modules[f"dyadlab.{layer}"] for layer in LAYERS if f"dyadlab.{layer}" in sys.modules]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            layer = _layer_of(obj)
            if layer is None:
                continue
            if _wrappable(attr, obj):
                patch(mod, attr, wrapper_for(obj, layer, f"{layer}.{obj.__name__}"))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _instrument_class(obj, layer, tracer, patch)
    return undo


def _instrument_class(cls, layer, tracer, patch):
    for attr, member in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr == "__init__" and cls.__name__ == "SampledFunction":
            patch(cls, attr, _traced(member, f"{layer}.SampledFunction", layer, tracer))
        elif _wrappable(attr, member):
            patch(cls, attr, _traced(member, name, layer, tracer))
        elif isinstance(member, (classmethod, staticmethod)) and _wrappable(attr, member.__func__):
            patch(cls, attr, type(member)(_traced(member.__func__, name, layer, tracer)))
        elif isinstance(member, property) and attr == "prefix":
            patch(cls, attr, property(_traced(member.fget, name, layer, tracer)))


def restore(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# === counting proxy ==========================================================


def counting(phi):
    """A copy of a Young function whose class counts ``eval`` calls.

    The proxy is an instance of a subclass of phi's own class, so every
    isinstance test and fast path in the library takes the same branch and
    the outputs stay bit-identical; ``type(proxy).evals`` holds the count.
    """
    base = type(phi)

    def eval(self, t):
        type(self).evals += 1
        return base.eval(self, t)

    sub = type(f"Counting{base.__name__}", (base,), {"evals": 0, "eval": eval})
    proxy = copy.copy(phi)
    object.__setattr__(proxy, "__class__", sub)
    return proxy
