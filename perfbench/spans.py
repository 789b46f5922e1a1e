"""Span recording around floqex's public functions, installed from outside the library.

A traced job rebinds every function in ``TARGETS`` to a wrapper that records a
span (name, start, end, parent, pass id) in memory. Rebinding happens in every
loaded ``floqex`` module namespace that holds the function, because modules
import each other's functions by name (``from .lattice import band_gap``) and
call them through their own globals. Methods are rebound on their class.

Each thread keeps its own span stack. A span opened on a thread whose stack is
empty (a ``_pmap`` worker) takes the open ``scenarios.run_scenario`` span as
its parent, so self times stay attributed to the run that caused them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Public functions wrapped per module; "Class.method" names a method.
TARGETS = {
    "lattice": ["band_gap", "dispersion", "bare_detuning", "BZGrid.square", "occupations"],
    "screening": ["solve_exciton_resonance", "solve_bound_state", "screened_detunings",
                  "screened_detuning", "screened_detuning_bs", "shifted_detunings",
                  "ladder_sum"],
    "floquet": ["effective_band", "effective_hopping", "stark_bs_ratio"],
    "cavity": ["interaction_kernel", "enhancement_ratio", "u12_sweep"],
    "spectra": ["absorbance", "peak_location"],
    "scan": ["ScanResult.write"],
    "scenarios": ["run_scenario"],
    "config": ["parse_config"],
}


def _size(value) -> int:
    """Number of k points in a band value: an array, or one scalar point."""
    return getattr(value, "size", 1)


# Extra per-span counts, computed from the wrapped call's result.
COUNTERS = {
    "lattice.band_gap": ("points", _size),
    "lattice.dispersion": ("points", _size),
    "lattice.bare_detuning": ("points", _size),
    "lattice.occupations": ("points", lambda result: result.n_k.size),
    "spectra.absorbance": ("freqs", lambda result: len(result.omegas)),
    "scan.ScanResult.write": ("bytes", lambda paths: sum(p.stat().st_size for p in paths)),
}

# Exceptions counted in ``<function>.errors`` when they leave a span.
ERROR_NAMES = ("NoResonance", "ResonantDenominator", "ResonantCavity")

ANCHOR = "scenarios.run_scenario"


def span_names():
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


class MissingTarget(LookupError):
    """A configured wrap target no longer exists in the library."""


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self, pass_id: int, errors: tuple):
        self.pass_id = pass_id
        self.errors = errors
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._anchor
            # next() on itertools.count is a single C call, atomic under the GIL.
            span_id = next(self._ids)
            stack.append(span_id)
            if name == ANCHOR:
                self._anchor = span_id
            error = False
            count = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            except self.errors:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == ANCHOR:
                    self._anchor = None
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "pass": self.pass_id, "error": error,
                    "count": count,
                })

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> int:
    """Rebind every target in every loaded floqex namespace; returns the number rebound.

    Raises :class:`MissingTarget` naming the first target that no longer exists,
    so a rename in the library cannot silently zero a per-layer metric.
    """
    importlib.import_module("floqex.cli")
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "floqex" or name.startswith("floqex.")]
    rebound = 0
    for module_name, names in TARGETS.items():
        module = importlib.import_module(f"floqex.{module_name}")
        for qualname in names:
            span = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    raise MissingTarget(f"floqex.{span} no longer exists; update TARGETS")
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(recorder.wrap(span, raw.__func__)))
                else:
                    setattr(cls, attr, recorder.wrap(span, raw))
                rebound += 1
                continue
            original = getattr(module, qualname, None)
            if not callable(original):
                raise MissingTarget(f"floqex.{span} no longer exists; update TARGETS")
            wrapped = recorder.wrap(span, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapped)
                        rebound += 1
    return rebound


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Totals per span name: calls, self seconds, errors and the extra count.

    Self time is a span's duration minus the part of it covered by its child
    spans (children on several threads are merged, not added).
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0, "count": 0})
    for s in spans:
        t = totals[s["name"]]
        t["calls"] += 1
        t["self_s"] += (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        t["errors"] += int(s["error"])
        t["count"] += s["count"] or 0
    return dict(totals)
