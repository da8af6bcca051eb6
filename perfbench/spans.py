"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each kerrgate layer from outside the
package.  Every ``kerrgate.*`` module global that refers to a wrapped function,
and the ``HybridState.from_branches`` class attribute, is rebound to a wrapper
that records a span; :meth:`Tracer.uninstall` puts every original back.  No
source file changes.

Spans (name, start, end, parent, and the benchmark call they belong to) are
kept in flat arrays in memory and written out once the traced calls are done.
A span's self time is its duration minus the time its child spans cover;
calls are synchronous on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: wrapped functions per layer (module); ``Class.method`` names a classmethod
LAYERS = {
    "states": (
        "HybridState.from_branches",
        "new_state",
        "norm_squared",
        "renormalized",
        "merge_and_prune",
        "fidelity",
    ),
    "optics": ("apply_single_qubit", "apply_cross_kerr", "diagonal_gate"),
    "measurement": (
        "sample_quadrature",
        "sample_and_collapse",
        "qnd_photon_measure",
        "outcome_density",
    ),
    "gates": ("parity_gate", "entangler", "entangler_45", "cnot"),
    "fock": (
        "required_truncation",
        "truncation_loss",
        "oracle_embed",
        "oracle_cross_kerr",
        "oracle_homodyne_density",
        "oscillator_eigenfunctions",
    ),
    "analysis": ("run_shots", "geometry", "p_error"),
    "cli": ("parse_config", "run"),
}

#: functions that return a density callable; evaluating it is a span of its
#: own, ``<function>.density``, since the caller evaluates it later
DENSITY_FACTORIES = ("measurement.outcome_density", "fock.oracle_homodyne_density")

#: ratios and maxima recorded alongside the spans: name -> (unit, better)
COUNTERS = {
    "states.merge_ratio": ("ratio", "higher"),
    "states.branches.max": ("count", "lower"),
    "states.pruned_mass.max": ("prob", "lower"),
    "gates.odd_share": ("share", "lower"),
    "trace.speed_ratio": ("ratio", "higher"),
}


def span_names() -> list[str]:
    names = []
    for layer, functions in LAYERS.items():
        for function in functions:
            name = f"{layer}.{function.rpartition('.')[2]}"
            names.append(name)
            if name in DENSITY_FACTORIES:
                names.append(f"{name}.density")
    return names


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for layer in LAYERS:
        units[f"{layer}.self_share"] = ("share", "lower")
    units.update(COUNTERS)
    return units


def _resolve(layer: str, function: str):
    """(owner, attribute, raw value) of one wrapped function."""
    owner = importlib.import_module(f"kerrgate.{layer}")
    owner_name, _, attr = function.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def missing_functions() -> list[str]:
    """Wrapped names that no longer resolve to a function in their module."""
    missing = []
    for layer, functions in LAYERS.items():
        for function in functions:
            try:
                _, _, raw = _resolve(layer, function)
            except (AttributeError, KeyError):
                missing.append(f"{layer}.{function}")
                continue
            if not callable(getattr(raw, "__func__", raw)):
                missing.append(f"{layer}.{function}")
    return missing


def _kerrgate_modules() -> list:
    importlib.import_module("kerrgate.cli")  # loads every layer
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "kerrgate"]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: index of the benchmark call in progress; the runner sets it
        self.call_index = -1
        self._restore: list[tuple[object, str, object]] = []
        self.branches_in = 0
        self.branches_out = 0
        self.branches_max = 0
        self.pruned_mass_max = 0.0
        self.records = 0
        self.odd_records = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        ident = self._ids[name]
        name_id, parent, call = self.name_id, self.parent, self.call
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            call.append(tracer.call_index)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            return result if after is None else after(result)

        wrapper.perfbench_span = name
        return wrapper

    def _from_branches(self, traced):
        # counts outside the span, so this hook's own cost lands on the caller
        def from_branches(cls, n_qubits, branches, *args, **kwargs):
            branches = tuple(branches)
            state = traced(cls, n_qubits, branches, *args, **kwargs)
            self.branches_in += len(branches)
            self.branches_out += len(state.branches)
            self.branches_max = max(self.branches_max, len(state.branches))
            return state

        from_branches.perfbench_span = "states.from_branches"
        return from_branches

    def _after_merge_and_prune(self, state):
        self.pruned_mass_max = max(self.pruned_mass_max, state.pruned_mass)
        return state

    def _after_parity_gate(self, result):
        self.records += 1
        self.odd_records += result[0].parity == "odd"
        return result

    def _after_density_factory(self, name):
        return lambda density: self._span(f"{name}.density", density)

    def _wrapper_for(self, name: str, fn):
        if name == "states.from_branches":
            return self._from_branches(self._span(name, fn))
        after = {
            "states.merge_and_prune": self._after_merge_and_prune,
            "gates.parity_gate": self._after_parity_gate,
        }.get(name)
        if name in DENSITY_FACTORIES:
            after = self._after_density_factory(name)
        return self._span(name, fn, after)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        modules = _kerrgate_modules()
        try:
            for layer, functions in LAYERS.items():
                for function in functions:
                    owner, attr, raw = _resolve(layer, function)
                    name = f"{layer}.{attr}"
                    if isinstance(raw, classmethod):
                        self._rebind(owner, attr, classmethod(self._wrapper_for(name, raw.__func__)))
                        continue
                    wrapper = self._wrapper_for(name, raw)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                self._rebind(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers still bound after uninstall: {left}")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        ident = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(ident, minlength=k)
        self_s = np.bincount(ident, weights=self_time, minlength=k)
        total = float(self_s.sum())
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for layer in LAYERS:
            layer_s = sum(
                out[f"{name}.self_s"] for name in self.names if name.split(".")[0] == layer
            )
            out[f"{layer}.self_share"] = layer_s / total if total > 0 else 0.0
        out["states.merge_ratio"] = (
            self.branches_out / self.branches_in if self.branches_in else 0.0
        )
        out["states.branches.max"] = self.branches_max
        out["states.pruned_mass.max"] = self.pruned_mass_max
        out["gates.odd_share"] = self.odd_records / self.records if self.records else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV; times are seconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,call,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.call[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n"
                )


def installed_wrappers() -> list[str]:
    """Tracer wrappers still bound anywhere in kerrgate."""
    found = []
    for module in _kerrgate_modules():
        for key, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{module.__name__}.{key}")
    owner, attr, raw = _resolve("states", "HybridState.from_branches")
    if hasattr(raw.__func__, "perfbench_span"):
        found.append("states.HybridState.from_branches")
    return found
