"""Traced runs: spans around the public functions of each lattice_flows module.

The tracer wraps functions from the outside, so the package itself carries no
tracing code.  A span records (name, start, end, parent, op id) in flat
arrays kept in memory and written out once at the end.  A layer is a module;
its self time is the duration of its spans minus the part their child spans
cover.  Wrappers only record while an op id is set, and ``install`` returns a
function that puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("cli", "catalog", "states", "systems", "integrate", "lax", "poisson", "transforms",
          "rootdata")
# Private step functions, wrapped to count attempted (accepted + rejected) steps.
STEP_FUNCTIONS = ("_rk4_step", "_fehlberg_step")


def _jacobi_terms(args, kwargs) -> int:
    """Cyclic sums a jacobi_residual call evaluates: n * C(n, 3) (computed, not measured)."""
    state = args[1] if len(args) > 1 else kwargs["state"]
    return state.dim * comb(state.dim, 3)


COUNTERS = {"poisson.jacobi_residual": ("poisson.jacobi_terms", _jacobi_terms)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = {}
        self.op_id = -1  # < 0: wrappers pass straight through
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](args, kwargs)
            k = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(k)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[k] = perf_counter()
                self._stack.pop()

        return traced

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public functions where the package looks them up."""
    modules = {layer: importlib.import_module(f"lattice_flows.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in STEP_FUNCTIONS)):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)

    undo = []

    def rebind(owner, name, new):
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    # Names imported with "from .x import f" are rebound in every importer.
    for modname, mod in list(sys.modules.items()):
        if modname == "lattice_flows" or modname.startswith("lattice_flows."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    rebind(mod, name, wrappers[obj])

    state_cls = modules["states"].State
    rebind(state_cls, "replace_coords",
           tracer.wrap("states.replace_coords", state_cls.replace_coords))

    # Invariant callables are built per call; wrap each one handed to the CLI.
    system_cls = modules["catalog"].LatticeSystem
    invariants = system_cls.invariants

    def traced_invariants(self, state):
        return {k: tracer.wrap("catalog.invariant", f) for k, f in invariants(self, state).items()}

    rebind(system_cls, "invariants", tracer.wrap("catalog.invariants", traced_invariants))

    def restore():
        for owner, name, old in reversed(undo):
            setattr(owner, name, old)

    return restore


def layer_metrics(tracer: Tracer, n_ops: int, accepted_steps: int, csv_bytes: int) -> dict:
    """Per-op layer metrics from the spans: {name: (value, unit)}."""
    nid = np.asarray(tracer.name_id, dtype=np.int64)
    start = np.asarray(tracer.start)
    dur = np.asarray(tracer.end) - start
    parent = np.asarray(tracer.parent, dtype=np.int64)
    covered = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_time = dur - covered

    def mask(*names):
        return np.isin(nid, [tracer._ids[n] for n in names if n in tracer._ids])

    def in_layer(layer, suffix=""):
        return mask(*(n for n in tracer.names if n.startswith(layer + ".") and n.endswith(suffix)))

    field = in_layer("systems", "_field")
    integ = mask("integrate.integrate")
    # Field calls made by the integrator: those starting inside an integrate span.
    lo, hi = start[integ], start[integ] + dur[integ]
    pos = np.searchsorted(lo, start[field], side="right") - 1
    in_integrate = int(np.sum((pos >= 0) & (start[field] <= hi[pos.clip(min=0)]))) if lo.size else 0
    attempted = int(np.sum(mask(*(f"integrate.{f}" for f in STEP_FUNCTIONS))))
    field_calls = int(np.sum(field))
    integrate_s = float(np.sum(dur[integ]))

    per_op = 1.0 / max(n_ops, 1)
    out = {}

    def put(name, value, unit, scale=per_op):
        out[name] = (float(value) * scale, unit)

    for lay in LAYERS:
        put(f"{lay}.self_s", np.sum(self_time[in_layer(lay)]), "s")
    put("systems.field_calls", field_calls, "count")
    put("systems.field_s", np.sum(dur[field]), "s")
    put("systems.field_us", 1e6 * np.sum(dur[field]) / max(field_calls, 1), "us", 1.0)
    for name in ("states.replace_coords", "catalog.invariant", "lax.build_lax", "lax.grad_trace_invariant",
                 "lax.lax_dL", "poisson.jacobi_residual", "poisson.poisson_matrix",
                 "transforms.map_jacobian", "rootdata.gram_matrix"):
        put(f"{name}_calls", np.sum(mask(name)), "count")
        put(f"{name}_s", np.sum(dur[mask(name)]), "s")
    for name in ("lax.trace_invariants", "lax.lax_residual", "poisson.compatibility_residual",
                 "poisson.lenard_residual", "poisson.casimir_residual",
                 "transforms.pushforward_residual"):
        put(f"{name}_s", np.sum(dur[mask(name)]), "s")
    put("integrate.trajectory_csv_s", np.sum(self_time[mask("integrate.trajectory_csv")]), "s")
    put("integrate.csv_bytes", csv_bytes, "B")
    put("integrate.steps_accepted", accepted_steps, "count")
    put("integrate.steps_rejected", max(attempted - accepted_steps, 0), "count")
    put("integrate.accept_ratio", accepted_steps / attempted if attempted else 0.0, "ratio", 1.0)
    put("integrate.steps_per_s", accepted_steps / integrate_s if integrate_s else 0.0, "1/s", 1.0)
    put("integrate.field_evals_per_step",
        in_integrate / accepted_steps if accepted_steps else 0.0, "count", 1.0)
    put("poisson.jacobi_terms", tracer.counts.get("poisson.jacobi_terms", 0), "count")
    return out
