"""Identified systems: one registry of fields per chart and named invariants.

``SYSTEMS`` maps each public system identifier (km, bv-a..bv-d, c-a..c-d,
vd, ab, spectrum, toda, sklyanin, sklyanin-full) to its vector field on
each chart it accepts and to the invariants the CLI can track along
trajectories.  An invariant is evaluated as a column, over a block of
states at a time.  ``LENARD`` pairs each Poisson pencil with the row whose
invariants it brackets and names that row's pi1 Casimir.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import lax, poisson, systems
from .errors import ChartMismatch
from .rootdata import Spectrum, null_combination
from .states import C_VARS, FLASCHKA_AB, POSITIVE_CHARTS, QP, VOLTERRA_U, VOLTERRA_V, State


class Column(NamedTuple):
    """How to evaluate one named invariant, and its gradient, over a block of states.

    ``evaluate(block, keys)`` returns one list of values per key for the N
    states of ``block``, ``gradient`` (or None) one (N, d) array per key.
    Invariants that share a callable (the trace powers of one Lax matrix)
    are evaluated in one call; ``key`` tells them apart.
    """

    evaluate: Callable
    key: object = None
    gradient: Callable | None = None


def _closed_form(fn, *args, gradient=None) -> Column:
    """A Column for a single column function fn(*args, block) and gradient(block)."""
    return Column(lambda block, keys: [fn(*args, block)], None, gradient and (lambda block, keys: [gradient(block)]))


@dataclass(frozen=True)
class LatticeSystem:
    """A vector field on each chart it accepts, plus its named invariants.

    ``fields`` maps a chart to a callable (state, y, spectrum) -> ndarray,
    the velocity at raw coordinates ``y`` in the chart and sizes of
    ``state``: one (d,) row, or a (d, N) block of columns, one per point;
    ``named_invariants`` maps (system, state) to {name: Column}.
    ``lax`` is the system's Lax builder (``lax.km_lax`` and the rest) or
    None: the one place that says which Lax pair belongs to a system.
    ``spectrum`` parametrises the 'spectrum' system.  ``list_charts`` names
    the charts whose field also takes one row as a list of Python complex
    numbers (``integrate.LIST_STEP_MAX_DIM``).  Dimension is carried by
    the states themselves; every entry accepts any admissible size of its charts.
    """

    key: str
    fields: dict
    named_invariants: Callable = lambda system, state: {}
    lax: Callable | None = None
    spectrum: Spectrum | None = None
    list_charts: tuple[str, ...] = ()

    @property
    def charts(self) -> tuple[str, ...]:
        return tuple(self.fields)

    @property
    def positive(self) -> bool:
        return all(ch in POSITIVE_CHARTS for ch in self.fields)

    def field(self, state: State, y) -> np.ndarray:
        """The velocity at ``y`` in the chart of ``state``, in the shape of
        ``y``: one (d,) coordinate row, or a (d, N) block whose columns are
        N points, as ``field(block, block.columns)``, so that the integrator
        steps plain rows.  On a real block each column has the bits of its
        own row call; see ``systems`` for complex blocks."""
        return self._on_chart(state)(state, y, self.spectrum)

    def invariants(self, state: State) -> dict[str, Column]:
        """The named invariants available for this system on the state's
        chart, as its ``named_invariants`` table; ``invariant_columns`` and
        ``invariant_gradients`` evaluate them."""
        self._on_chart(state)
        return self.named_invariants(self, state)

    def invariant_columns(self, block: State, names) -> dict[str, list[complex]]:
        """The named invariants at each of the N states of ``block``, each name
        once, in first-seen order.  The invariants sharing an evaluator (the
        trace powers of one Lax matrix) take one stack of L and one power
        chain; ``simulate`` hands in one block at a time."""
        out = dict.fromkeys(names)
        for evaluate, group, keys in self._grouped(block, out, "evaluate"):
            out.update(zip(group, evaluate(block, keys)))
        return out

    def invariant_gradients(self, block: State, names) -> dict[str, np.ndarray]:
        """The (N, d) gradient of each named invariant at the states of
        ``block``, one call per group of ``invariant_columns``; a name without
        a gradient raises ValueError."""
        return {name: grad for gradient, group, keys in self._grouped(block, names, "gradient")
                for name, grad in zip(group, gradient(block, keys))}

    def _grouped(self, state: State, names, kind: str) -> list[tuple[Callable, list[str], list]]:
        """(callable, names, keys) per ``kind`` callable the named invariants share."""
        self._on_chart(state)
        table, groups = self.named_invariants(self, state), {}
        for name in dict.fromkeys(names):
            fn = getattr(table[name], kind)
            if fn is None:
                raise ValueError(f"invariant {name!r} of system {self.key!r} has no {kind}")
            groups.setdefault(fn, []).append(name)
        return [(fn, group, [table[name].key for name in group]) for fn, group in groups.items()]

    def _on_chart(self, state: State) -> Callable:
        fn = self.fields.get(state.chart)
        if fn is None:
            raise ChartMismatch(f"system {self.key!r} does not accept chart {state.chart!r}")
        return fn


def _traces(builder, orders, grading: int = 1) -> dict[str, Column]:
    """H_k = tr(L^{grading k}) / k for each order k, L from a Lax builder.

    vd takes grading 2 (its v-degree grading): its odd-power traces vanish.
    """
    def evaluate(block, ks):
        compiled, x = builder(block), block.columns  # L alone: B is not read
        return lax.trace_columns(compiled.L.assemble(compiled.table.size, x, compiled.table.roots(x)), ks, grading)

    def gradient(block, ks):
        return grading * lax.grad_trace_invariant(builder, block, [grading * k for k in ks])

    return {f"H{k}": Column(evaluate, k, gradient) for k in orders}


def _hamiltonian(name: str):
    """Named invariants of a (q, p) system: its Hamiltonian ``H``."""
    return lambda system, state: {"H": _closed_form(systems.hamiltonian_column, name)}


def _null_integrals(system: LatticeSystem, state: State):
    """F1 and F2 of the spectrum's first null combination, if it has one."""
    basis = null_combination(system.spectrum) if system.spectrum is not None else []
    if not basis:
        return {}

    def evaluate(block, keys):
        columns = systems.integrals_F1_F2_columns(block, basis[0])
        return [columns[k] for k in keys]

    return {"F1": Column(evaluate, 0), "F2": Column(evaluate, 1)}


def _toda_invariants(system: LatticeSystem, state: State):
    if state.chart == QP:
        return _hamiltonian("toda")(system, state)
    return _traces(system.lax, range(1, state.dim // 2 + 2))


# Fields, called as (State, row or columns, spectrum), look ``systems.*_field``
# up at call time, so a wrapper on the systems module sees every evaluation.
SYSTEMS = {system.key: system for system in (
    LatticeSystem("km", {VOLTERRA_U: lambda s, y, _: systems.km_field(s, y)},
                  lambda km, s: _traces(km.lax, range(2, s.dim + 2, 2)), lax=lax.km_lax, list_charts=(VOLTERRA_U,)),
    *(LatticeSystem(f"bv-{fam}", {VOLTERRA_U: lambda s, y, _, f=fam.upper(): systems.bv_field(f, s, y)},
                    list_charts=(VOLTERRA_U,))
      for fam in "abcd"),
    *(LatticeSystem(f"c-{fam}", {C_VARS: lambda s, y, _, f=fam.upper(): systems.c_field(f, s, y)})
      for fam in "abcd"),
    LatticeSystem("vd", {VOLTERRA_V: lambda s, y, _: systems.vd_field(s, y)},
                  lambda vd, s: {**_traces(vd.lax, range(2, s.dim, 2), 2),
                                 "F": _closed_form(lax.casimir_F_column, gradient=lax.grad_casimir_F)},
                  lax=lax.vd_lax, list_charts=(VOLTERRA_V,)),
    LatticeSystem("ab", {FLASCHKA_AB: lambda s, y, _: systems.ab_field(s, y)},
                  lambda ab, s: {**_traces(ab.lax, range(2, s.dim + 1, 2)),
                                 "C": _closed_form(lax.casimir_C_column, gradient=lax.grad_casimir_C)},
                  lax=lax.ab_lax, list_charts=(FLASCHKA_AB,)),
    LatticeSystem("spectrum", {FLASCHKA_AB: lambda s, y, spectrum: systems.spectrum_field(spectrum, s, y)},
                  _null_integrals),
    LatticeSystem("toda", {QP: lambda s, y, _: systems.qp_field("toda", s, y),
                           FLASCHKA_AB: lambda s, y, _: systems.toda_ab_field(s, y)},
                  _toda_invariants, lax=lax.toda_lax, list_charts=(FLASCHKA_AB,)),
    LatticeSystem("sklyanin", {QP: lambda s, y, _: systems.qp_field("sklyanin", s, y)}, _hamiltonian("sklyanin")),
    LatticeSystem("sklyanin-full", {QP: lambda s, y, _: systems.qp_field("sklyanin_full", s, y)},
                  _hamiltonian("sklyanin_full")),
)}

SYSTEM_KEYS = tuple(SYSTEMS)


class LenardPair(NamedTuple):
    """The Poisson pencil pi1, pi3 of a catalog row: pi3 grad H2 = pi1 grad
    (scale H4), with H2 and H4 the row's named invariants, and ``casimir``
    the name of the row's invariant that pi1 annihilates.

    The ladder pins the scale: the (a, b) row's H4 = tr(L^4)/4 needs 2, and
    the v row's v-degree graded H_k = tr(L^{2k})/k needs 1.  The chart and
    its admissible sizes are those of the structures: pi1-v, and so the
    v-chart ladder, needs odd n.
    """

    pi1: poisson.PoissonStructure
    pi3: poisson.PoissonStructure
    row: LatticeSystem
    scale: int
    casimir: str


#: The Lenard ladders of the vd and ab systems, keyed by the short chart name:
#: the one place that pairs a pencil with its row and its Casimir.
LENARD = {
    "v": LenardPair(poisson.STRUCTURES["pi1-v"], poisson.STRUCTURES["pi3-v"], SYSTEMS["vd"], 1, "F"),
    "ab": LenardPair(poisson.STRUCTURES["pi1-ab"], poisson.STRUCTURES["pi3-ab"], SYSTEMS["ab"], 2, "C"),
}


def get_system(key: str, spectrum: Spectrum | None = None) -> LatticeSystem:
    """Look up a system by its public identifier; 'spectrum' needs a spectrum."""
    if key not in SYSTEMS:
        raise ValueError(f"unknown system {key!r}")
    if key != "spectrum":
        return SYSTEMS[key]
    if spectrum is None:
        raise ValueError("system 'spectrum' requires a spectrum")
    return replace(SYSTEMS[key], spectrum=spectrum)
