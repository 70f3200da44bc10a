"""Identified systems: one registry of fields per chart and named invariants.

``SYSTEMS`` maps each public system identifier (km, bv-a..bv-d, c-a..c-d,
vd, ab, spectrum, toda, sklyanin, sklyanin-full) to its vector field on
each chart it accepts and to the invariants the CLI can track along
trajectories.  An invariant is evaluated as a column, down an (N, d) block
of coordinate rows at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import lax, systems
from .errors import ChartMismatch, DimensionError
from .rootdata import Spectrum, null_combination
from .states import C_VARS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, State, ab_state, c_state, qp_state, u_state, v_state

_POSITIVE_CHARTS = (VOLTERRA_U, VOLTERRA_V, C_VARS)

#: Rows per block when invariant columns are evaluated, so the (N, T, T) Lax
#: stacks keep one size however many rows a trajectory has.
COLUMN_BLOCK_ROWS = 128


class Column(NamedTuple):
    """How to evaluate one named invariant over a block of rows.

    ``evaluate(state, rows, keys)`` returns one list of values per key for an
    (N, d) block ``rows`` in the chart of ``state``.  Invariants that share
    an ``evaluate`` (the trace powers of one Lax matrix) are evaluated in one
    call; ``key`` tells them apart.
    """

    evaluate: Callable
    key: object = None


def _closed_form(fn, *args) -> Column:
    """A Column for a single column function fn(*args, state, rows)."""
    return Column(lambda state, rows, keys: [fn(*args, state, rows)])


@dataclass(frozen=True)
class LatticeSystem:
    """A vector field on each chart it accepts, plus its named invariants.

    ``fields`` maps a chart to a callable (state, spectrum) -> ndarray and
    ``named_invariants`` maps (state, spectrum) to {name: Column};
    ``spectrum`` parametrises the 'spectrum' system.  Dimension is carried
    by the states themselves; every entry accepts any admissible size of its
    charts.
    """

    key: str
    fields: dict
    named_invariants: Callable = lambda state, spectrum: {}
    spectrum: Spectrum | None = None

    @property
    def charts(self) -> tuple[str, ...]:
        return tuple(self.fields)

    @property
    def positive(self) -> bool:
        return all(ch in _POSITIVE_CHARTS for ch in self.fields)

    def field(self, state: State) -> np.ndarray:
        return self._on_chart(state)(state, self.spectrum)

    def invariants(self, state: State) -> dict[str, Callable[[State], complex]]:
        """Named invariants available for this system on the state's chart.

        Each is a State -> complex callable: its column at a one-row block.
        """
        self._on_chart(state)
        return {name: lambda s, name=name: self.invariant_columns(s, [name], s.array[None])[name][0]
                for name in self.named_invariants(state, self.spectrum)}

    def invariant_columns(self, state: State, names, rows) -> dict[str, list[complex]]:
        """The named invariants at every row of ``rows``, (N, d) in the chart of ``state``.

        Rows go in blocks of COLUMN_BLOCK_ROWS, and the invariants sharing an
        evaluator (the trace powers of one Lax matrix) are evaluated together,
        one stack of L and one power chain per block.
        """
        self._on_chart(state)
        table = self.named_invariants(state, self.spectrum)
        groups = {}
        for name in names:
            groups.setdefault(table[name].evaluate, []).append(name)
        out = {name: [] for name in names}
        for lo in range(0, len(rows), COLUMN_BLOCK_ROWS):
            block = rows[lo : lo + COLUMN_BLOCK_ROWS]
            for evaluate, group in groups.items():
                for name, column in zip(group, evaluate(state, block, [table[n].key for n in group])):
                    out[name] += column
        return out

    def _on_chart(self, state: State) -> Callable:
        fn = self.fields.get(state.chart)
        if fn is None:
            raise ChartMismatch(f"system {self.key!r} does not accept chart {state.chart!r}")
        return fn


def _traces(lax_key: str, orders, grading: int = 1) -> dict[str, Column]:
    """H_k = tr(L^{grading k}) / k for each order k.

    vd takes grading 2 (its v-degree grading): its odd-power traces vanish.
    """
    def evaluate(state, rows, ks):
        return lax.trace_columns(lax.lax_stack(lax_key, state, rows), ks, grading)

    return {f"H{k}": Column(evaluate, k) for k in orders}


def _hamiltonian(name: str):
    """Named invariants of a (q, p) system: its Hamiltonian ``H``."""
    return lambda state, spectrum: {"H": _closed_form(systems.hamiltonian_column, name)}


def _null_integrals(state: State, spectrum: Spectrum | None):
    """F1 and F2 of the spectrum's first null combination, if it has one."""
    basis = null_combination(spectrum) if spectrum is not None else []
    if not basis:
        return {}

    def evaluate(state, rows, keys):
        columns = systems.integrals_F1_F2_columns(state, basis[0], rows)
        return [columns[k] for k in keys]

    return {"F1": Column(evaluate, 0), "F2": Column(evaluate, 1)}


def _toda_invariants(state: State, spectrum):
    if state.chart == QP:
        return _hamiltonian("toda")(state, spectrum)
    return _traces("toda", range(1, state.dim // 2 + 2))


# Fields look ``systems.*_field`` up at call time, so a wrapper installed on
# the systems module (e.g. by a profiler) sees every evaluation.
SYSTEMS = {system.key: system for system in (
    LatticeSystem("km", {VOLTERRA_U: lambda s, _: systems.km_field(s)},
                  lambda s, _: _traces("km", range(2, s.dim + 2, 2))),
    *(LatticeSystem(f"bv-{fam}", {VOLTERRA_U: lambda s, _, f=fam.upper(): systems.bv_field(f, s)})
      for fam in "abcd"),
    *(LatticeSystem(f"c-{fam}", {C_VARS: lambda s, _, f=fam.upper(): systems.c_field(f, s)})
      for fam in "abcd"),
    LatticeSystem("vd", {VOLTERRA_V: lambda s, _: systems.vd_field(s)},
                  lambda s, _: {**_traces("vd", range(2, s.dim, 2), 2), "F": _closed_form(lax.casimir_F_column)}),
    LatticeSystem("ab", {FLASCHKA_AB: lambda s, _: systems.ab_field(s)},
                  lambda s, _: {**_traces("ab", range(2, s.dim + 1, 2)), "C": _closed_form(lax.casimir_C_column)}),
    LatticeSystem("spectrum", {FLASCHKA_AB: lambda s, spectrum: systems.spectrum_field(spectrum, s)},
                  _null_integrals),
    LatticeSystem("toda", {QP: lambda s, _: systems.qp_field("toda", s),
                           FLASCHKA_AB: lambda s, _: systems.toda_ab_field(s)}, _toda_invariants),
    LatticeSystem("sklyanin", {QP: lambda s, _: systems.qp_field("sklyanin", s)}, _hamiltonian("sklyanin")),
    LatticeSystem("sklyanin-full", {QP: lambda s, _: systems.qp_field("sklyanin_full", s)},
                  _hamiltonian("sklyanin_full")),
)}

SYSTEM_KEYS = tuple(SYSTEMS)


def get_system(key: str, spectrum: Spectrum | None = None) -> LatticeSystem:
    """Look up a system by its public identifier; 'spectrum' needs a spectrum."""
    if key not in SYSTEMS:
        raise ValueError(f"unknown system {key!r}")
    if key != "spectrum":
        return SYSTEMS[key]
    if spectrum is None:
        raise ValueError("system 'spectrum' requires a spectrum")
    return replace(SYSTEMS[key], spectrum=spectrum)


def _is_number(x, kind=numbers.Number) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def state_from_dict(obj: dict) -> State:
    """Build a State from a JSON-style dict keyed by coordinate-group names.

    Accepted forms: {"q": [...], "p": [...]}, {"a": [...], "b": [...]},
    {"u": [...]}, {"v": [...]}, {"c": [...]}.  Entries may be numbers or
    [re, im] pairs of real numbers; booleans are not numbers here.  Anything
    else raises ValueError.
    """

    def group(name):
        values = obj[name]
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"state group {name!r} must be a list, got {values!r}")
        return [scal(x) for x in values]

    def scal(x):
        if isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(v, numbers.Real) for v in x):
            return complex(*x)
        if _is_number(x):
            return complex(x)
        raise ValueError(f"state entry {x!r} is not a number or an [re, im] pair")

    if not isinstance(obj, dict):
        raise ValueError(f"a state document must be a JSON object, got {obj!r}")
    keys = set(obj)
    if keys == {"q", "p"}:
        return qp_state(group("q"), group("p"))
    if keys == {"a", "b"}:
        return ab_state(group("a"), group("b"))
    if keys == {"u"}:
        return u_state(group("u"))
    if keys == {"v"}:
        return v_state(group("v"))
    if keys == {"c"}:
        return c_state(group("c"))
    raise DimensionError(f"unrecognized state document keys {sorted(keys)}")
