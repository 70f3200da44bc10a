"""Spectra of exponential-interaction systems and their combinatorics.

A spectrum is a finite list of nonzero vectors in R^n.  From it we derive
the Gram matrix, a Dynkin-type multigraph (edge multiplicities from the
angle formula), the Kozlov-Treshchev integrability condition on pairwise
ratios, and null combinations of the vectors.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DimensionError, NonIntegerMultiplicity

#: Default tolerance when an expression must sit on an integer.
INTEGER_TOL = 1e-9

#: Two vectors count as sharing a direction below this residual.
DIRECTION_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """A list of nonzero vectors in R^n, optionally labeled."""

    dimension: int
    vectors: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        vecs = tuple(tuple(float(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if self.dimension < 1:
            raise DimensionError("spectrum dimension must be positive")
        if not vecs:
            raise DimensionError("spectrum must contain at least one vector")
        for v in vecs:
            if len(v) != self.dimension:
                raise DimensionError(f"vector {v} does not live in R^{self.dimension}")
            if not any(x != 0.0 for x in v):
                raise DimensionError("spectrum vectors must be nonzero")
        if self.labels is not None and len(self.labels) != len(vecs):
            raise DimensionError("one label per vector required")

    @property
    def count(self) -> int:
        return len(self.vectors)

    @property
    def matrix(self) -> np.ndarray:
        """Vectors as rows of an (N, n) array."""
        return np.asarray(self.vectors, dtype=float)

    @cached_property
    def gram(self) -> np.ndarray:
        """``gram_matrix`` of this spectrum, computed once and read-only."""
        m = gram_matrix(self)
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class DynkinTypeDiagram:
    """Vertex weights (min-normalized squared lengths) and edge multiplicities."""

    weights: tuple[float, ...]
    multiplicities: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int, int]]:
        """Edges as (i, j, multiplicity) with i < j and multiplicity > 0."""
        out = []
        n = len(self.weights)
        for i in range(n):
            for j in range(i + 1, n):
                m = self.multiplicities[i][j]
                if m:
                    out.append((i, j, m))
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the Kozlov-Treshchev pairwise-ratio check."""

    passed: bool
    violations: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)


def gram_matrix(spectrum: Spectrum) -> np.ndarray:
    """Gram matrix M_ij = (v_i, v_j); each unordered pair computed once."""
    vecs = spectrum.matrix
    n = spectrum.count
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = float(np.dot(vecs[i], vecs[j]))
    return m


def _check_tol(tol: float) -> None:
    """Reject a tolerance that passes every ratio (NaN, inf) or flags integers (< 0)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def build_diagram(spectrum: Spectrum, tol: float = INTEGER_TOL) -> DynkinTypeDiagram:
    """Dynkin-type diagram: 4 (v_i, v_j)^2 / ((v_i, v_i)(v_j, v_j)) edges per pair.

    Vertex weights are the squared lengths rescaled so the minimum is 1.
    Raises NonIntegerMultiplicity when an edge count strays from an integer
    by more than ``tol``, which signals a spectrum outside this family, and
    ValueError when ``tol`` is not finite and nonnegative.
    """
    _check_tol(tol)
    m = spectrum.gram
    norms = np.diag(m)
    n = spectrum.count
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw = 4.0 * m[i, j] ** 2 / (norms[i] * norms[j])
            k = round(raw)
            if abs(raw - k) > tol:
                raise NonIntegerMultiplicity(
                    f"edge count {raw!r} between vertices {i} and {j} is not an integer"
                )
            mult[i][j] = mult[j][i] = int(k)
    weights = tuple(norms / norms.min())
    return DynkinTypeDiagram(weights, tuple(tuple(row) for row in mult))


def _direction_groups(vecs: np.ndarray) -> list[list[int]]:
    """Group vector indices sharing a direction (positive ray)."""
    units = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    groups: list[list[int]] = []
    for i, u in enumerate(units):
        for g in groups:
            if np.linalg.norm(u - units[g[0]]) < DIRECTION_TOL:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def kozlov_treshchev_check(spectrum: Spectrum, tol: float = INTEGER_TOL) -> ConditionReport:
    """Check the necessary integrability condition on a spectrum.

    For every maximal vector v_i (greatest length within its direction) and
    every v_j linearly independent of v_i, the ratio 2 (v_i, v_j) / (v_i, v_i)
    must lie within ``tol``, finite and nonnegative, of a nonpositive integer.
    """
    _check_tol(tol)
    vecs = spectrum.matrix
    norms = np.linalg.norm(vecs, axis=1)
    units = vecs / norms[:, None]
    maximal = set()
    for g in _direction_groups(vecs):
        maximal.add(max(g, key=lambda i: norms[i]))
    violations = []
    for i in sorted(maximal):
        for j in range(spectrum.count):
            if j == i:
                continue
            collinear = (
                np.linalg.norm(units[j] - units[i]) < DIRECTION_TOL
                or np.linalg.norm(units[j] + units[i]) < DIRECTION_TOL
            )
            if collinear:
                continue
            ratio = float(2.0 * spectrum.gram[i, j] / spectrum.gram[i, i])
            nearest = round(ratio)
            if abs(ratio - nearest) > tol or nearest > 0:
                violations.append((i, j, ratio))
    return ConditionReport(passed=not violations, violations=tuple(violations))


def null_combination(spectrum: Spectrum) -> list[np.ndarray]:
    """Basis of {lambda : sum_i lambda_i v_i = 0} by elimination with partial pivoting.

    Each basis vector is scaled so its first nonzero entry equals 1; the empty
    list signals independent vectors.
    """
    a = spectrum.matrix.T.copy()  # n x N, columns are the vectors
    rows, cols = a.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[pivot, c]) < 1e-12:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] / a[r, c]
        for rr in range(rows):
            if rr != r and a[rr, c] != 0.0:
                a[rr] -= a[rr, c] * a[r]
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        lam = np.zeros(cols)
        lam[fc] = 1.0
        for row, pc in enumerate(pivot_cols):
            lam[pc] = -a[row, fc]
        first = lam[np.nonzero(lam)[0][0]]
        basis.append(lam / first)
    return basis


#: The walls of each (q, p) chain H = 1/2 |p|^2 + sum_v e^{(v, q)} beside the chain
#: terms e^{q_i - q_{i+1}}: groups of (end, ws), a term e^{w q_end} for each w in ws,
#: end 0 the first q and -1 the last.  H adds each group's sum in turn, dH/dq each
#: end's, and the spectrum lists the walls in this order after the chain's vectors.
QP_WALLS = {
    "toda": (),
    "sklyanin": (((0, (-2.0,)),), ((-1, (2.0,)),)),
    "sklyanin_full": (((0, (-1.0, -2.0)), (-1, (1.0, 2.0))),),
}


def potential_spectrum(n: int, walls) -> Spectrum:
    """The exponents v of a (q, p) chain's potential in R^n: e_1 - e_2, ...,
    e_{n-1} - e_n, then w e_end for each wall of the groups ``walls``."""
    chain = [tuple(float(j == i) - float(j == i + 1) for j in range(n)) for i in range(n - 1)]
    ends = [tuple(w if j == end % n else 0.0 for j in range(n)) for group in walls for end, ws in group for w in ws]
    return Spectrum(n, tuple(chain + ends))


@cache
def open_chain_spectrum(n: int) -> Spectrum:
    """The open Toda chain's spectrum in R^n, built once per n and shared: a Spectrum is frozen."""
    return potential_spectrum(n, QP_WALLS["toda"])


@cache
def sklyanin_spectrum(n: int) -> Spectrum:
    """The doubly boundary-perturbed Toda chain's spectrum in R^n, built once per n and shared."""
    if n < 2:
        raise DimensionError("sklyanin_spectrum requires n >= 2")
    return potential_spectrum(n, QP_WALLS["sklyanin"])


def spectrum_from_json(text: str) -> Spectrum:
    """Parse a spectrum document: {"dimension": n, "vectors": [[...], ...]}.

    The dimension and every vector entry must be numbers that a float holds
    finitely (booleans are not numbers here), and the optional labels a list
    of strings, one per vector; anything else raises ValueError or, for a
    label count that is not the vector count, DimensionError.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"a spectrum document must be a JSON object, got {obj!r}")
    vectors = obj["vectors"]
    if not (isinstance(vectors, list) and all(isinstance(v, list) for v in vectors)):
        raise ValueError(f"spectrum vectors must be a list of lists, got {vectors!r}")
    for x in (obj["dimension"], *(x for v in vectors for x in v)):
        # NaN compares false, and an int beyond the float range does not fit
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"spectrum entry {x!r} is not a finite number")
    labels = obj.get("labels")
    if "labels" in obj and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"spectrum labels must be a list of strings, got {labels!r}")
    labels = None if labels is None else tuple(labels)
    return Spectrum(dimension=int(obj["dimension"]), vectors=tuple(map(tuple, vectors)), labels=labels)


def spectrum_to_json(spectrum: Spectrum) -> str:
    obj = {"dimension": spectrum.dimension, "vectors": [list(v) for v in spectrum.vectors]}
    if spectrum.labels is not None:
        obj["labels"] = list(spectrum.labels)
    return json.dumps(obj)
