"""Workloads of the lattice-flows benchmark: seeded CLI argv plus output checks.

An op is one in-process call to ``lattice_flows.cli.main(argv)``.  Each
workload turns (workload seed, op index) into an :class:`Op` carrying the
argv, the work it represents and a check on its stdout.  Ops come in cycles;
the runner only stops at a cycle boundary, so every run of a workload has
the same op mix.  See README.md for why each workload exists.

Two workloads: ``simulate-mix`` alternates the two simulate op shapes below
(fixed-step RK4 with invariant columns, adaptive Fehlberg on complex states)
and ``verify-mix`` cycles through 13 verify suites.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Conservation bounds the checks enforce (relative to the t = 0 value).
# The seed code's drift is below 1e-12 (RK4) and 2e-14 (Fehlberg).
RK4_INVARIANT_DRIFT = 1e-10
FEHLBERG_H_DRIFT = 1e-8  # ten times the requested rtol
# Closed-form H2 and C against the CSV's invariant columns, per row.
CLOSED_FORM_REL = 1e-12
# Fixed-step time grid: t_k = k dt up to accumulated rounding.
GRID_ABS = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call: argv, its work (model time or sampled states), its check."""

    argv: tuple[str, ...]
    work: float
    check: Callable[[str], str | None]  # stdout -> failure reason, or None


@dataclass
class Outcome:
    wall: float
    out: str
    error: str | None


def execute(main, op: Op) -> Outcome:
    """Run one op with stdout captured; only the ``main`` call is timed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = main(list(op.argv))
            wall = time.perf_counter() - t0
    except Exception:  # a crashing op is a failed op, not the end of the run
        return Outcome(0.0, out.getvalue(), "raised: " + traceback.format_exc(limit=3))
    text = out.getvalue()
    if rc != 0:
        return Outcome(wall, text, f"exit code {rc}: {err.getvalue().strip()[:300]}")
    try:
        error = op.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        error = f"unreadable output: {exc!r}"
    return Outcome(wall, text, error)


@dataclass
class Tally:
    """Ops attempted and failed; only passing ops contribute timings and work."""

    walls: list[float] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op.argv[:4])}: {outcome.error}")
            return
        self.walls.append(outcome.wall)
        self.work += op.work

    def add_counts(self, other: "Tally") -> None:
        """Take over another tally's op counts and failures, not its timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


# ---------------------------------------------------------------------------
# CSV checks shared by the simulate workloads
# ---------------------------------------------------------------------------

def parse_csv(text: str, header: list[str]) -> tuple[np.ndarray | None, str | None]:
    """Rows of a trajectory CSV as a complex array, or the reason it is malformed."""
    if not text.endswith("\n"):
        return None, "CSV does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        return None, f"header {lines[0]!r} != {','.join(header)!r}"
    if len(lines) < 2:
        return None, "CSV has no rows"
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            return None, f"row {k} has {len(cells)} cells, expected {len(header)}"
        row = [complex(c) for c in cells]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in row):
            return None, f"row {k} has a non-finite cell"
        rows.append(row)
    return np.array(rows), None


def relative_drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0])) / max(abs(values[0]), 1e-300))


def check_time_axis(t: np.ndarray, t_end: float, dt: float | None) -> str | None:
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        return "t does not start at 0 and increase"
    if abs(t[-1] - t_end) > 1e-12 * max(1.0, t_end):
        return f"last t = {t[-1]!r}, expected {t_end}"
    if dt is not None:
        steps = math.ceil(t_end / dt - 1e-9)
        if len(t) != steps + 1:
            return f"{len(t)} rows, expected {steps + 1} on the dt grid"
        if np.max(np.abs(t - np.minimum(dt * np.arange(len(t)), t_end))) > GRID_ABS:
            return "t is off the fixed-step grid"
    return None


def check_first_row(row: np.ndarray, state: np.ndarray) -> str | None:
    if not np.array_equal(row, state):
        return "first row differs from the initial state"
    return None


# ---------------------------------------------------------------------------
# simulate op shapes
# ---------------------------------------------------------------------------

class SimulateRK4Inv:
    """Boundary-perturbed (a, b) chain, m = 3, fixed RK4 with every invariant column."""

    m = 3
    t_end = 1.0
    dt = 1e-3
    invariants = ("H2", "H4", "H6", "C")

    def header(self) -> list[str]:
        m = self.m
        return (["t"] + [f"a{i + 1}" for i in range(m + 1)] + [f"b{i + 1}" for i in range(m)]
                + list(self.invariants))

    def op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng([seed, index])
        a = rng.uniform(0.2, 1.0, self.m + 1)
        b = rng.uniform(-0.5, 0.5, self.m)
        argv = ("simulate", "--system", "ab", "--m", str(self.m),
                "--state", json.dumps({"a": a.tolist(), "b": b.tolist()}),
                "--t", repr(self.t_end), "--dt", repr(self.dt),
                "--invariants", ",".join(self.invariants))
        return Op(argv, self.t_end, lambda out: self.check(out, np.concatenate([a, b])))

    def check(self, out: str, state: np.ndarray) -> str | None:
        rows, error = parse_csv(out, self.header())
        if error:
            return error
        m = self.m
        error = check_time_axis(rows[:, 0].real, self.t_end, self.dt) or check_first_row(
            rows[0, 1:2 * m + 2], state)
        if error:
            return error
        a, b = rows[:, 1:m + 2], rows[:, m + 2:2 * m + 2]
        inv = rows[:, 2 * m + 2:]
        for j, name in enumerate(self.invariants):
            drift = relative_drift(inv[:, j])
            if drift > RK4_INVARIANT_DRIFT:
                return f"{name} drifts by {drift:.3g} relative"
        # Independent closed forms: tr(L^2)/2 and the Casimir of the linear bracket.
        h2 = np.sum(b**2, axis=1) + a[:, 0]**2 + 2 * np.sum(a[:, 1:-1]**2, axis=1) + a[:, -1]**2
        c = a[:, 0] * np.prod(a[:, 1:-1]**2, axis=1) * a[:, -1]
        for name, col, ref in (("H2", inv[:, 0], h2), ("C", inv[:, 3], c)):
            err = np.max(np.abs(col - ref) / np.maximum(np.abs(ref), 1e-300))
            if err > CLOSED_FORM_REL:
                return f"{name} column differs from its closed form by {err:.3g} relative"
        return None


class SimulateFehlberg:
    """Complex Sklyanin-type chain in (q, p), 5 degrees of freedom, adaptive Fehlberg."""

    n = 5
    t_end = 0.5
    rtol = 1e-9

    def header(self) -> list[str]:
        return ["t"] + [f"q{i + 1}" for i in range(self.n)] + [f"p{i + 1}" for i in range(self.n)]

    def op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng([seed, index])
        n = self.n
        q = rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.1, 0.1, n)
        p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.1, 0.1, n)
        doc = {"q": [[z.real, z.imag] for z in q], "p": [[z.real, z.imag] for z in p]}
        argv = ("simulate", "--system", "sklyanin", "--n", str(n), "--state", json.dumps(doc),
                "--t", repr(self.t_end), "--adaptive", "--rtol", repr(self.rtol))
        return Op(argv, self.t_end, lambda out: self.check(out, np.concatenate([q, p])))

    def check(self, out: str, state: np.ndarray) -> str | None:
        from lattice_flows.states import qp_state
        from lattice_flows.systems import hamiltonian_eval

        rows, error = parse_csv(out, self.header())
        if error:
            return error
        error = check_time_axis(rows[:, 0].real, self.t_end, None) or check_first_row(
            rows[0, 1:], state)
        if error:
            return error
        n = self.n
        h = np.array([hamiltonian_eval("sklyanin", qp_state(r[1:n + 1], r[n + 1:])) for r in rows])
        drift = relative_drift(h)
        if drift > FEHLBERG_H_DRIFT:
            return f"H drifts by {drift:.3g} relative"
        return None


class SimulateMix:
    """Op i is the RK4 shape for even i and the Fehlberg shape for odd i."""

    name = "simulate-mix"
    shapes = (SimulateRK4Inv(), SimulateFehlberg())
    cycle = len(shapes)

    def op(self, seed: int, index: int) -> Op:
        return self.shapes[index % self.cycle].op(seed, index)


# ---------------------------------------------------------------------------
# verify-mix: one verify suite per op, cycling through a fixed list
# ---------------------------------------------------------------------------

# (argv after "verify", --states, records per report).  State counts put
# every op near 0.1-0.2 s on a 2-core x86 host, with Jacobi/compatibility
# weighted heaviest; records > 1 where a suite sweeps two lambdas or pairs.
VERIFY_SUITES = (
    (("jacobi", "--structure", "pi3-v", "--n", "15"), 20, 1),
    (("jacobi", "--structure", "pi1-v", "--n", "15"), 16, 1),
    (("jacobi", "--structure", "pi3-v", "--n", "25"), 2, 1),
    (("compat", "--chart", "ab", "--m", "7"), 5, 2),
    (("lenard", "--chart", "v", "--n", "15"), 40, 1),
    (("lenard", "--chart", "ab", "--m", "7"), 60, 1),
    (("involution", "--m", "7"), 30, 2),
    (("lax", "--system", "vd", "--n", "15"), 200, 1),
    (("lax", "--system", "ab", "--m", "7"), 250, 1),
    (("casimir", "--structure", "pi1-v", "--n", "15"), 150, 1),
    (("transform", "--map", "d-map", "--n", "15"), 40, 1),
    (("transform", "--map", "c-to-v", "--n", "15"), 150, 1),
    (("transform", "--map", "flaschka-general", "--n", "7"), 40, 1),
)


class VerifyMix:
    name = "verify-mix"
    cycle = len(VERIFY_SUITES)

    def __init__(self):
        self.first_report: dict[tuple[str, ...], str] = {}

    def op(self, seed: int, index: int) -> Op:
        slot = index % self.cycle
        suite, states, records = VERIFY_SUITES[slot]
        op_seed = int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])
        argv = ("verify",) + suite + ("--states", str(states), "--seed", str(op_seed))
        return Op(argv, float(states * records),
                  lambda out: self.check(out, argv, op_seed, states, records))

    def check(self, out, argv, op_seed, states, records) -> str | None:
        report = json.loads(out)
        if report.get("pass") is not True:
            return "report does not pass"
        if report.get("schema") != 1 or report.get("seed") != op_seed or report.get("suite") != argv[1]:
            return "report header does not match the op"
        recs = report.get("records", [])
        if len(recs) != records or any(r.get("pass") is not True or r.get("n_states") != states
                                       for r in recs):
            return "report records do not match the op"
        if self.first_report.setdefault(argv, out) != out:
            return "report bytes differ from an earlier run of the same suite and seed"
        return None


WORKLOADS = {w.name: w for w in (SimulateMix, VerifyMix)}
