"""Command-line front end: simulate any system, run any verification suite.

Exit codes: 0 = success / all checks pass, 1 = verification failure or a
domain/step failure during simulation, 2 = usage errors.  Reports are JSON
documents with a top-level schema version; given the same seed they are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import lax, poisson, transforms
from .catalog import LENARD, SYSTEM_KEYS, SYSTEMS, LatticeSystem, get_system
from .errors import DomainExit, LatticeError, StepFailure
from .integrate import AdaptiveStep, FixedStep, integrate, trajectory_csv
from .rootdata import (INTEGER_TOL, kozlov_treshchev_check, open_chain_spectrum, sklyanin_spectrum,
                       spectrum_from_json)
from .states import (C_VARS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, State, ab_state, coordinate_columns,
                     state_from_dict)

RNG_NAME = "numpy-pcg64"


def main(argv=None) -> int:
    parser = _build_parser()  # built once per process
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader is gone: say nothing more, and let the exit flush write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (LatticeError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, (DomainExit, StepFailure)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lattice-flows", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a system and emit a trajectory CSV")
    sim.add_argument("--system", required=True, choices=SYSTEM_KEYS)
    sim.add_argument("--state", required=True, help="inline JSON state or @file")
    sim.add_argument("--t", type=float, required=True, help="end time")
    sim.add_argument("--dt", type=float, default=None, help="fixed RK4 step")
    sim.add_argument("--adaptive", action="store_true", help="embedded 4(5) stepping")
    sim.add_argument("--rtol", type=float, default=1e-9)
    sim.add_argument("--atol", type=float, default=1e-12)
    sim.add_argument("--invariants", default="", help="comma-separated invariant columns")
    sim.add_argument("--m", type=int, default=None, help="expected number of b's (validation)")
    sim.add_argument("--n", type=int, default=None, help="expected chain length (validation)")
    sim.add_argument("--spectrum", default=None, help="spectrum JSON file (system 'spectrum')")
    sim.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sim.set_defaults(run=_run_simulate)

    ver = sub.add_parser("verify", help="run a residual verification suite")
    vsub = ver.add_subparsers(dest="suite", required=True)
    for name, suite in SUITES.items():
        p = vsub.add_parser(name)
        if suite.selector:
            p.add_argument(suite.selector, required=True, dest="selector", choices=tuple(suite.checks))
        for flag, default in suite.options:
            p.add_argument(flag, type=type(default), default=default)
        p.add_argument("--states", type=int, default=suite.states)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(run=_run_verify)

    p = vsub.add_parser("spectrum")
    p.add_argument("--file", default=None, help="spectrum JSON document")
    p.add_argument("--sklyanin", type=int, default=None, help="use the built-in spectrum of this size")
    p.add_argument("--tol", type=float, default=INTEGER_TOL)
    p.set_defaults(run=_verify_spectrum)

    return parser


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_simulate(args) -> int:
    text = args.state
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    state = state_from_dict(json.loads(text))

    spectrum = None
    if args.spectrum is not None:
        with open(args.spectrum) as fh:
            spectrum = spectrum_from_json(fh.read())
    system = get_system(args.system, spectrum=spectrum)
    sizes = {"--m": args.m, "--n": args.n}  # --m sizes an (a, b) state by its b's, --n any other state
    flag, other = ("--m", "--n") if state.chart == FLASCHKA_AB else ("--n", "--m")
    if sizes[other] is not None:
        raise ValueError(f"{other} does not apply to a {state.chart} state; its size flag is {flag}")
    size = state.dim - state.split if flag == "--m" else state.split if state.chart == QP else state.dim
    if sizes[flag] not in (None, size):
        raise ValueError(f"{flag} {sizes[flag]} does not match the supplied state")

    available = system.invariants(state)
    names = [s for s in args.invariants.split(",") if s]
    unknown = [s for s in names if s not in available]
    if unknown:
        raise ValueError(f"unknown invariants {unknown}; available: {sorted(available)}")

    if args.adaptive:
        policy = AdaptiveStep(rtol=args.rtol, atol=args.atol)
    else:
        if args.dt is None and args.t > 0:
            raise ValueError("--dt is required unless --adaptive is given")
        policy = FixedStep(args.dt if args.dt is not None else 1e-3)

    traj = integrate(system, state, args.t, policy)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, not by numpy's warnings
        columns = system.invariant_columns(state, names, traj.coords)
    for name, values in columns.items():
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise StepFailure(f"invariant {name} overflowed to a non-finite value ({values[k]:.17g}) "
                              f"at t = {traj.times[k]:.6g}")
    csv_text = trajectory_csv(traj, columns)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# verify: one table of suites
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One report record: sample states, keep the worst residual, gate it."""

    sample: Callable  # (rng, count, n, m) -> (template State, (count, d) rows)
    residual: Callable  # (template State, (N, d) rows, *sweep parameters) -> N residuals
    tolerance: float
    structure: str  # record labels; "{0}", "{1}" take the sweep parameters
    check: str


class Suite(NamedTuple):
    """A verify subcommand: its flags and the checks its selector picks from."""

    selector: str | None  # flag choosing the check; None for a single check
    states: int  # default --states
    options: tuple  # (flag, default) pairs, in help order
    checks: dict  # selector value -> Check
    sweep: Callable | None = None  # args -> parameter tuples, one record each


def _sampler(chart: str, lo: float, hi: float, groups: Callable) -> Callable:
    """A block sampler (rng, count, n, m) -> (template State, (count, d) rows)
    in ``chart``, with coordinate groups of lengths ``groups(n, m)`` drawn
    from [lo, hi) by one rng.uniform call.  A chart's groups share their
    bounds, so the block holds the numbers that drawing state by state,
    group by group, took.  The template is the block's first state."""
    def sample(rng, count, n, m):
        sizes = groups(n, m)
        rows = rng.uniform(lo, hi, (count, sum(sizes))).astype(complex)
        return State(chart, rows[0], sizes[0] if len(sizes) == 2 else None), rows

    return sample


_U = _sampler(VOLTERRA_U, 0.1, 2.0, lambda n, m: (n,))
_V = _sampler(VOLTERRA_V, 0.1, 2.0, lambda n, m: (n,))
_C = _sampler(C_VARS, 0.1, 2.0, lambda n, m: (n + 1,))
_AB = _sampler(FLASCHKA_AB, -1.0, 1.0, lambda n, m: (m + 1, m))
_TODA_AB = _sampler(FLASCHKA_AB, -1.0, 1.0, lambda n, m: (n - 1, n))
_QP_M = _sampler(QP, -1.0, 1.0, lambda n, m: (m, m))
_QP_N = _sampler(QP, -1.0, 1.0, lambda n, m: (n, n))
_ON_CHART = {C_VARS: _C, VOLTERRA_V: _V, FLASCHKA_AB: _AB}  # a Poisson structure's sampler


class Transform(NamedTuple):
    """A ``verify transform`` row: a map kernel from the ``source`` row's
    chart to the ``target`` row's, with the sampler of its source chart,
    and ``spectrum(n)`` for a map whose first argument is the spectrum of n
    q's (the target row takes it too).  The kernel pushes the source field
    forward by its own exact JVP (``transforms.pushforward_residual``)."""

    sample: Callable
    kernel: Callable
    source: LatticeSystem
    target: LatticeSystem
    spectrum: Callable | None = None

    def residual(self, state, rows) -> np.ndarray:
        kernel, target = self.kernel, self.target
        if self.spectrum:
            spectrum = self.spectrum(state.split)
            kernel, target = functools.partial(kernel, spectrum), replace(target, spectrum=spectrum)
        return transforms.pushforward_residual(kernel, self.source.field, target.field, state, rows)


TRANSFORMS = {
    "henon": Transform(_U, transforms.henon_block, SYSTEMS["km"], SYSTEMS["toda"]),
    "d-map": Transform(_V, transforms.d_transform_block, SYSTEMS["vd"], SYSTEMS["ab"]),
    "flaschka-sklyanin": Transform(_QP_M, transforms.sklyanin_flaschka_block, SYSTEMS["sklyanin"], SYSTEMS["ab"]),
    "flaschka-toda": Transform(_QP_N, transforms.toda_flaschka_block, SYSTEMS["toda"], SYSTEMS["toda"],
                               open_chain_spectrum),
    "flaschka-general": Transform(_QP_N, transforms.generalized_flaschka_block, SYSTEMS["sklyanin"],
                                  SYSTEMS["spectrum"], sklyanin_spectrum),
    "c-to-v": Transform(_C, transforms.c_to_v_block, SYSTEMS["c-d"], SYSTEMS["vd"]),
}


def _lax(system: LatticeSystem) -> Callable:
    """The Lax residual of a block of a catalog row's states along its field,
    evaluated once on the block's columns."""
    return lambda s, rows: lax.lax_residual(system.lax, s, rows, system.field(s, coordinate_columns(s, rows)).T)


def _km_lax(s, rows, residual=_lax(SYSTEMS["km"])) -> np.ndarray:
    # below n = 2, du/dt = 0 and B has no entries: the residual is 0 whatever L holds
    if s.dim < 2:
        raise ValueError("verify lax --system km needs n >= 2; with one variable the residual is identically 0")
    return residual(s, rows)


def _involution(state, rows, name1: str, name2: str, ladder=LENARD["ab"]) -> np.ndarray:
    """|{H, G}| of two named invariants of the ab ladder's row under its pi1
    at each row: per row, a vector-matrix and a vector-vector product, stacked."""
    grads = ladder.row.invariant_gradients(state, [name1, name2], rows)
    bracket = (grads[name1][:, None] @ ladder.pi1(state, rows) @ grads[name2][..., None])[:, 0, 0]
    # hypot is Python's abs of a complex; numpy's complex abs rounds otherwise
    return np.hypot(bracket.real, bracket.imag)


#: The default --pairs of verify involution.
INVOLUTION_PAIRS = "H2:H4,H2:H6"


def _invariant_pairs(args, ladder=LENARD["ab"]) -> list[list[str]]:
    """The name pairs of --pairs; only two distinct H<k> of the ab ladder's row
    at this m are accepted: {H, H} = 0 under any bracket, so it would check nothing.
    The default keeps the pairs the row offers at this m (H2:H4 alone at
    m = 2), or all of them if it offers none, so that none passes unchecked."""
    probe = ab_state([1.0] * (args.m + 1), [0.0] * args.m)
    offered = [name for name in ladder.row.invariants(probe) if name.startswith("H")]
    pairs = [spec.split(":") for spec in args.pairs.split(",")]
    if args.pairs == INVOLUTION_PAIRS:
        pairs = [pair for pair in pairs if set(pair) <= set(offered)] or pairs
    for pair in pairs:
        if len(pair) != 2 or not set(pair) <= set(offered):
            raise ValueError(f"--pairs entry {':'.join(pair)!r} must name two of {offered}")
        if pair[0] == pair[1]:
            raise ValueError(f"--pairs entry {':'.join(pair)!r} names {pair[0]} twice: {{H, H}} = 0 checks nothing")
    return pairs


def _lambdas(args) -> list[tuple[float]]:
    """One (lambda,) per --lambdas entry; pi1 + lambda * pi3 is a pencil only at a finite lambda."""
    lams = [float(x) for x in args.lambdas.split(",")]
    for lam in lams:
        if not np.isfinite(lam):
            raise ValueError(f"--lambdas entry {lam!r} is not finite")
    return [(lam,) for lam in lams]


_SIZES = (("--n", 7), ("--m", 3))

SUITES = {
    "lax": Suite("--system", 100, _SIZES, {
        key: Check(sample, residual, 1e-10, key, "lax-residual")
        for key, sample, residual in (("km", _U, _km_lax), ("toda", _TODA_AB, _lax(SYSTEMS["toda"])),
                                      ("vd", _V, _lax(SYSTEMS["vd"])), ("ab", _AB, _lax(SYSTEMS["ab"])))
    }),
    "jacobi": Suite("--structure", 50, _SIZES, {
        name: Check(
            _ON_CHART[struct.chart],
            lambda s, rows, struct=struct: poisson.jacobi_residual(struct, s, rows),
            1e-6, name, "jacobi",
        )
        for name, struct in poisson.STRUCTURES.items()
    }),
    "compat": Suite("--chart", 50, (("--lambdas", "1,2.5"),) + _SIZES, {
        chart: Check(
            _ON_CHART[pair.pi1.chart],
            lambda s, rows, lam, pair=pair: poisson.compatibility_residual(pair.pi1, pair.pi3, lam, s, rows),
            1e-6, f"{pair.pi1.name}+{{0}}*{pair.pi3.name}", "compatibility",
        )
        for chart, pair in LENARD.items()
    }, sweep=_lambdas),
    "casimir": Suite("--structure", 50, _SIZES, {
        pair.pi1.name: Check(_ON_CHART[pair.pi1.chart], lambda s, rows, pair=pair: poisson.hamiltonian_flow_check(
            pair.pi1, s, rows, pair.row.invariant_gradients(s, [pair.casimir], rows)[pair.casimir]),
            1e-10, pair.pi1.name, f"casimir-{pair.casimir}")
        for pair in LENARD.values()
    }),
    "lenard": Suite("--chart", 50, _SIZES, {
        chart: Check(_ON_CHART[pair.pi1.chart], lambda s, rows, pair=pair: poisson.lenard_residual(pair, s, rows),
                     1e-7, f"lenard-{chart}", "lenard")
        for chart, pair in LENARD.items()
    }),
    "transform": Suite("--map", 100, _SIZES, {
        name: Check(transform.sample, transform.residual, 1e-10, name, "pushforward")
        for name, transform in TRANSFORMS.items()
    }),
    "involution": Suite(None, 50, (("--m", 3), ("--pairs", INVOLUTION_PAIRS)), {
        None: Check(_AB, _involution, 1e-9, "pi1-ab", "involution-{0}-{1}"),
    }, sweep=_invariant_pairs),
}

#: States per residual call.  Every kernel holds a few arrays per state of a
#: block (a compact d pi of pi1-v at n = 25 takes 82 kB a state, a complex
#: 49 x 49 matrix of vd at n = 25 38 kB; the Lax residual's float64 path
#: holds three real stacks of 19-21 kB a state at that size, and vd at even
#: n, without a gauge, four complex ones), so a fixed block bounds memory
#: whatever --states is.  One 13-op verify-mix cycle in one process (2-core Xeon,
#: single-threaded OpenBLAS 0.3.31) took 35-50 ms with blocks of 8 and
#: 20-24 ms with 32, 48 or 64.  Per state, blocks of 48 and 64 saved up to
#: 25% at n = 7 and at most 10% at n = 15 and 25, and brought page faults
#: back into lax vd run alone (25-90 a call); 32 keeps the working set
#: smaller.
BLOCK = 32


def _run_verify(args) -> int:
    if args.states < 1:
        raise ValueError("--states must be at least 1")
    suite = SUITES[args.suite]
    check = suite.checks[getattr(args, "selector", None)]
    rng = np.random.default_rng(args.seed)
    n = getattr(args, "n", None)
    records = []
    for params in suite.sweep(args) if suite.sweep else [()]:
        block_max = []
        for start in range(0, args.states, BLOCK):
            # a block's states are drawn before its residuals, which draw no
            # random numbers, so a seed selects the same states as state by state
            state, rows = check.sample(rng, min(BLOCK, args.states - start), n, args.m)
            block_max.append(np.max(check.residual(state, rows, *params)))
        # np.max propagates NaN, so a non-finite residual fails its record
        worst = float(np.max(block_max))
        records.append({
            "structure": check.structure.format(*params),
            "check": check.check.format(*params),
            "n_states": args.states,
            "max_residual": worst,
            "tolerance": check.tolerance,
            "pass": bool(worst <= check.tolerance),
        })
    report = {
        "schema": 1,
        "suite": args.suite,
        "seed": args.seed,
        "rng": RNG_NAME,
        "records": records,
        "pass": all(r["pass"] for r in records),
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if report["pass"] else 1


def _verify_spectrum(args) -> int:
    if (args.file is None) == (args.sklyanin is None):
        raise ValueError("provide exactly one of --file or --sklyanin N")
    if args.file:
        with open(args.file) as fh:
            spec = spectrum_from_json(fh.read())
        source = args.file
    else:
        spec = sklyanin_spectrum(args.sklyanin)
        source = f"sklyanin({args.sklyanin})"
    report_obj = kozlov_treshchev_check(spec, tol=args.tol)
    gram, count = spec.gram, spec.count
    ratios = [[i, j, float(2 * gram[i, j] / gram[i, i])] for i in range(count) for j in range(count) if i != j]
    report = {
        "schema": 1,
        "suite": "spectrum",
        "source": source,
        "tolerance": args.tol,
        "pass": report_obj.passed,
        "violations": [[i, j, r] for i, j, r in report_obj.violations],
        "ratios": ratios,
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if report_obj.passed else 1


if __name__ == "__main__":
    sys.exit(main())
