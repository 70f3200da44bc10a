"""Command-line front end: simulate any system, run any verification suite.

Exit codes: 0 = success / all checks pass, 1 = verification failure or a
domain/step failure during simulation, 2 = usage errors.  Reports are JSON
documents with a top-level schema version; given the same seed they are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import lax, poisson, transforms
from .catalog import SYSTEM_KEYS, get_system, state_from_dict
from .errors import DomainExit, LatticeError, StepFailure
from .integrate import AdaptiveStep, FixedStep, integrate, trajectory_csv
from .rootdata import Spectrum, kozlov_treshchev_check, sklyanin_spectrum, spectrum_from_json
from .states import C_VARS, FLASCHKA_AB, QP, VOLTERRA_V, ab_state, c_state, qp_state, u_state, v_state

RNG_NAME = "numpy-pcg64"
SPECTRUM_TOL = 1e-9


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (LatticeError, ValueError, KeyError, json.JSONDecodeError) as exc:
        if isinstance(exc, (DomainExit, StepFailure)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


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
    p.add_argument("--tol", type=float, default=SPECTRUM_TOL)
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
    if args.m is not None and state.chart == FLASCHKA_AB and state.dim - state.split != args.m:
        raise ValueError(f"--m {args.m} does not match the supplied state")
    if args.n is not None and state.chart != FLASCHKA_AB and args.n != (
        state.split if state.chart == QP else state.dim
    ):
        raise ValueError(f"--n {args.n} does not match the supplied state")

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
    csv_text = trajectory_csv(traj, system.invariant_columns(state, names, traj.coords))
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

    sample: Callable  # (rng, n, m) -> State
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


# Samplers (rng, n, m) -> State.  Coordinate groups are drawn in this order,
# so a seed keeps selecting the same states.
_U = lambda rng, n, m: u_state(rng.uniform(0.1, 2.0, n))
_V = lambda rng, n, m: v_state(rng.uniform(0.1, 2.0, n))
_C = lambda rng, n, m: c_state(rng.uniform(0.1, 2.0, n + 1))
_AB = lambda rng, n, m: ab_state(rng.uniform(-1.0, 1.0, m + 1), rng.uniform(-1.0, 1.0, m))
_TODA_AB = lambda rng, n, m: ab_state(rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n))
_QP_M = lambda rng, n, m: qp_state(rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m))
_QP_N = lambda rng, n, m: qp_state(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))


def _each_row(residual: Callable) -> Callable:
    """A residual of one State as a block residual: one State per row."""
    return lambda state, rows, *params: [residual(state.replace_coords(row), *params) for row in rows]


def _conjugacy(state, map_fn, source: str, target: str, spectrum=None, jacobian=None) -> float:
    """Pushforward residual of a map between two catalog systems' fields.

    A ``spectrum`` is passed to the map as its second argument and selects
    the target system's field when that system is 'spectrum'.
    """
    mapping = map_fn if spectrum is None else (lambda st: map_fn(st, spectrum))
    return transforms.pushforward_residual(
        mapping, get_system(source).field, get_system(target, spectrum).field, state, jacobian=jacobian
    )


def _open_chain(n: int) -> Spectrum:
    """Spectrum e_i - e_{i+1} of the open Toda chain on n particles."""
    rows = (tuple(float(j == i) - float(j == i + 1) for j in range(n)) for i in range(n - 1))
    return Spectrum(n, tuple(rows))


def _involution(state, k1: int, k2: int) -> float:
    """|{H_k1, H_k2}| under pi1-ab, from analytic trace gradients."""
    g1, g2 = lax.grad_trace_invariant("ab", state, [k1, k2])
    return abs(complex(g1 @ poisson.poisson_matrix("pi1-ab", state) @ g2))


def _invariant_pairs(args) -> list[tuple[int, int]]:
    """Trace orders named by --pairs; only the ab system's H<k> at this m are accepted."""
    probe = ab_state([1.0] * (args.m + 1), [0.0] * args.m)
    offered = [name for name in get_system("ab").invariants(probe) if name.startswith("H")]
    pairs = [spec.split(":") for spec in args.pairs.split(",")]
    for pair in pairs:
        if len(pair) != 2 or not set(pair) <= set(offered):
            raise ValueError(f"--pairs entry {':'.join(pair)!r} must name two of {offered}")
    return [(int(left[1:]), int(right[1:])) for left, right in pairs]


_SIZES = (("--n", 7), ("--m", 3))

SUITES = {
    "lax": Suite("--system", 100, _SIZES, {
        key: Check(
            sample,
            _each_row(lambda s, key=key: lax.lax_residual(lax.build_lax(key, s), get_system(key).field(s), s)),
            1e-10, key, "lax-residual",
        )
        for key, sample in (("km", _U), ("toda", _TODA_AB), ("vd", _V), ("ab", _AB))
    }),
    "jacobi": Suite("--structure", 50, _SIZES, {
        name: Check(
            {C_VARS: _C, VOLTERRA_V: _V, FLASCHKA_AB: _AB}[struct.chart],
            lambda s, rows, name=name: poisson.jacobi_residual(name, s, rows=rows),
            1e-6, name, "jacobi",
        )
        for name, struct in poisson.STRUCTURES.items()
    }),
    "compat": Suite("--chart", 50, (("--lambdas", "1,2.5"),) + _SIZES, {
        chart: Check(
            sample,
            lambda s, rows, lam, c=chart: poisson.compatibility_residual(
                f"pi1-{c}", f"pi3-{c}", lam, s, rows=rows),
            1e-6, f"pi1-{chart}+{{0}}*pi3-{chart}", "compatibility",
        )
        for chart, sample in (("v", _V), ("ab", _AB))
    }, sweep=lambda args: [(float(x),) for x in args.lambdas.split(",")]),
    "casimir": Suite("--structure", 50, _SIZES, {
        "pi1-v": Check(_V, lambda s, rows: poisson.casimir_residual("pi1-v", lax.grad_casimir_F, s, rows),
                       1e-10, "pi1-v", "casimir-F"),
        "pi1-ab": Check(_AB, lambda s, rows: poisson.casimir_residual("pi1-ab", lax.grad_casimir_C, s, rows),
                        1e-10, "pi1-ab", "casimir-C"),
    }),
    "lenard": Suite("--chart", 50, _SIZES, {
        chart: Check(sample, lambda s, rows, c=chart: poisson.lenard_residual(c, s, rows=rows),
                     1e-7, f"lenard-{chart}", "lenard")
        for chart, sample in (("v", _V), ("ab", _AB))
    }),
    "transform": Suite("--map", 100, _SIZES, {
        name: Check(sample, _each_row(residual), 1e-8, name, "pushforward")
        for name, sample, residual in (
            ("henon", _U, lambda s: _conjugacy(s, transforms.henon_map, "km", "toda")),
            ("d-map", _V, lambda s: _conjugacy(s, transforms.d_transform, "vd", "ab")),
            ("flaschka-sklyanin", _QP_M,
             lambda s: _conjugacy(s, transforms.sklyanin_flaschka, "sklyanin", "ab")),
            ("flaschka-toda", _QP_N,
             lambda s: _conjugacy(s, transforms.toda_flaschka, "toda", "toda", _open_chain(s.split))),
            ("flaschka-general", _QP_N,
             lambda s: _conjugacy(s, transforms.generalized_flaschka, "sklyanin", "spectrum",
                                  sklyanin_spectrum(s.split))),
            ("c-to-v", _C,
             lambda s: _conjugacy(s, transforms.c_to_v, "c-d", "vd", jacobian=transforms.c_to_v_jacobian)),
        )
    }),
    "involution": Suite(None, 50, (("--m", 3), ("--pairs", "H2:H4,H2:H6")), {
        None: Check(_AB, _each_row(_involution), 1e-9, "pi1-ab", "involution-H{0}-H{1}"),
    }, sweep=_invariant_pairs),
}

#: States per residual call.  The batched Poisson kernels hold dense tensors
#: for every state of a block (d pi of pi1-v at n = 25 takes 250 kB a state),
#: so a fixed block bounds their memory whatever --states is.  Blocks of 64
#: were under 2% faster on the benchmark's verify suites and doubled the
#: peak working set.
BLOCK = 8


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
            states = [check.sample(rng, n, args.m) for _ in range(min(BLOCK, args.states - start))]
            block_max.append(np.max(check.residual(states[0], np.array([s.array for s in states]), *params)))
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
    vecs = spec.matrix
    ratios = []
    for i in range(spec.count):
        for j in range(spec.count):
            if i != j:
                ratios.append(
                    [i, j, float(2 * np.dot(vecs[i], vecs[j]) / np.dot(vecs[i], vecs[i]))]
                )
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
