"""A parent/change oracle: digest the output of one table of argvs, run in-process.

Every argv runs through ``cli.main`` in this process, and gets one SHA-256
of its exit code, stdout and stderr.  The table is read from the CLI's own
tables, so a new suite, selector or catalog row joins it with no edit here:

* every ``cli.SUITES`` suite and selector at (n, m) = (7, 2), (9, 12),
  (15, 3), (16, 7) and (25, 7), seeds 0-2, ``--states 40``;
* ``verify spectrum --sklyanin 5``;
* the ``simulate`` runs of ``test_properties``' table, valid and invalid
  steps, with the spectrum file written to one fixed path;
* 1,000-step real-valued runs: the benchmark's ``simulate-mix`` RK4 shape
  (``ab`` at m = 3 with its invariant columns) at seeds 0-2, and ``km``,
  ``vd`` and ``bv-d`` at 5 and 41 coordinates, each to t = 0.5 and to t = 1,
  where ``bv-d`` leaves its domain.

Run the table against two trees, then compare the files:

    python tests/sweep.py --out change.json
    python tests/sweep.py --src ../parent/src --out parent.json
    python tests/sweep.py --compare parent.json change.json

``--compare`` prints the argvs whose digests differ or that only one file
holds, and exits 1 if there are any.  The digests depend on the numpy and
BLAS build, so none is committed: the goldens are the pins.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SIZES = ((7, 2), (9, 12), (15, 3), (16, 7), (25, 7))
SEEDS = (0, 1, 2)
STATES = 40
SPECTRUM_FILE = Path(tempfile.gettempdir()) / "lattice-flows-sweep" / "spectrum.json"


def _verify_argvs(cli):
    for name, suite in cli.SUITES.items():
        flags = [flag for flag, _ in suite.options if flag in ("--n", "--m")]
        for selector in suite.checks:
            pick = (suite.selector, selector) if suite.selector else ()
            for n, m in SIZES:
                sizes = {"--n": str(n), "--m": str(m)}
                for seed in SEEDS:
                    yield ["verify", name, *pick, *(x for flag in flags for x in (flag, sizes[flag])),
                           "--states", str(STATES), "--seed", str(seed)]
    yield ["verify", "spectrum", "--sklyanin", "5"]


def _long_argvs():
    """Fixed-step runs of 1,000 steps from real states: many steps, where the
    table's other simulate runs take two."""
    for seed in SEEDS:  # bench/workloads.py's SimulateRK4Inv, op 0
        rng = np.random.default_rng([seed, 0])
        state = {"a": rng.uniform(0.2, 1.0, 4).tolist(), "b": rng.uniform(-0.5, 0.5, 3).tolist()}
        yield ["simulate", "--system", "ab", "--m", "3", "--state", json.dumps(state), "--t", "1.0", "--dt", "0.001",
               "--invariants", "H2,H4,H6,C"]
    for key, name, invariants in (("km", "u", "H2,H4"), ("vd", "v", "H2,F"), ("bv-d", "u", "")):
        for d in (5, 41):
            state = {name: [round(0.5 + 0.4 * abs(math.sin(1.7 * i)), 3) for i in range(d)]}
            for t, dt in (("0.5", "0.0005"), ("1", "0.001")):
                yield ["simulate", "--system", key, "--state", json.dumps(state), "--t", t, "--dt", dt,
                       "--invariants", invariants]


def _digest(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 -- an escape is an outcome to compare
            code = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def sweep(src: Path) -> dict[str, str]:
    """{argv as one shell line: digest} for the table, run on the package under ``src``."""
    sys.path[:0] = [str(src), str(HERE)]
    from lattice_flows import cli
    from lattice_flows.rootdata import spectrum_to_json
    import test_properties

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"lattice_flows imported from {cli.__file__}, not {src}")
    SPECTRUM_FILE.parent.mkdir(parents=True, exist_ok=True)
    SPECTRUM_FILE.write_text(spectrum_to_json(test_properties.SPECTRUM))
    argvs = [*_verify_argvs(cli), *test_properties._simulate_argvs(str(SPECTRUM_FILE)), *_long_argvs()]
    table = {shlex.join(argv): argv for argv in argvs}  # a suite without --n repeats its argvs
    return {line: _digest(cli, argv) for line, argv in table.items()}


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per argv whose digests differ or that only one table holds."""
    lines = []
    for argv in dict.fromkeys([*a, *b]):
        if argv not in b or argv not in a:
            lines.append(f"only in {'A' if argv in a else 'B'}: {argv}")
        elif a[argv] != b[argv]:
            lines.append(f"differs: {argv}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src", help="the tree holding lattice_flows")
    parser.add_argument("--out", type=Path, help="digest file to write (default stdout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*(json.loads(path.read_text()) for path in args.compare))
        print("\n".join(lines) if lines else "no argv differs")
        return 1 if lines else 0
    text = json.dumps(sweep(args.src), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
