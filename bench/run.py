"""Benchmark of the lattice-flows CLI.

    python3 bench/run.py --workload simulate-mix|verify-mix [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see README.md) from the repository's ``src`` in a single
process: a closed loop with one client, where each op is one in-process call
to ``lattice_flows.cli.main(argv)`` with stdout captured and checked.  The
loop stops at the first cycle boundary after ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it times
the same ops untraced and then traced, and prints per-layer metrics from the
spans.  The last stdout line is one JSON object: correct, attempted, failed
and metrics.  Results and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 11  # fresh interpreters timed for setup_s, spread evenly over the run
COLD_CHILDREN = 3  # fresh interpreters for cli.cold_op_s

if __name__ == "__main__":
    # One thread: BLAS thread pools start when numpy is first imported, below.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lattice_flows" / "cli.py").is_file():
        print(f"error: no lattice_flows sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for the child interpreters
    from lattice_flows import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: lattice_flows imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    meta = run_metadata(args)
    print("# " + json.dumps(meta, sort_keys=True))
    if args.trace:
        tally, metrics, notes = traced_run(workload, args.seed, args.seconds, cli.main)
    else:
        tally, metrics, notes = timed_run(workload, args.seed, args.seconds, cli.main)

    correct = tally.failed == 0 and tally.attempted > 0
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:<14.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    for failure in tally.failures:
        print(f"# failed op: {failure}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, meta=meta, notes=notes, failures=tally.failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def run_cycles(workload, seed, main, tally, first, seconds, between=None) -> int:
    """Run whole cycles from op ``first`` until ``seconds`` have passed; return the next op.

    ``between``, if given, is called before each cycle, outside any op's timing.
    """
    deadline = perf_counter() + seconds
    i = first
    while i == first or perf_counter() < deadline:
        if between:
            between()
        for _ in range(workload.cycle):
            op = workload.op(seed, i)
            tally.add(op, workloads.execute(main, op))
            i += 1
    return i


def timed_run(workload, seed, seconds, main):
    """End-to-end metrics from an untraced run (after one untimed warm-up cycle).

    The fresh interpreters for setup_s are spread over the run, between
    cycles, so that they see the same drift in host speed as the ops.
    """
    import_seconds()  # untimed: fills __pycache__
    setup = []
    next_setup = perf_counter()

    def sample_setup():
        nonlocal next_setup
        if perf_counter() >= next_setup:
            setup.append(import_seconds())
            next_setup += seconds / SETUP_IMPORTS

    warm, timed = workloads.Tally(), workloads.Tally()
    first = run_cycles(workload, seed, main, warm, 0, 0)
    run_cycles(workload, seed, main, timed, first, seconds, between=sample_setup)

    timed.add_counts(warm)
    walls = timed.walls or [0.0]  # no op passed: correct is false, values are placeholders
    n = len(timed.walls)
    pct, tail = tail_percentile(walls)
    work_name = "states_per_s" if workload.name.startswith("verify") else "model_t_per_s"
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_s_tail": (tail, "s"),
        "work_per_s": (timed.work / sum(walls) if sum(walls) else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "ok_ratio": (1.0 - timed.failed / max(timed.attempted, 1), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing lattice_flows.cli",
        "op_s_p50": f"n={n} ops",
        "op_s_tail": f"p{pct}, n={n} ops, {sum(w > tail for w in timed.walls)} beyond",
        "work_per_s": f"{work_name}, n={n} ops",
        "peak_rss_mb": "this process",
        "ok_ratio": f"fail_ratio={timed.failed}/{timed.attempted}",
    }
    return timed, metrics, notes


def traced_run(workload, seed, seconds, main):
    """Per-layer metrics: each op untraced, then traced; then cold ops in children.

    Pairing each op's two runs keeps the host's speed drift out of
    trace.overhead_ratio.  Wrappers are installed only around the traced run.
    """
    tally, untraced, traced = workloads.Tally(), workloads.Tally(), workloads.Tally()
    first = i = run_cycles(workload, seed, main, tally, 0, 0)
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    accepted = csv_bytes = 0
    deadline = perf_counter() + seconds
    while i == first or perf_counter() < deadline:
        for _ in range(workload.cycle):
            op = workload.op(seed, i)
            untraced.add(op, workloads.execute(main, op))
            restore = spans.install(tracer)
            tracer.op_id = i
            try:
                outcome = workloads.execute(traced_main, op)
            finally:
                tracer.op_id = -1
                restore()
            traced.add(op, outcome)
            if op.argv[0] == "simulate" and outcome.error is None:
                accepted += outcome.out.count("\n") - 2
                csv_bytes += len(outcome.out)
            i += 1
    tally.add_counts(untraced)
    tally.add_counts(traced)

    n_ops = i - first
    metrics = spans.layer_metrics(tracer, n_ops, accepted, csv_bytes)
    cold, warm = cold_op(workload.op(seed, first))
    metrics["cli.cold_op_s"] = (cold - warm, "s")
    metrics["trace.overhead_ratio"] = (sum(traced.walls) / sum(untraced.walls) - 1.0
                                       if untraced.walls and traced.walls else 0.0, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")

    layers = {k[:-len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    total = sum(layers.values()) or 1.0
    split = ", ".join(f"{k} {v / total:.0%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    print(f"# self-time split over {n_ops} traced ops: {split}")
    notes = {k: f"per op, n={n_ops} ops" for k in metrics}
    notes["poisson.jacobi_terms"] = f"computed n*C(n,3) per op, n={n_ops} ops"
    notes["cli.cold_op_s"] = (f"first op in a fresh process ({cold:.4g} s) minus warm median "
                              f"({warm:.4g} s), median of {COLD_CHILDREN} processes")
    notes["trace.overhead_ratio"] = f"traced / untraced wall - 1 over the same {n_ops} ops"
    for name in ("systems.field_us", "integrate.accept_ratio", "integrate.steps_per_s",
                 "integrate.field_evals_per_step"):
        notes[name] = f"over n={n_ops} ops"
    return tally, metrics, notes


def tail_percentile(walls):
    """(p, value): the highest whole percentile with at least ten samples above it."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return 100, s[-1]
    p = 100 * (n - 10) // n
    return p, s[(p * n + 99) // 100 - 1]  # nearest rank


# ---------------------------------------------------------------------------
# child interpreters
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Time from spawning a fresh interpreter to the end of its ``import lattice_flows.cli``.

    The child reports when its import ended on the shared monotonic clock, so
    neither interpreter teardown nor the parent's polling of a child with a
    timeout is counted.
    """
    cmd = [sys.executable, "-c",
           "import time, lattice_flows.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout) - t0


def cold_op(op) -> tuple[float, float]:
    """Median first-op and warm-op wall of ``op`` over fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "cold_op.py"), json.dumps(op.argv)]
    colds, warms = [], []
    for _ in range(COLD_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        res = json.loads(done.stdout.splitlines()[-1])
        colds.append(res["cold_s"])
        warms.append(res["warm_s"])
    return statistics.median(colds), statistics.median(warms)


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def run_metadata(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # show_config(mode=...) needs numpy >= 1.26
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except FileNotFoundError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """Hash of the package sources, which names the code when there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lattice_flows").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
