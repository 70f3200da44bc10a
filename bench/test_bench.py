"""Self-test of the benchmark's own checks and accounting.

    python3 -m pytest bench/test_bench.py -q

A wrong output must count as a failed op and contribute no timing.  The
outputs are produced by the real CLI once, then replayed intact or tampered.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lattice_flows import cli  # noqa: E402


def replay(text, rc=0):
    def main(argv):
        sys.stdout.write(text)
        return rc

    return main


def tally_of(workload, op, main):
    tally = workloads.Tally()
    tally.add(op, workloads.execute(main, op))
    return tally


SHAPES = {"rk4": workloads.SimulateRK4Inv(), "fehlberg": workloads.SimulateFehlberg(),
          "verify": workloads.VerifyMix()}


@pytest.fixture(scope="module")
def real():
    """An op of each shape and the CLI's actual output for it."""
    out = {}
    for name, workload in SHAPES.items():
        op = workload.op(7, 0)
        outcome = workloads.execute(cli.main, op)
        assert outcome.error is None, outcome.error
        out[name] = (workload, op, outcome.out)
    return out


def tamper_cell(csv, row, col, factor):
    lines = csv.split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(complex(cells[col]).real * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_intact_output_passes_and_is_timed(real, name):
    workload, op, text = real[name]
    tally = tally_of(workload, op, replay(text))
    assert (tally.attempted, tally.failed, len(tally.walls)) == (1, 0, 1)
    assert tally.work == op.work


@pytest.mark.parametrize("name, col", [("rk4", 2), ("rk4", 10), ("fehlberg", 3), ("fehlberg", 8)])
def test_tampered_csv_row_is_a_failed_op(real, name, col):
    workload, op, text = real[name]
    tally = tally_of(workload, op, replay(tamper_cell(text, 500, col, 1.001)))
    assert (tally.attempted, tally.failed, tally.walls, tally.work) == (1, 1, [], 0.0)


@pytest.mark.parametrize("name", ["rk4", "fehlberg"])
@pytest.mark.parametrize("bad", ["nan", "inf", "nan+nanj"])
def test_non_finite_cell_is_a_failed_op(real, name, bad):
    workload, op, text = real[name]
    lines = text.split("\n")
    cells = lines[-2].split(",")
    cells[1] = bad
    lines[-2] = ",".join(cells)
    tally = tally_of(workload, op, replay("\n".join(lines)))
    assert tally.failed == 1 and "non-finite" in tally.failures[0]


def test_truncated_fixed_step_grid_is_a_failed_op(real):
    workload, op, text = real["rk4"]
    lines = text.split("\n")
    tally = tally_of(workload, op, replay("\n".join(lines[:-3] + [""])))
    assert tally.failed == 1


def test_failing_report_is_a_failed_op(real):
    workload, op, text = real["verify"]
    report = json.loads(text)
    report["pass"] = False
    tally = tally_of(workload, op, replay(json.dumps(report, sort_keys=True) + "\n", rc=1))
    assert tally.failed == 1 and tally.walls == []
    # the same report with a zero exit code is still rejected by the check
    tally = tally_of(workload, op, replay(json.dumps(report, sort_keys=True) + "\n"))
    assert tally.failed == 1 and "does not pass" in tally.failures[0]


def test_changed_report_bytes_are_a_failed_op(real):
    workload, op, text = real["verify"]
    fresh = type(workload)()
    assert tally_of(fresh, op, replay(text)).failed == 0
    changed = json.dumps(json.loads(text) | {"rng": "other"}, sort_keys=True) + "\n"
    assert changed != text
    assert tally_of(fresh, op, replay(changed)).failed == 1


def test_crashing_op_is_a_failed_op(real):
    workload, op, _ = real["verify"]

    def main(argv):
        raise RuntimeError("boom")

    tally = tally_of(workload, op, main)
    assert tally.failed == 1 and "boom" in tally.failures[0]


@pytest.mark.parametrize("n, pct, beyond", [(11, 9, 10), (57, 82, 10), (110, 90, 11), (200, 95, 10)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    walls = [float(k) for k in range(n)]
    p, value = run.tail_percentile(walls)
    assert p == pct
    assert sum(w > value for w in walls) == beyond


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = tracer.wrap("systems.leaf_field", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap("lax.outer", outer)
    tracer.op_id = 0
    traced_outer()
    tracer.op_id = -1
    traced_outer()  # outside an op: not recorded
    assert list(tracer.parent) == [-1, 0, 0]
    m = spans.layer_metrics(tracer, 1, 0, 0)
    total = tracer.end[0] - tracer.start[0]
    leaves = sum(tracer.end[k] - tracer.start[k] for k in (1, 2))
    assert m["systems.field_calls"][0] == 2
    assert m["systems.self_s"][0] == pytest.approx(leaves)
    assert m["lax.self_s"][0] == pytest.approx(total - leaves)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())[key]
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-mix", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
