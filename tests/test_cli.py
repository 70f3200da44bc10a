import json

import numpy as np
import pytest

from lattice_flows.cli import main
from lattice_flows.rootdata import sklyanin_spectrum, spectrum_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_smoke(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--system",
        "ab",
        "--m",
        "2",
        "--state",
        '{"a":[1,1,1],"b":[0,0]}',
        "--t",
        "5",
        "--dt",
        "1e-3",
        "--invariants",
        "H2,H4,C",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,a1,a2,a3,b1,b2,H2,H4,C"
    assert len(lines[0].split(",")) == 9  # t plus 8 data columns
    assert len(lines) == 5002  # header plus the initial sample plus 5000 steps
    # the state chosen is an equilibrium: nothing moves and H2 stays put
    assert lines[-1].split(",")[1] == "1"


def test_simulate_zero_time_single_row(capsys):
    code, out, _ = run(
        capsys, "simulate", "--system", "ab", "--state", '{"a":[1,1,1],"b":[0,0]}', "--t", "0"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_simulate_unknown_system_usage_error(capsys):
    code, _, _ = run(
        capsys, "simulate", "--system", "nope", "--state", '{"u":[1]}', "--t", "1", "--dt", "1e-3"
    )
    assert code == 2


def test_simulate_wrong_m_usage_error(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--system",
        "ab",
        "--m",
        "4",
        "--state",
        '{"a":[1,1,1],"b":[0,0]}',
        "--t",
        "1",
        "--dt",
        "1e-3",
    )
    assert code == 2
    assert "usage error" in err


def test_simulate_blowup_exits_one(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--system",
        "vd",
        "--state",
        '{"v":[2,2,2,2]}',
        "--t",
        "5",
        "--adaptive",
    )
    assert code == 1
    assert err.strip()


def test_simulate_state_file_and_out(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text('{"u":[1.0,1.0,1.0]}')
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--system",
        "km",
        "--state",
        f"@{state_file}",
        "--t",
        "1",
        "--dt",
        "1e-2",
        "--invariants",
        "H2",
        "--out",
        str(out_file),
    )
    assert code == 0 and out == ""
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,u1,u2,u3,H2"


def test_simulate_spectrum_system(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spectrum_to_json(sklyanin_spectrum(2)))
    code, out, _ = run(
        capsys,
        "simulate",
        "--system",
        "spectrum",
        "--spectrum",
        str(spec_file),
        "--state",
        '{"a":[-1,-1,-1],"b":[0,0,0]}',
        "--t",
        "0.5",
        "--dt",
        "1e-2",
        "--invariants",
        "F1,F2",
    )
    assert code == 0
    assert out.startswith("t,a1,a2,a3,b1,b2,b3,F1,F2")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lenard", "--chart", "ab", "--m", "3", "--states", "10", "--seed", "7"),
        ("verify", "lenard", "--chart", "v", "--n", "7", "--states", "10", "--seed", "3"),
        ("verify", "lax", "--system", "vd", "--n", "7", "--states", "25"),
        ("verify", "lax", "--system", "ab", "--m", "3", "--states", "25"),
        ("verify", "jacobi", "--structure", "pi3-v", "--n", "7", "--states", "10"),
        ("verify", "compat", "--chart", "v", "--n", "5", "--states", "10"),
        ("verify", "casimir", "--structure", "pi1-ab", "--m", "3", "--states", "25"),
        ("verify", "transform", "--map", "c-to-v", "--n", "6", "--states", "20"),
        ("verify", "involution", "--m", "3", "--states", "10"),
    ],
)
def test_verify_suites_pass(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["pass"] is True
    assert report["rng"] == "numpy-pcg64"
    for record in report["records"]:
        assert set(record) == {"structure", "check", "n_states", "max_residual", "tolerance", "pass"}


def test_verify_deterministic_reports(capsys):
    argv = ("verify", "lenard", "--chart", "ab", "--m", "2", "--states", "5", "--seed", "42")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_spectrum_builtin(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", "--sklyanin", "4")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["violations"] == []
    assert [0, 3, -2.0] in report["ratios"]


def test_verify_spectrum_failure_exits_one(tmp_path, capsys):
    base = sklyanin_spectrum(3)
    spoiled = {"dimension": 3, "vectors": [list(v) for v in base.vectors] + [[1, 1, 0]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spoiled))
    code, out, _ = run(capsys, "verify", "spectrum", "--file", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert any(ratio > 0 for _, _, ratio in report["violations"])


def test_verify_spectrum_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "verify", "spectrum")
    assert code == 2
    assert "usage error" in err


def test_verify_non_finite_residual_fails(capsys):
    code, out, _ = run(capsys, "verify", "compat", "--chart", "v", "--lambdas", "nan", "--states", "2")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    [record] = report["records"]
    assert record["pass"] is False and np.isnan(record["max_residual"])


@pytest.mark.parametrize("suite", [("jacobi", "--structure", "pi1-v"), ("lax", "--system", "km")])
@pytest.mark.parametrize("states", ["0", "-3"])
def test_verify_rejects_fewer_than_one_state(capsys, suite, states):
    code, out, err = run(capsys, "verify", *suite, "--states", states)
    assert code == 2 and out == ""
    assert "--states" in err


@pytest.mark.parametrize("pairs", ["Q2:Z4", "H0:H2", "H2:H8", "C:H2", "H2", "H2:H4:H6", "H2:H4,H02:H4"])
def test_verify_involution_rejects_unoffered_pairs(capsys, pairs):
    code, out, err = run(capsys, "verify", "involution", "--m", "3", "--pairs", pairs, "--states", "2")
    assert code == 2 and out == ""
    assert "--pairs" in err


def test_verify_involution_accepts_top_order_at_larger_m(capsys):
    code, out, _ = run(capsys, "verify", "involution", "--m", "4", "--pairs", "H2:H8", "--states", "2")
    assert code == 0
    assert json.loads(out)["records"][0]["check"] == "involution-H2-H8"


def test_simulate_fixed_step_overflow_exits_one(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    state = '{"q":[-300,0],"p":[0,0]}'  # exp(600) overflows in the first step
    argv = ("simulate", "--system", "sklyanin", "--state", state, "--t", "0.1", "--dt", "0.01")
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "non-finite" in err and "t = 0.01" in err
        code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 1 and not out_file.exists()


@pytest.mark.parametrize(
    "state",
    ["5", "[1, 2]", '"u"', '{"u": 5}', '{"u": "12"}', '{"u": [null]}', '{"u": [true]}',
     '{"u": ["1"]}', '{"u": [[1, true]]}', '{"u": [[1, 2, 3]]}', '{"u": [{"re": 1}]}',
     '{"q": [0], "p": 1}'],
)
def test_simulate_malformed_state_is_usage_error(capsys, state):
    code, out, err = run(capsys, "simulate", "--system", "km", "--state", state, "--t", "0.1", "--dt", "0.01")
    assert code == 2 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "step",
    [("--t", "nan", "--dt", "0.01"), ("--t", "inf", "--dt", "0.01"), ("--t", "-1", "--dt", "0.01"),
     ("--t", "1", "--dt", "nan"), ("--t", "1", "--dt", "inf"), ("--t", "1", "--dt", "0"),
     ("--t", "1", "--adaptive", "--rtol", "-1"), ("--t", "1", "--adaptive", "--atol=-1e-12"),
     ("--t", "1", "--adaptive", "--rtol", "nan"), ("--t", "1", "--adaptive", "--atol", "inf"),
     ("--t", "1", "--adaptive", "--rtol", "0", "--atol", "0")],
)
def test_simulate_rejects_bad_step_parameters(capsys, step):
    code, out, err = run(capsys, "simulate", "--system", "km", "--state", '{"u":[1,0.5,0.8]}', *step)
    assert code == 2 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize("n, expected", [(2, 0), (4, 2), (1, 2)])
def test_simulate_n_counts_particles_of_a_qp_state(capsys, n, expected):
    state = '{"q":[0,0.5],"p":[0.1,0]}'
    code, _, _ = run(capsys, "simulate", "--system", "toda", "--n", str(n), "--state", state, "--t", "0")
    assert code == expected
