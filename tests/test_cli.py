import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattice_flows
from lattice_flows import ab_state, c_state, cli, lax, qp_state, u_state, v_state
from lattice_flows.catalog import SYSTEMS
from lattice_flows.cli import BLOCK, main
from lattice_flows.integrate import MAX_STEPS
from lattice_flows.rootdata import Spectrum, open_chain_spectrum, sklyanin_spectrum, spectrum_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """The environment of a child interpreter that imports this lattice_flows."""
    package_root = str(Path(lattice_flows.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}


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


@pytest.mark.parametrize("system, state, flag, wanted", [
    ("toda", '{"a":[1,1],"b":[0,0,0]}', ("--n", "99"), "--m"),
    ("ab", '{"a":[1,1,1],"b":[0,0]}', ("--n", "2"), "--m"),
    ("km", '{"u":[1,0.5,0.8]}', ("--m", "5"), "--n"),
    ("toda", '{"q":[0,0.5],"p":[0.1,0]}', ("--m", "2"), "--n"),
], ids=["toda-ab-n", "ab-n", "km-m", "toda-qp-m"])
def test_simulate_size_flag_of_another_chart_is_usage_error(capsys, system, state, flag, wanted):
    code, out, err = run(capsys, "simulate", "--system", system, "--state", state, *flag, "--t", "0.01", "--dt", "0.01")
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {flag[0]} does not apply") and f"its size flag is {wanted}" in err


def test_closed_stdout_exits_one_without_a_usage_line():
    # the read end is closed before the child starts, so its first write meets a broken pipe
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "lattice_flows.cli", "verify", "spectrum", "--sklyanin", "5"],
                              stdout=write, stderr=subprocess.PIPE, env=child_env(), timeout=120, check=False)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


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


def test_verify_lax_builds_each_pair_once(monkeypatch, capsys):
    # one builder call per block inside lax_residual: BLOCK + 2 states are a block of BLOCK and one of 2
    calls = []
    residual = lax.lax_residual

    def counting_residual(builder, block, velocities):
        def counting_builder(s):
            calls.append((builder, len(block.rows)))
            return builder(s)

        return residual(counting_builder, block, velocities)

    monkeypatch.setattr(lax, "lax_residual", counting_residual)
    code, out, _ = run(capsys, "verify", "lax", "--system", "vd", "--n", "7", "--states", str(BLOCK + 2))
    assert code == 0 and json.loads(out)["pass"]
    assert calls == [(lax.vd_lax, BLOCK), (lax.vd_lax, 2)]


@pytest.mark.parametrize("name, spectra", [("flaschka-general", (sklyanin_spectrum,)),
                                           ("flaschka-toda", (open_chain_spectrum,))])
def test_verify_transform_builds_each_spectrum_once_per_size(monkeypatch, capsys, name, spectra):
    # a frozen Spectrum and its read-only gram are shared by every block of a
    # size; Sklyanin's is built from the wall table, not from the open chain's
    for spectrum in spectra:
        spectrum.cache_clear()
    built, init = [], Spectrum.__post_init__
    monkeypatch.setattr(Spectrum, "__post_init__", lambda self: built.append(self) or init(self))
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "transform", "--map", name, "--n", "7", "--states", str(3 * BLOCK))
        assert code == 0 and json.loads(out)["pass"]
    assert len(built) == len(spectra) and all(spectrum(7) is b for spectrum, b in zip(spectra, built))


_ONE_ARGV_PER_CHECK = [
    ["verify", name, *([suite.selector, selector] if suite.selector else []), "--states", "40", "--seed", "5"]
    for name, suite in cli.SUITES.items() for selector in suite.checks
]


@pytest.mark.parametrize("argv", _ONE_ARGV_PER_CHECK, ids=" ".join)
def test_reports_do_not_depend_on_the_block(monkeypatch, capsys, argv):
    # 40 states are 40 blocks of 1, five of 8, or a full block of 32 and a
    # partial one: each state keeps its bits in any block, so the report does
    reports = []
    for block in (1, 8, 32):
        monkeypatch.setattr(cli, "BLOCK", block)
        reports.append(run(capsys, *argv))
    assert reports[0][0] == 0 and json.loads(reports[0][1])["pass"]
    assert reports == [reports[0]] * 3


# The samplers as they drew before blocks: one State per call, its coordinate
# groups drawn in turn
_STATE_BY_STATE = {
    "_U": lambda rng, n, m: u_state(rng.uniform(0.1, 2.0, n)),
    "_V": lambda rng, n, m: v_state(rng.uniform(0.1, 2.0, n)),
    "_C": lambda rng, n, m: c_state(rng.uniform(0.1, 2.0, n + 1)),
    "_AB": lambda rng, n, m: ab_state(rng.uniform(-1.0, 1.0, m + 1), rng.uniform(-1.0, 1.0, m)),
    "_TODA_AB": lambda rng, n, m: ab_state(rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n)),
    "_QP_M": lambda rng, n, m: qp_state(rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m)),
    "_QP_N": lambda rng, n, m: qp_state(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)),
}


def test_every_suite_sampler_has_its_state_by_state_reference():
    used = {check.sample for suite in cli.SUITES.values() for check in suite.checks.values()}
    assert used == {getattr(cli, name) for name in _STATE_BY_STATE}


#: Catalog rows that no lax or transform row names.  A row leaves this list
#: once a suite certifies it; none joins it.
UNCERTIFIED = {"bv-a", "bv-b", "bv-c", "bv-d", "c-a", "c-b", "c-c", "sklyanin-full"}


def test_every_catalog_row_is_certified_or_listed():
    assert set(cli.SUITES["transform"].checks) == set(cli.TRANSFORMS)
    ends = [row for transform in cli.TRANSFORMS.values() for row in (transform.source, transform.target)]
    assert all(SYSTEMS[row.key] is row for row in ends)  # the catalog rows themselves
    certified = set(cli.SUITES["lax"].checks) | {row.key for row in ends}
    assert set(SYSTEMS) - certified == UNCERTIFIED


@pytest.mark.parametrize("name", list(_STATE_BY_STATE))
@pytest.mark.parametrize("states", [1, 7, 8, 9, 20])
def test_block_samplers_draw_the_bits_of_state_by_state_draws(name, states):
    # _run_verify's blocks of BLOCK states, twice over as a sweep's records draw them
    sample, reference = getattr(cli, name), _STATE_BY_STATE[name]
    blocks, one_by_one = np.random.default_rng(11), np.random.default_rng(11)
    n, m = 6, 3
    for _ in range(2):
        for start in range(0, states, BLOCK):
            count = min(BLOCK, states - start)
            block = sample(blocks, count, n, m)
            drawn = [reference(one_by_one, n, m) for _ in range(count)]
            assert (block.chart, block.split) == (drawn[0].chart, drawn[0].split)
            assert block.array.flags.c_contiguous
            assert block.array.tobytes() == np.array([s.array for s in drawn]).tobytes()


@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_lax_rejects_the_empty_km_chain(capsys, n):
    # below n = 2 the km residual is 0.0 whatever L holds and would certify nothing
    code, out, err = run(capsys, "verify", "lax", "--system", "km", "--n", n, "--states", "3")
    assert code == 2 and out == ""
    assert err == ("usage error: verify lax --system km needs n >= 2; "
                   "with one variable the residual is identically 0\n")


def test_simulate_one_variable_km_chain(capsys):
    # the km builder still takes n = 1, for the H2 column of a one-variable chain
    code, out, err = run(capsys, "simulate", "--system", "km", "--state", '{"u":[1]}', "--t", "0.01", "--dt", "0.005",
                         "--invariants", "H2")
    assert code == 0 and err == ""
    h2 = "0.50000000000000011"
    assert out == f"t,u1,H2\n0,1,{h2}\n0.0050000000000000001,1,{h2}\n0.01,1,{h2}\n"


def test_verify_deterministic_reports(capsys):
    argv = ("verify", "lenard", "--chart", "ab", "--m", "2", "--states", "5", "--seed", "42")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


_COMPLEX_QP = json.dumps({"q": [[0.3, 0.05], [-0.2, -0.1], [0.1, 0.0]], "p": [[0.5, 0.02], [0.0, 0.1], [-0.4, 0.0]]})


#: The first two ops of the benchmark's simulate-mix at seed 0: RK4 on an
#: (a, b) chain with every invariant column, and Fehlberg on a complex (q, p) chain.
_MIX_RK4 = ("simulate", "--system", "ab", "--m", "3", "--state",
            '{"a": [0.7095693498571636, 0.4158293710110963, 0.23277881914895576, 0.2132221084228233], '
            '"b": [0.3132702392002724, 0.4127555772777217, 0.10663577576717986]}',
            "--t", "1.0", "--dt", "0.001", "--invariants", "H2,H4,H6,C")
_MIX_FEHLBERG = ("simulate", "--system", "sklyanin", "--n", "5", "--state",
                 '{"q": [[0.7794775825562685, -0.05271986094008383], [0.11427610041245262, 0.05756243957443294], '
                 '[0.6018161737839443, -0.0999383519285697], [0.9130276349506772, 0.04514461467223013], '
                 '[-0.8827696797012912, 0.02375333225154712]], '
                 '"p": [[-0.9918968526203247, -0.07448835470354394], [-0.7833892158415454, 0.015950824807548863], '
                 '[-0.7389905764477038, -0.03706431488002308], [0.5234045601568831, -0.09331422506925269], '
                 '[0.9175433176617727, -0.03309035614898352]]}',
                 "--t", "0.5", "--adaptive", "--rtol", "1e-09")


@pytest.mark.parametrize("argv", [
    ("verify", "lenard", "--chart", "v", "--n", "9", "--states", "10", "--seed", "5"),
    ("simulate", "--system", "sklyanin", "--state", _COMPLEX_QP, "--t", "0.2", "--adaptive", "--invariants", "H"),
    _MIX_RK4,
    _MIX_FEHLBERG,
    ("verify", "lax", "--system", "vd", "--n", "15", "--seed", "3"),
], ids=["verify", "simulate-complex", "simulate-mix-rk4", "simulate-mix-fehlberg", "verify-lax-vd"])
def test_output_is_the_same_bytes_in_other_processes(capsys, argv):
    # the determinism promise across interpreters: string hashing (and so set
    # and dict-of-str iteration order) differs with PYTHONHASHSEED
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-m", "lattice_flows.cli", *argv], env=child_env(PYTHONHASHSEED=seed),
                              capture_output=True, timeout=120, check=False)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and outputs[0] == outputs[1] == out.encode()


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
    # a finite lambda whose pencil overflows: the record fails by its NaN, and numpy's
    # overflow warnings (errors under this suite's filterwarnings) are not raised
    code, out, err = run(capsys, "verify", "compat", "--chart", "v", "--lambdas", "1e200", "--states", "2")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False
    [record] = report["records"]
    assert record["pass"] is False and np.isnan(record["max_residual"])


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
def test_verify_compat_rejects_a_lambda_that_is_not_finite(capsys, lam):
    code, out, err = run(capsys, "verify", "compat", "--chart", "ab", "--m", "7", f"--lambdas={lam}", "--states", "9")
    assert (code, out, err) == (2, "", f"usage error: --lambdas entry {lam} is not finite\n")


@pytest.mark.parametrize("suite", [("jacobi", "--structure", "pi1-v"), ("lax", "--system", "km")])
@pytest.mark.parametrize("states", ["0", "-3"])
def test_verify_rejects_fewer_than_one_state(capsys, suite, states):
    code, out, err = run(capsys, "verify", *suite, "--states", states)
    assert code == 2 and out == ""
    assert "--states" in err


@pytest.mark.parametrize("pairs", ["Q2:Z4", "H0:H2", "H2:H8", "C:H2", "H2", "H2:H4:H6", "H2:H4,H02:H4",
                                   "H2:H2", "H2:H4,H4:H4"])
def test_verify_involution_rejects_unoffered_pairs(capsys, pairs):
    code, out, err = run(capsys, "verify", "involution", "--m", "3", "--pairs", pairs, "--states", "2")
    assert code == 2 and out == ""
    assert "--pairs" in err


def test_verify_involution_accepts_top_order_at_larger_m(capsys):
    code, out, _ = run(capsys, "verify", "involution", "--m", "4", "--pairs", "H2:H8", "--states", "2")
    assert code == 0
    assert json.loads(out)["records"][0]["check"] == "involution-H2-H8"


def test_verify_involution_default_pairs_keep_what_the_system_offers(capsys):
    # ab offers H6 only from m = 3: the default runs H2:H4 alone at m = 2, an
    # explicit H2:H6 stays a usage error, and at m = 1 (H2 alone) no pair is left
    code, out, _ = run(capsys, "verify", "involution", "--m", "2", "--states", "2")
    assert code == 0
    assert [r["check"] for r in json.loads(out)["records"]] == ["involution-H2-H4"]
    for argv in (("--m", "2", "--pairs", "H2:H6"), ("--m", "1")):
        code, out, err = run(capsys, "verify", "involution", *argv, "--states", "2")
        assert code == 2 and out == "" and "--pairs" in err


def test_simulate_fixed_step_overflow_exits_one(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    state = '{"q":[-300,0],"p":[0,0]}'  # exp(600) overflows in the first step
    argv = ("simulate", "--system", "sklyanin", "--state", state, "--t", "0.1", "--dt", "0.01")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "non-finite" in err and "t = 0.01" in err
    code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 1 and not out_file.exists()


def test_simulate_invariant_overflow_exits_one(capsys):
    # a finite trajectory whose H = p^2/2 + ... overflows: the column is named, as a step's overflow is
    state = '{"q":[1e300,1e300],"p":[1e300,1e300]}'
    code, out, err = run(capsys, "simulate", "--system", "toda", "--state", state, "--t", "0.01", "--dt", "0.005",
                         "--invariants", "H")
    assert (code, out, err) == (1, "", "error: invariant H overflowed to a non-finite value (inf+nanj) at t = 0\n")


@pytest.mark.parametrize("system", ["sklyanin", "sklyanin-full"])
def test_simulate_wall_overflow_of_a_real_state_reads_inf(capsys, system):
    # e^{2 q_2} overflows while p stays ordinary: a wall adds no NaN to a real H
    state = '{"q":[0,400],"p":[0.1,0.2]}'
    code, out, err = run(capsys, "simulate", "--system", system, "--state", state, "--t", "0", "--invariants", "H")
    assert (code, out, err) == (1, "", "error: invariant H overflowed to a non-finite value (inf+0j) at t = 0\n")


@pytest.mark.parametrize("argv, want", [
    # p1^2 + p2^2 overflows at row 1,262, in the tenth block, while the state stays finite
    (("--system", "toda", "--state", '{"q":[707,0],"p":[9.2e153,9.2e153]}', "--t", "3e-154", "--dt", "2e-157",
      "--invariants", "H"), "error: invariant H overflowed to a non-finite value (inf+nanj) at t = 2.524e-154"),
    # F overflows at t = 0, and the domain exit in the second block still wins
    (("--system", "vd", "--state", '{"v":[1e40,1e40,1e40,1e40,1e40,1e40,1e40,1e40,2e40]}', "--t", "1e-40",
      "--dt", "5e-43", "--invariants", "H2,F"),
     "error: positivity-constrained coordinate v3 crossed zero to -1.8790046703498502e+76 at t = 7.3e-41 "
     "(dt = 5e-43)"),
], ids=["later-block", "state-failure-wins"])
def test_simulate_names_an_invariant_overflow_once_the_run_is_over(capsys, argv, want):
    # columns are evaluated block by block as the run goes, but an overflow is
    # raised only after it: at the column's first non-finite row, and only if
    # no state failure ends the run
    code, out, err = run(capsys, "simulate", *argv)
    assert (code, out, err) == (1, "", want + "\n")


@pytest.mark.parametrize("step", [("--t", "0.01", "--dt", "1e-320"), ("--t", "1e300", "--dt", "1")])
def test_simulate_rejects_more_fixed_steps_than_the_limit(step):
    # rejected before the first step; run in a child with a timeout, since
    # without the limit the first run writes rows until the disk is full
    argv = ["simulate", "--system", "ab", "--state", '{"a":[1,1,1],"b":[0,0]}', *step]
    done = subprocess.run([sys.executable, "-m", "lattice_flows.cli", *argv], env=child_env(), capture_output=True,
                          timeout=20, check=False)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == (f"usage error: t / dt = {float(step[1])!r} / {float(step[3])!r} is more than "
                                    f"the {MAX_STEPS:,} fixed steps a run may take; "
                                    "use a larger dt or adaptive steps\n")


def test_simulate_stops_an_adaptive_run_at_the_step_limit():
    # the limit lowered to 1,000 in a child: the run stops with one error line
    # and no CSV, where a run with no limit goes on until it is killed
    child = ("import sys; from lattice_flows import integrate; integrate.MAX_STEPS = 1000; "
             "from lattice_flows.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["simulate", "--system", "ab", "--state", '{"a":[1,0.8,1.2],"b":[0.3,-0.1]}', "--t", "1e300",
            "--adaptive"]
    done = subprocess.run([sys.executable, "-c", child, *argv], env=child_env(), capture_output=True, timeout=20,
                          check=False)
    assert (done.returncode, done.stdout) == (1, b"")
    err = done.stderr.decode()
    assert err.startswith("error: adaptive run reached the 1,000-step limit at t = ") and err.count("\n") == 1
    assert err.endswith(")\n") and " (dt = " in err


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_simulate_memory_does_not_grow_with_run_length():
    # a run streams its rows in blocks and spools its CSV, so 3e4 steps peak
    # within 4 MiB of one step (+1.2 MiB measured; +14.2 MiB when a run held every row)
    child = ("import resource, sys; from lattice_flows.cli import main; code = main(sys.argv[1:]); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
    state = '{"a":[1,0.8,1.2],"b":[0.3,-0.1]}'
    peaks = []
    for t in ("0.001", "30"):
        argv = ["simulate", "--system", "ab", "--m", "2", "--state", state, "--t", t, "--dt", "0.001",
                "--out", os.devnull]
        done = subprocess.run([sys.executable, "-c", child, *argv], env=child_env(), capture_output=True,
                              timeout=120, check=True)
        peaks.append(int(done.stdout))
    assert peaks[1] - peaks[0] <= 4 * 1024, peaks


@pytest.mark.parametrize("policy, at", [(("--dt", "0.01"), "t = 0.01 (dt = 0.01)"),
                                        (("--adaptive",), "t = 1.6384e-12 (dt = 1.64e-12)")],
                         ids=["fixed", "adaptive"])
def test_simulate_overflow_prints_its_error_line_alone(capsys, policy, at):
    # the integrator names the overflow itself, so numpy's overflow and invalid
    # warnings (errors under this suite's filterwarnings) are not raised
    state = '{"q":[-300,0],"p":[0,0]}'
    code, out, err = run(capsys, "simulate", "--system", "sklyanin", "--state", state, "--t", "0.1", *policy)
    assert code == 1 and out == ""
    assert err == f"error: coordinate q1 overflowed to a non-finite value (nan+nanj) at {at}\n"


@pytest.mark.parametrize(
    "state",
    ["5", "[1, 2]", '"u"', '{"u": 5}', '{"u": "12"}', '{"u": [null]}', '{"u": [true]}',
     '{"u": ["1"]}', '{"u": [[1, true]]}', '{"u": [[1, 2, 3]]}', '{"u": [{"re": 1}]}',
     '{"q": [0], "p": 1}',
     # entries a float does not hold finitely, alone or as either part of a pair
     '{"u": [NaN, 1]}', '{"u": [Infinity, 1]}', '{"u": [-Infinity, 1]}', '{"u": [1e400, 1]}',
     '{"u": [1' + '0' * 400 + ', 1]}', '{"u": [[1, NaN], 1]}', '{"u": [[Infinity, 0], 1]}',
     '{"u": [[1, -1e400], 1]}'],
)
@pytest.mark.parametrize("t", ["0", "0.001", "0.1"])
def test_simulate_malformed_state_is_usage_error(capsys, state, t):
    # a non-finite start is refused before any row is written, also by a run that
    # takes no step, and not named as an overflow of the run
    code, out, err = run(capsys, "simulate", "--system", "km", "--state", state, "--t", t, "--dt", "0.01")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


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


def test_simulate_repeated_invariant_is_one_column(capsys):
    argv = ("simulate", "--system", "ab", "--state", '{"a":[1,0.8,1.2],"b":[0.3,-0.1]}',
            "--t", "0.05", "--dt", "0.01", "--invariants")
    code, once, _ = run(capsys, *argv, "H2,H4")
    assert code == 0
    code, repeated, _ = run(capsys, *argv, "H2,H4,H2")
    assert code == 0
    assert repeated == once


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_spectrum_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    # the ratio -0.8 must fail and the integer ratio -1 pass: a NaN or
    # infinite tolerance would pass both, a negative one would flag both
    doc = tmp_path / "spectrum.json"
    doc.write_text(json.dumps({"dimension": 2, "vectors": [[1, 0], [-0.5, 1]]}))
    code, out, _ = run(capsys, "verify", "spectrum", "--file", str(doc))
    assert code == 1
    assert [[i, j] for i, j, _ in json.loads(out)["violations"]] == [[1, 0]]
    code, out, err = run(capsys, "verify", "spectrum", "--file", str(doc), "--tol", tol)
    assert code == 2 and out == ""
    assert "usage error" in err


_SIMULATE_KM = ("simulate", "--system", "km", "--state", '{"u":[1,0.5,0.8]}', "--t", "0.02", "--dt", "0.01")
_SPECTRUM_STATE = ("--state", '{"a":[-1,-1,-1],"b":[0,0,0]}', "--t", "0.02", "--dt", "0.01")


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--system", "km", "--state", "@MISSING", "--t", "0.02", "--dt", "0.01"),
     ("simulate", "--system", "spectrum", "--spectrum", "MISSING", *_SPECTRUM_STATE),
     ("verify", "spectrum", "--file", "MISSING"),
     _SIMULATE_KM + ("--out", "MISSING/traj.csv")],
    ids=["state-file", "spectrum-file", "verify-spectrum-file", "out"],
)
def test_file_errors_are_usage_errors(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(arg.replace("MISSING", str(missing)) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and str(missing) in err


@pytest.mark.parametrize(
    "document, message",
    [('{"dimension": 2, "vectors": [[1, 0], [Infinity, 0]]}', "finite"),
     ('{"dimension": 2, "vectors": [[1, 0], [NaN, 0]]}', "finite"),
     ('{"dimension": 2, "vectors": [[1, -Infinity]]}', "finite"),
     ('{"dimension": Infinity, "vectors": [[1, 0]]}', "finite"),
     ('{"dimension": 2, "vectors": [1, 2]}', "list of lists"),
     ('{"dimension": 2, "vectors": {"a": [1, 0]}}', "list of lists"),
     ('{"dimension": 2, "vectors": [[1, "0"]]}', "number"),
     ('{"dimension": 2, "vectors": [[1, true]]}', "number"),
     ('{"dimension": "2", "vectors": [[1, 0]]}', "number"),
     ('[1]', "JSON object"), ('"spectrum"', "JSON object"), ('{"dimension": 2}', "vectors"),
     ('{"dimension": 2, "vectors": [[1, 0], [0, 1]], "labels": "ab"}', "list of strings"),
     ('{"dimension": 2, "vectors": [[1, 0], [0, 1]], "labels": [1, {"x": 2}]}', "list of strings"),
     ('{"dimension": 2, "vectors": [[1, 0], [0, 1]], "labels": null}', "list of strings"),
     ('{"dimension": 2, "vectors": [[1, 0], [0, 1]], "labels": ["a"]}', "one label per vector")],
)
def test_malformed_spectrum_document_is_usage_error(tmp_path, capsys, document, message):
    doc = tmp_path / "spectrum.json"
    doc.write_text(document)
    for argv in (("verify", "spectrum", "--file", str(doc)),
                 ("simulate", "--system", "spectrum", "--spectrum", str(doc), *_SPECTRUM_STATE)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err.startswith("usage error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [(("verify", "transform", "--map", "flaschka-sklyanin", "--m", "0"), "sklyanin_flaschka needs at least one q"),
     (("simulate", "--system", "sklyanin", "--state", '{"q":[],"p":[]}', "--t", "0.1", "--dt", "0.05"),
      "the sklyanin field needs at least one q"),
     (("simulate", "--system", "sklyanin-full", "--state", '{"q":[],"p":[]}', "--t", "0.1", "--dt", "0.05"),
      "the sklyanin_full field needs at least one q"),
     # at t = 0 no field is evaluated, so the H column meets the empty state first
     (("simulate", "--system", "sklyanin", "--state", '{"q":[],"p":[]}', "--t", "0", "--invariants", "H"),
      "the sklyanin Hamiltonian needs at least one q"),
     (("simulate", "--system", "sklyanin-full", "--state", '{"q":[],"p":[]}', "--t", "0", "--invariants", "H"),
      "the sklyanin_full Hamiltonian needs at least one q")],
    ids=["verify-flaschka-sklyanin", "simulate-sklyanin", "simulate-sklyanin-full", "simulate-sklyanin-H-t0",
         "simulate-sklyanin-full-H-t0"],
)
def test_empty_qp_state_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_simulate_needs_dt_or_adaptive(capsys):
    code, out, err = run(capsys, "simulate", "--system", "ab", "--state", '{"a":[1,0.8,1.2],"b":[0.3,-0.1]}',
                         "--t", "0.1")
    assert code == 2 and out == ""
    assert err == "usage error: --dt is required unless --adaptive is given\n"


@pytest.mark.parametrize("policy", [("--dt", "0.05"), ("--adaptive",)], ids=["fixed", "adaptive"])
def test_empty_km_chain_is_usage_error(capsys, policy):
    code, out, err = run(capsys, "simulate", "--system", "km", "--state", '{"u":[]}', "--t", "0.1", *policy)
    assert code == 2 and out == ""
    assert err == "usage error: the km field needs n >= 1\n"


@pytest.mark.parametrize(
    "run_args, message",
    [(("--t", "0.1", "--dt", "0.05"), "the toda field needs at least one q"),
     (("--t", "0.1", "--adaptive"), "the toda field needs at least one q"),
     # at t = 0 no field is evaluated, so the H column meets the empty state first
     (("--t", "0", "--invariants", "H"), "the toda Hamiltonian needs at least one q")],
    ids=["fixed", "adaptive", "H-t0"],
)
def test_empty_toda_qp_state_is_usage_error(capsys, run_args, message):
    # an empty chain has no coordinate to move: a CSV of t alone, or H = 0, would certify nothing
    code, out, err = run(capsys, "simulate", "--system", "toda", "--state", '{"q":[],"p":[]}', *run_args)
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_casimir_C_at_m0_is_usage_error(capsys):
    # with one a, a_1 would be both end factors of C = a_1 a_2^2 ... a_m^2 a_{m+1}
    code, out, err = run(capsys, "simulate", "--system", "ab", "--state", '{"a":[2],"b":[]}', "--t", "0",
                         "--invariants", "C")
    assert code == 2 and out == ""
    assert err == "usage error: casimir_C_column needs m >= 1\n"
