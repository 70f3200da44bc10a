import json

import numpy as np
import pytest

from lattice_flows import (
    DimensionError,
    NonIntegerMultiplicity,
    Spectrum,
    build_diagram,
    gram_matrix,
    kozlov_treshchev_check,
    null_combination,
    sklyanin_spectrum,
    spectrum_from_json,
    spectrum_to_json,
)

A2 = Spectrum(3, ((1, -1, 0), (0, 1, -1)))


def test_gram_a2_simple_roots():
    assert np.array_equal(gram_matrix(A2), [[2, -1], [-1, 2]])


def test_gram_orthonormal_basis():
    spec = Spectrum(2, ((1, 0), (0, 1)))
    assert np.array_equal(gram_matrix(spec), np.eye(2))


def test_gram_single_vector():
    assert np.array_equal(gram_matrix(Spectrum(2, ((2, 0),))), [[4.0]])


def test_gram_exactly_symmetric(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        count = int(rng.integers(1, 7))
        spec = Spectrum(n, tuple(tuple(rng.normal(size=n) + 0.1) for _ in range(count)))
        m = gram_matrix(spec)
        assert np.array_equal(m, m.T)


def test_spectrum_rejects_zero_vector():
    with pytest.raises(DimensionError):
        Spectrum(2, ((0, 0),))


def test_diagram_a2():
    d = build_diagram(A2)
    assert d.multiplicities[0][1] == 1
    assert d.weights == (1.0, 1.0)
    assert d.edges() == [(0, 1, 1)]


def test_diagram_orthogonal_vectors():
    d = build_diagram(Spectrum(2, ((1, 0), (0, 1))))
    assert d.edges() == []


def test_diagram_mixed_lengths():
    d = build_diagram(Spectrum(2, ((1, -1), (-2, 0))))
    assert d.multiplicities[0][1] == 2
    assert d.weights == (1.0, 2.0)


def test_diagram_multiplicities_symmetric_zero_diagonal(rng):
    spec = sklyanin_spectrum(5)
    d = build_diagram(spec)
    mult = np.array(d.multiplicities)
    assert np.array_equal(mult, mult.T)
    assert np.all(np.diag(mult) == 0)


def test_diagram_sklyanin_truncation_pattern():
    d = build_diagram(sklyanin_spectrum(4))
    # doubled edges where the long end vectors meet the chain, single inside
    assert d.edges() == [(0, 1, 1), (0, 3, 2), (1, 2, 1), (2, 4, 2)]
    assert d.weights == (1.0, 1.0, 1.0, 2.0, 2.0)


def test_diagram_non_integer_multiplicity():
    with pytest.raises(NonIntegerMultiplicity):
        build_diagram(Spectrum(2, ((1, 0), (2, 1))))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError):
        kozlov_treshchev_check(A2, tol=tol)
    with pytest.raises(ValueError):
        build_diagram(A2, tol=tol)


def test_condition_sklyanin_example():
    report = kozlov_treshchev_check(sklyanin_spectrum(3))
    assert report.passed
    assert report.violations == ()


def test_condition_positive_ratio_violation():
    report = kozlov_treshchev_check(Spectrum(2, ((1, 0), (1, 1))))
    assert not report.passed
    assert (0, 1, 2.0) in report.violations


def test_condition_single_vector_passes():
    assert kozlov_treshchev_check(Spectrum(3, ((1, 2, 3),))).passed


def test_condition_sklyanin_all_sizes():
    for n in range(2, 13):
        assert kozlov_treshchev_check(sklyanin_spectrum(n)).passed, n


def test_condition_augmented_spectrum_fails():
    for n in range(2, 8):
        base = sklyanin_spectrum(n)
        extra = [0.0] * n
        extra[0] = extra[min(1, n - 1)] = 1.0
        spoiled = Spectrum(n, base.vectors + (tuple(extra),))
        report = kozlov_treshchev_check(spoiled)
        assert not report.passed
        assert any(ratio > 0 for _, _, ratio in report.violations)


def test_null_combination_sklyanin():
    basis = null_combination(sklyanin_spectrum(4))
    assert len(basis) == 1
    lam = basis[0]
    # chain vectors carry weight 2, the two long end vectors weight 1
    expected = np.array([1.0, 1.0, 1.0, 0.5, 0.5])
    assert np.allclose(lam, expected, atol=1e-12)


def test_null_combination_independent_vectors():
    assert null_combination(A2) == []


def test_null_combination_opposite_vectors():
    basis = null_combination(Spectrum(2, ((1, 0), (-1, 0))))
    assert len(basis) == 1
    assert np.allclose(basis[0], [1.0, 1.0])


def test_null_combination_annihilates(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n + 1, n + 4))
        spec = Spectrum(n, tuple(tuple(rng.normal(size=n) + 0.05) for _ in range(count)))
        vecs = spec.matrix
        basis = null_combination(spec)
        assert len(basis) >= count - n
        for lam in basis:
            assert np.linalg.norm(lam @ vecs) < 1e-12


def test_sklyanin_spectrum_n2():
    assert sklyanin_spectrum(2).vectors == ((1.0, -1.0), (-2.0, 0.0), (0.0, 2.0))


def test_sklyanin_spectrum_n3_count():
    spec = sklyanin_spectrum(3)
    assert spec.dimension == 3 and spec.count == 4


def test_spectrum_json_roundtrip():
    spec = sklyanin_spectrum(4)
    again = spectrum_from_json(spectrum_to_json(spec))
    assert again == spec
    parsed = spectrum_from_json(json.dumps({"dimension": 2, "vectors": [[1, 0], [0, 1]]}))
    assert parsed.count == 2
