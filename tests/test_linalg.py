import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centralizer_lab import linalg
from centralizer_lab.errors import SingularMinor


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_eig_diagonal():
    values, _ = linalg.eig(np.diag([3.0, 1.0, -4.0]))
    assert sorted(values.real) == pytest.approx([-4.0, 1.0, 3.0])
    assert np.max(np.abs(values.imag)) < 1e-14


def test_eig_involution():
    values, _ = linalg.eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sorted(values.real) == pytest.approx([-1.0, 1.0])


def test_eig_companion_cube_roots():
    # Companion matrix of t^3 - 1; oracle: the characteristic polynomial
    # evaluated at each returned eigenvalue must vanish.
    companion = np.array([[0.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0]])
    values, _ = linalg.eig(companion)
    assert np.max(np.abs(values ** 3 - 1.0)) < 1e-12
    # the three values are distinct cube roots of unity
    assert np.min(np.abs(values[:, None] - values[None, :]) + np.eye(3)) > 0.5


def test_eig_reconstruction_seeded():
    rng = np.random.Generator(np.random.Philox(key=2024))
    for _ in range(50):
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        values, vectors = linalg.eig(a)
        if np.linalg.cond(vectors) >= 1e6:
            continue
        recon = vectors @ np.diag(values) @ np.linalg.inv(vectors)
        assert linalg.norm(recon - a) <= 1e-9 * linalg.norm(a)


def test_mat_exp_zero():
    assert np.array_equal(linalg.mat_exp(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("t", [0.5, -1.0, 2.0 + 1.0j])
def test_mat_exp_nilpotent(t):
    a = np.array([[0.0, t], [0.0, 0.0]])
    expected = np.array([[1.0, t], [0.0, 1.0]])
    assert linalg.norm(linalg.mat_exp(a) - expected) < 1e-14 * (1 + abs(t))


@pytest.mark.parametrize("t", [0.3, 1.0, -2.0])
def test_mat_exp_involution_formula(t):
    # a squares to the identity, so exp(t a) = cosh(t) I + sinh(t) a; the
    # right side is the independent oracle.
    a = np.array([[1.0, 0.0], [1.0, -1.0]])
    assert linalg.norm(a @ a - np.eye(2)) == 0.0
    expected = np.cosh(t) * np.eye(2) + np.sinh(t) * a
    assert linalg.norm(linalg.mat_exp(t * a) - expected) < 1e-13 * np.cosh(t)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
def test_mat_exp_inverse_property(flat):
    entries = np.array(flat[:9]) + 1j * np.array(flat[9:])
    a = entries.reshape(3, 3)
    if linalg.norm(a) > 5.0:
        a = a * (5.0 / linalg.norm(a))
    dev = linalg.norm(linalg.mat_exp(a) @ linalg.mat_exp(-a) - np.eye(3))
    assert dev <= 1e-12


def test_mat_exp_matches_series_oracle():
    # The truncated series at small norm is an independent, machine-accurate
    # reference for the advertised series contract.
    rng = np.random.Generator(np.random.Philox(key=12))
    for _ in range(10):
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        a *= 0.5 / linalg.norm(a)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 26):
            term = term @ a / k
            series = series + term
        out = linalg.mat_exp(a)
        assert linalg.norm(out - series) <= linalg.TOL_EXP * linalg.norm(out)


def test_mat_exp_commuting_product():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(25):
        a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        a /= linalg.norm(a)
        p = a + 0.4 * a @ a
        q = 0.7 * a - 0.2 * a @ a
        assert linalg.norm(p @ q - q @ p) < 1e-14
        lhs = linalg.mat_exp(p + q)
        rhs = linalg.mat_exp(p) @ linalg.mat_exp(q)
        assert linalg.norm(lhs - rhs) <= 1e-10 * linalg.norm(rhs)


def test_gauss_ldu_identity():
    lower, diag, upper = linalg.gauss_ldu(np.eye(3))
    assert np.array_equal(lower, np.eye(3))
    assert np.array_equal(diag, np.eye(3))
    assert np.array_equal(upper, np.eye(3))


def test_gauss_ldu_example():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    lower, diag, upper = linalg.gauss_ldu(a)
    assert linalg.norm(lower @ diag @ upper - a) <= 1e-12 * linalg.norm(a)
    assert lower == pytest.approx(np.array([[1.0, 0.0], [0.5, 1.0]]))
    assert np.diag(diag) == pytest.approx(np.array([2.0, 0.5]))
    assert upper == pytest.approx(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gauss_ldu_singular_minor():
    with pytest.raises(SingularMinor) as excinfo:
        linalg.gauss_ldu(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert excinfo.value.index == 1
    with pytest.raises(SingularMinor) as excinfo:
        linalg.gauss_ldu(np.zeros((3, 3)))
    assert excinfo.value.index == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
# a subnormal pivot: the norm of this input underflows to 0
@example([2.225073858507203e-309, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
def test_gauss_ldu_roundtrip_property(flat):
    a = (np.array(flat[:4]) + 1j * np.array(flat[4:])).reshape(2, 2)
    try:
        lower, diag, upper = linalg.gauss_ldu(a)
    except (SingularMinor, ValueError):
        return
    assert np.array_equal(np.diag(lower), np.ones(2))
    assert np.array_equal(np.diag(upper), np.ones(2))
    error = linalg.norm(lower @ diag @ upper - a)
    # Minors barely above the admissibility threshold force an elimination
    # growth of order 1/minor, so the headline tolerance is only reachable
    # away from the threshold; near it the error scales with the growth.
    growth = (linalg.norm(lower) * linalg.norm(diag) * linalg.norm(upper)
              / max(linalg.norm(a), 1e-300))
    if abs(a[0, 0]) > 1e-3 * linalg.norm(a):
        assert error <= 1e-12 * linalg.norm(a)
    else:
        assert error <= 1e-12 * linalg.norm(a) * (1.0 + growth)


def test_kernel_basis_zero_matrix():
    basis = linalg.kernel_basis(np.zeros((3, 3)))
    assert basis.shape == (3, 3)
    assert linalg.norm(basis.conj().T @ basis - np.eye(3)) < 1e-14


def test_kernel_basis_identity():
    assert linalg.kernel_basis(np.eye(4)).shape == (4, 0)


def test_kernel_basis_rank_one():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 2.0
    basis = linalg.kernel_basis(a)
    assert basis.shape == (3, 2)
    assert linalg.norm(a @ basis) < 1e-12


def _first_singular_minor(a, tol_minor=linalg.TOL_MINOR):
    """Reference: the 1-based order k < n of the first pivot, the ratio of
    the leading minors of orders k and k - 1 by explicit determinants, of
    modulus <= tol_minor * ||a||; None if there is none."""
    threshold = tol_minor * linalg.norm(a)
    previous = 1.0
    for k in range(1, a.shape[0]):
        minor = np.linalg.det(a[:k, :k])
        if abs(minor / previous) <= threshold:
            return k
        previous = minor
    return None


@pytest.mark.parametrize("n", [2, 4, 8])
def test_gauss_ldu_minor_verdict_matches_determinants(n):
    rng = np.random.default_rng(n)
    for trial in range(40):
        a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        k = trial % (n + 1)
        if k:  # make the leading minor of order k vanish exactly
            a[k - 1, :k] = a[:k - 1, :k].sum(axis=0) if k > 1 else 0.0
        expected = _first_singular_minor(a)
        if expected is None:
            lower, diag, upper = linalg.gauss_ldu(a)
            assert linalg.norm(lower @ diag @ upper - a) <= 1e-10 * linalg.norm(a)
        else:
            with pytest.raises(SingularMinor) as excinfo:
                linalg.gauss_ldu(a)
            assert excinfo.value.index == expected
