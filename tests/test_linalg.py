import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centralizer_lab import linalg, suites
from centralizer_lab.errors import NoConvergence, SingularMinor


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


def test_eigvals_fail_sample_by_sample(monkeypatch):
    # LAPACK refuses the whole stack; only the sample it refuses alone fails
    linalg.forget_spectra()  # a spectrum kept from before would bypass the patch
    bad = np.diag([2.0, -2.0])
    matrices = np.stack([np.diag([1.0, -1.0]), bad, np.array([[0.0, 1.0], [1.0, 0.0]])]) + 0j
    eigvals = np.linalg.eigvals

    def failing(a):
        if any(np.array_equal(ak, bad) for ak in np.reshape(a, (-1, 2, 2))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    values, errors = linalg.eigvals(matrices)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], NoConvergence)
    assert str(errors[1]) == "eigensolver did not converge: Eigenvalues did not converge"
    assert values[0].tobytes() == eigvals(matrices[0]).tobytes()
    assert values[2].tobytes() == eigvals(matrices[2]).tobytes()
    assert not values[1].any()
    with pytest.raises(NoConvergence, match="did not converge"):
        linalg.eigvals(bad)


def _counting_eigvals(monkeypatch, fails=lambda a: False):
    """Count the stacks that reach np.linalg.eigvals, which raises where
    ``fails(a)``; the spectrum memo starts empty."""
    linalg.forget_spectra()
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        if fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("n", [2, 5, 8])
def test_eigvals_memo_gives_the_solved_bits(monkeypatch, n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (6, n, n)) + 1j * rng.uniform(-1, 1, (6, n, n))
    fresh = np.linalg.eigvals(x)
    calls = _counting_eigvals(monkeypatch)
    for _ in range(2):  # solved, then served by the memo
        values, errors = linalg.eigvals(x)
        assert values.tobytes() == fresh.tobytes() and errors == [None] * 6
    for k in (0, 5):  # a point is a stack of its own, which replaces the one before
        for _ in range(2):
            assert linalg.eigvals(x[k]).tobytes() == fresh[k].tobytes()
    assert calls == [(6, n, n), (1, n, n), (1, n, n)]
    # a returned array is the caller's own: changing it leaves the memo intact
    single = linalg.eigvals(x[5])
    single[0] = 7.0
    assert linalg.eigvals(x[5]).tobytes() == fresh[5].tobytes()
    values, errors = linalg.eigvals(x)
    values[:] = 0
    errors[0] = NoConvergence("changed")
    again, errors = linalg.eigvals(x)
    assert again.tobytes() == fresh.tobytes() and errors == [None] * 6
    assert len(calls) == 4


def test_eigvals_memo_keeps_the_last_stacks(monkeypatch):
    calls = _counting_eigvals(monkeypatch)
    stacks = [np.diag([k + 1.0, -k - 1.0])[None] for k in range(3)]
    for a in stacks:
        linalg.eigvals(a)
    assert len(calls) == 3
    linalg.eigvals(stacks[-1])  # kept
    assert len(calls) == 3
    linalg.eigvals(stacks[0])  # replaced by each later stack
    linalg.eigvals(stacks[1])
    assert len(calls) == 5
    # the key is the shape and the bytes: a copy is served by the memo, a
    # reshaped or changed stack is new
    linalg.eigvals(stacks[1].copy())
    assert len(calls) == 5
    linalg.eigvals(np.concatenate([stacks[1], stacks[1]]))
    linalg.eigvals(stacks[1] + 1e-300)
    assert len(calls) == 7
    linalg.forget_spectra()
    linalg.eigvals(stacks[1] + 1e-300)
    assert len(calls) == 8


def test_eigvals_memo_keeps_no_failed_solve(monkeypatch):
    bad = np.diag([2.0, -2.0]) + 0j
    calls = _counting_eigvals(
        monkeypatch, lambda a: any(np.array_equal(ak, bad) for ak in np.reshape(a, (-1, 2, 2))))
    matrices = np.stack([np.diag([1.0, -1.0]), bad]) + 0j
    for _ in range(2):
        _, errors = linalg.eigvals(matrices)
        assert errors[0] is None and isinstance(errors[1], NoConvergence)
        with pytest.raises(NoConvergence):
            linalg.eigvals(bad)
    # each call tried the stack and then its samples; the failed ones again
    assert calls == [(2, 2, 2), (2, 2), (2, 2), (1, 2, 2), (2, 2)] * 2


def test_eigvals_failed_solve_keeps_the_memo(monkeypatch):
    bad = np.diag([2.0, -2.0]) + 0j
    calls = _counting_eigvals(
        monkeypatch, lambda a: any(np.array_equal(ak, bad) for ak in np.reshape(a, (-1, 2, 2))))
    good = np.diag([3.0, -3.0])[None] + 0j
    linalg.eigvals(good)
    _, errors = linalg.eigvals(np.stack([good[0], bad]))
    assert isinstance(errors[1], NoConvergence)
    calls.clear()
    assert linalg.eigvals(good)[0].tobytes() == np.linalg.eigvals(good).tobytes()
    assert calls == [(1, 2, 2)]  # the reference solve alone


def test_no_spectrum_serves_a_later_check(monkeypatch):
    # each check starts from an empty memo, so a repeated check or command
    # solves every spectrum it solved the first time
    calls = _counting_eigvals(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        assert suites.run_check("toda_flow_semigroup", 3, 42, 5).passed
        counts.append(len(calls))
        calls.clear()
        suites.run_all(2, 42, 3)
        counts.append(len(calls))
    assert counts[:2] == counts[2:] and min(counts) > 0


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


@pytest.mark.parametrize("n", range(2, 9))
def test_matrix_powers_match_matrix_power(n):
    # numpy's matrix_power multiplies x^1..x^3 in the ladder's order, so
    # those are bit-equal; from x^4 on it squares, and the two products
    # round differently.  Measured for k = 4..8: at most 1.1 eps ||x||^k
    # apart on these draws and 2.3 eps ||x||^k over 49 more seeds of 200
    # matrices per n; the bound 16 eps ||x||^k leaves a 7x margin.
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (200, n, n)) + 1j * rng.uniform(-1, 1, (200, n, n))
    powers = linalg.matrix_powers(x, 8)
    assert powers.shape == (200, 9, n, n)
    assert np.array_equal(powers[:, 1], x)
    for k in range(9):
        exact = np.linalg.matrix_power(x, k)
        if k <= 3:
            assert np.array_equal(powers[:, k], exact), k
        else:
            gap = np.linalg.norm(powers[:, k] - exact, axis=(1, 2))
            assert np.all(gap <= 16 * np.finfo(float).eps * np.linalg.norm(x, axis=(1, 2)) ** k), k
    # prefix-consistent, and a stacked ladder is each matrix's own
    assert np.array_equal(linalg.matrix_powers(x, 5), powers[:, :6])
    for j in (0, 7, 199):
        assert np.array_equal(linalg.matrix_powers(x[j], 8), powers[j])
