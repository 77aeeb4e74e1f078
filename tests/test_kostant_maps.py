import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from centralizer_lab import kostant_maps, linalg
from centralizer_lab.errors import (
    NoConvergence,
    NotCentralizing,
    NotInGStar,
    NotInV,
    NotInXiPlusB,
    SingularMinor,
)
from centralizer_lab.invariants import invariant_vector, section_from_invariants
from centralizer_lab.kostant_maps import (
    CHAMBER_GAP,
    chamber_conjugator,
    chamber_form,
    chamber_to_section_conjugator,
    conjugate_section,
    decompose_to_section,
    dress,
    gstar_factor,
    longest_weyl_lift,
    real_part_gap,
    section_form,
    stabilizer_lift,
    unipotent_conjugator,
    unipotent_exp,
)
from centralizer_lab.lie_core import (
    adjoint,
    build_chevalley,
    group_equal,
    scalar_aligned_distance,
)
from centralizer_lab.sampling import (
    complex_uniform,
    random_section_point,
    random_stabilizer_element,
    sample_flow_domain,
    stream,
)
from centralizer_lab.suites import run_check
from centralizer_lab.toda import toda_matrix

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])
GOLDEN_THETA = np.array([[1.0, 0.0], [1.0, -1.0]])
GOLDEN_NU = np.array([[1.0, -1.0], [0.0, 1.0]])
GOLDEN_LIFT = np.array([[1.0, 0.0], [1.0, -1.0]])


def _random_xi_plus_b(chev, rng):
    upper = np.triu(complex_uniform(rng, (chev.n, chev.n)))
    upper -= (np.trace(upper) / chev.n) * np.eye(chev.n)
    return chev.xi + upper


def _random_unitriangular(chev, rng):
    return np.eye(chev.n) + np.triu(complex_uniform(rng, (chev.n, chev.n), scale=0.8), 1)


# ----------------------------- longest Weyl lift ------------------------ #

def test_longest_weyl_n2():
    chev = build_chevalley(2)
    assert group_equal(longest_weyl_lift(chev), FLIP2)


def test_longest_weyl_n3_brute_force_oracle():
    # Oracle: search antidiagonal candidates (first entry pinned to 1 by the
    # scalar quotient, the rest over a sign/scale grid) for the defining
    # adjoint condition; the solution must be unique and match the lift.
    chev = build_chevalley(3)
    lift = longest_weyl_lift(chev)
    solutions = []
    grid = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]
    for a2, a3 in itertools.product(grid, repeat=2):
        w = np.zeros((3, 3), dtype=complex)
        w[0, 2], w[1, 1], w[2, 0] = 1.0, a2, a3
        ok = all(
            linalg.norm(adjoint(w, chev.e_plus[i]) - chev.e_minus[chev.r - 1 - i]) < 1e-12
            for i in range(chev.r))
        if ok:
            solutions.append(w)
    assert len(solutions) == 1
    assert group_equal(solutions[0], lift)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_longest_weyl_defining_property(n):
    chev = build_chevalley(n)
    w0 = longest_weyl_lift(chev)
    for i in range(chev.r):
        dev = linalg.norm(adjoint(w0, chev.e_plus[i]) - chev.e_minus[chev.r - 1 - i])
        assert dev <= 1e-14


# ----------------------------- section (de)composition ------------------ #

def test_conjugate_section_n2_example():
    # Hand conjugation: u s u^{-1} for u = [[1,1],[0,1]], s the flip.
    chev = build_chevalley(2)
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    out = conjugate_section(chev, u, FLIP2)
    assert np.allclose(out, GOLDEN_THETA, atol=1e-14)


def test_conjugate_section_structure():
    chev = build_chevalley(4)
    rng = stream(31, "psi-structure")
    for _ in range(20):
        u = _random_unitriangular(chev, rng)
        s = random_section_point(chev, rng)
        out = conjugate_section(chev, u, s)
        assert linalg.norm(np.tril(out, -1) - chev.xi) <= 1e-12 * (1 + linalg.norm(out))


def test_conjugate_section_rejects_bad_unipotent():
    chev = build_chevalley(2)
    with pytest.raises(ValueError):
        conjugate_section(chev, np.array([[2.0, 0.0], [0.0, 0.5]]), FLIP2)


def test_decompose_fixes_section_points():
    chev = build_chevalley(3)
    rng = stream(32, "psi-fix")
    s = random_section_point(chev, rng)
    dec = decompose_to_section(chev, s)
    assert np.allclose(dec.u, np.eye(3), atol=1e-12)
    assert np.allclose(dec.s, s, atol=1e-12)


def test_decompose_n2_golden():
    # Hand solve of the 2x2 unipotent conjugation.
    chev = build_chevalley(2)
    dec = decompose_to_section(chev, GOLDEN_THETA)
    assert np.allclose(dec.u, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-12)
    assert np.allclose(dec.s, FLIP2, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_decompose_roundtrip_seeded(n):
    chev = build_chevalley(n)
    rng = stream(33, f"psi-roundtrip-{n}")
    for _ in range(100):
        z = _random_xi_plus_b(chev, rng)
        dec = decompose_to_section(chev, z)
        recon = adjoint(dec.u, dec.s)
        assert linalg.norm(recon - z) <= 1e-10 * (1 + linalg.norm(z))
        u = _random_unitriangular(chev, rng)
        s = random_section_point(chev, rng)
        dec2 = decompose_to_section(chev, conjugate_section(chev, u, s))
        assert linalg.norm(dec2.u - u) <= 1e-10 * (1 + linalg.norm(u))
        assert linalg.norm(dec2.s - s) <= 1e-10 * (1 + linalg.norm(s))


def test_decompose_rejects_off_shape():
    chev = build_chevalley(3)
    bad = chev.xi * 2.0  # subdiagonal is 2, not 1
    with pytest.raises(NotInXiPlusB):
        decompose_to_section(chev, bad)


def test_decompose_rejects_nonzero_trace():
    # The section is traceless and conjugation keeps the trace, so a point
    # of xi + b with trace has no decomposition; nothing is solved.
    chev = build_chevalley(2)
    with pytest.raises(NotInXiPlusB, match="trace"):
        decompose_to_section(chev, np.array([[0, 0], [1, 1j]]))


def test_unipotent_exp_matches_general_exp():
    chev = build_chevalley(4)
    rng = stream(34, "unipotent-exp")
    q = np.triu(complex_uniform(rng, (4, 4)), 1)
    assert np.allclose(unipotent_exp(q), linalg.mat_exp(q), atol=1e-13)


# ----------------------------- chamber form ----------------------------- #

def test_chamber_form_n2():
    chev = build_chevalley(2)
    assert np.allclose(chamber_form(chev, FLIP2), GOLDEN_THETA, atol=1e-12)


def test_chamber_form_fixes_chamber_points():
    chev = build_chevalley(3)
    point = chev.xi + np.diag([2.0 + 1.0j, 0.5 + 1.0j, -2.5 - 2.0j])
    assert np.allclose(chamber_form(chev, point), point, atol=1e-12)


def test_chamber_form_rejects_equal_real_parts():
    chev = build_chevalley(2)
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
    with pytest.raises(NotInV):
        chamber_form(chev, rotation)


def test_chamber_form_reads_values_where_eigenpairs_fail():
    # the spectrum {0, 1} is well separated, but LAPACK returns e_1 as the
    # eigenvector of 0: eig's pair check fails, the values are right
    chev = build_chevalley(2)
    point = np.array([[0.0, 6.3e-248], [1.0, 1.0]])
    assert np.allclose(chamber_form(chev, point), chev.xi + np.diag([1.0, 0.0]), atol=1e-15)
    with pytest.raises(NoConvergence, match="eigenpair residual"):
        linalg.eig(point)


def test_chamber_form_preserves_invariants():
    chev = build_chevalley(4)
    rng = stream(35, "chamber-invariants")
    for _ in range(20):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        form = chamber_form(chev, x)
        dev = np.linalg.norm(invariant_vector(chev, form) - invariant_vector(chev, x))
        assert dev <= 1e-9


# ----------------------------- conjugators ------------------------------ #

def test_chamber_conjugator_identity_on_chamber():
    chev = build_chevalley(2)
    assert np.allclose(chamber_conjugator(chev, GOLDEN_THETA), np.eye(2), atol=1e-12)


def test_chamber_conjugator_n2_golden():
    chev = build_chevalley(2)
    assert np.allclose(chamber_conjugator(chev, FLIP2), GOLDEN_NU, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chamber_conjugator_defining_property(n):
    chev = build_chevalley(n)
    rng = stream(36, f"nu-defining-{n}")
    for _ in range(30):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        u = chamber_conjugator(chev, x)
        assert linalg.norm(adjoint(u, chamber_form(chev, x)) - x) \
            <= 1e-9 * (1 + linalg.norm(x))


def test_chamber_conjugator_rejects_points_off_xi_plus_b():
    chev = build_chevalley(3)
    with pytest.raises(NotInXiPlusB):
        chamber_conjugator(chev, np.diag([1.0, 0.0, -1.0]) + np.eye(3, k=-1) + np.eye(3, k=-2))


def _xi_plus_b_from(entries, log_scale):
    n = int(np.sqrt(len(entries) // 2))
    parts = np.array(entries).reshape(2, n, n)
    return build_chevalley(n), np.eye(n, k=-1) + 10.0 ** log_scale * np.triu(parts[0] + 1j * parts[1])


_XI_PLUS_B = dict(
    entries=st.integers(2, 8).flatmap(
        lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n, max_size=2 * n * n)),
    log_scale=st.floats(-1.0, 1.0))


# derandomized here and below, so that every run draws the same examples
@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_XI_PLUS_B)
def test_column_recurrence_within_its_error_bound(entries, log_scale):
    # Columns 0..n-2 of u theta - x u are the rounding of the n-1 products
    # u[:, j+1] = (x - lam_j) u[:, j], each carried to the last column by the
    # later factors.  The last column is prod_m (x - lam_m) e_1: to first
    # order in the eigenvalue errors, |delta_k| <= n eps |x| kappa_k, it is
    # sum_k delta_k prod_{m != k} (x - lam_m) e_1.  theta takes scipy's
    # eigenvalues, whose condition numbers kappa_k come with them.
    chev, x = _xi_plus_b_from(entries, log_scale)
    n = chev.n
    values, left, right = scipy.linalg.eig(x, left=True, right=True)
    assume(real_part_gap(values) > CHAMBER_GAP)
    order = np.argsort(-values.real)
    lam = values[order]
    kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))[order]
    theta = chev.xi + np.diag(lam)
    u = unipotent_conjugator(x, theta)
    assert np.array_equal(np.tril(u), np.eye(n))

    eps, size = np.finfo(float).eps, linalg.norm(x)
    factors = [np.linalg.norm(x - lam_m * np.eye(n), 2) for lam_m in lam]
    rounding = sum((n + 1) * eps * (size + abs(lam[j])) * np.linalg.norm(u[:, j])
                   * (1.0 + np.prod(factors[j + 1:])) for j in range(n - 1))
    spectral = 0.0
    for k in range(n):
        v = np.eye(n, dtype=complex)[:, 0]
        for m in range(n):
            if m != k:
                v = x @ v - lam[m] * v
        spectral += n * eps * size * kappa[k] * np.linalg.norm(v)
    assert linalg.norm(u @ theta - x @ u) <= rounding + spectral


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_XI_PLUS_B, unipotent=st.lists(st.floats(-1.0, 1.0), min_size=128, max_size=128))
def test_chamber_conjugator_is_conjugation_equivariant(entries, log_scale, unipotent):
    # Ad_v(x) for v upper unitriangular has the same chamber form, so its
    # conjugator is v times that of x.  The real parts are kept 1e-6 apart,
    # so that rounding in Ad_v cannot reorder the chamber form, and the
    # bound scales with the eigenvalue conditioning and with cond(v).
    chev, x = _xi_plus_b_from(entries, log_scale)
    n = chev.n
    values, left, right = scipy.linalg.eig(x, left=True, right=True)
    assume(real_part_gap(values) > 1e-6)
    parts = np.array(unipotent).reshape(2, 8, 8)[:, :n, :n]
    v = np.eye(n) + np.triu(parts[0] + 1j * parts[1], 1)
    moved = chev.xi + np.triu(v @ x @ linalg.inv(v))
    expected = v @ chamber_conjugator(chev, x)
    kappa = np.max(1.0 / np.abs(np.sum(left.conj() * right, axis=0)))
    dev = linalg.norm(chamber_conjugator(chev, moved) - expected) / linalg.norm(expected)
    assert dev <= 1e-10 * kappa * np.linalg.cond(v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_XI_PLUS_B, unipotent=st.lists(st.floats(-1.0, 1.0), min_size=128, max_size=128))
def test_section_form_is_conjugation_equivariant(entries, log_scale, unipotent):
    # Ad_u(s) = x gives Ad_{vu}(s) = Ad_v(x), and the decomposition is
    # unique, so for v upper unitriangular Ad_v(x) keeps the section form
    # and its conjugator is v u.  Rounding enters through Ad_v and the
    # recurrence, so the bound scales with cond(v) and cond(u); over these
    # examples the worst deviation stays below 1e-12 of that product.
    chev, x = _xi_plus_b_from(entries, log_scale)
    n = chev.n
    x = x - (np.trace(x) / n) * np.eye(n)
    parts = np.array(unipotent).reshape(2, 8, 8)[:, :n, :n]
    v = np.eye(n) + np.triu(parts[0] + 1j * parts[1], 1)
    dec = decompose_to_section(chev, x)
    moved = decompose_to_section(chev, chev.xi + np.triu(v @ x @ linalg.inv(v)))
    bound = 1e-10 * np.linalg.cond(v) * np.linalg.cond(dec.u)
    assert linalg.norm(moved.s - dec.s) / (1.0 + linalg.norm(dec.s)) <= bound
    expected = v @ dec.u
    assert linalg.norm(moved.u - expected) / linalg.norm(expected) <= bound


@pytest.mark.parametrize("n", range(2, 9))
def test_decompose_to_section_rejects_a_wrong_section_point(monkeypatch, n):
    # A section point whose invariants are off by 1e-9 leaves the last
    # column of z u = u s unsolved; the guard must see it at every n.  On
    # section points z the residual is 1.5-3 times the guard's bound.
    monkeypatch.setattr(kostant_maps, "section_from_invariants",
                        lambda chev, f: section_from_invariants(chev, f + 1e-9))
    chev = build_chevalley(n)
    rng = stream(45, f"wrong-section-{n}")
    for _ in range(5):
        with pytest.raises(NoConvergence):
            decompose_to_section(chev, random_section_point(chev, rng))


@pytest.mark.parametrize("n", range(2, 9))
def test_unipotent_conjugator_recovers_section_conjugator(n):
    # Towards a section point y = s the strictly upper part of y enters the
    # recurrence; a recurrence that reads only the diagonal of y misses u.
    chev = build_chevalley(n)
    rng = stream(44, f"section-conjugator-{n}")
    for _ in range(25):
        u = _random_unitriangular(chev, rng)
        s = random_section_point(chev, rng)
        got = unipotent_conjugator(conjugate_section(chev, u, s), s)
        assert linalg.norm(got - u) <= 1e-10 * (1 + linalg.norm(u))


@pytest.mark.parametrize("n", range(2, 9))
def test_unipotent_conjugator_to_the_chamber_form_is_the_product_recurrence(n):
    # Towards a chamber form the strictly upper term is an exact zero, so
    # the conjugator equals u[:, j+1] = (x - lam_j) u[:, j] bit for bit.
    chev = build_chevalley(n)
    rng = stream(45, f"chamber-recurrence-{n}")
    for _ in range(10):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta = chamber_form(chev, x)
        ref = np.eye(n, dtype=complex)
        for j in range(n - 1):
            column = ref[:j + 1, j]
            ref[:j + 1, j + 1] = x[:j + 1, :j + 1] @ column - theta[j, j] * column
        assert np.array_equal(unipotent_conjugator(x, theta), ref)


def test_section_chamber_conjugator_n2_golden():
    chev = build_chevalley(2)
    assert np.allclose(chamber_to_section_conjugator(chev, FLIP2), GOLDEN_NU, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_section_chamber_conjugator_defining(n):
    chev = build_chevalley(n)
    rng = stream(37, f"delta-defining-{n}")
    for _ in range(30):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        conj = chamber_to_section_conjugator(chev, x)
        lhs = adjoint(conj, chamber_form(chev, x))
        assert linalg.norm(lhs - section_form(chev, x)) <= 1e-9 * (1 + linalg.norm(x))


def test_section_point_conjugators_trivialize():
    # For x already on the section and inside the domain, the section form
    # is x and the two conjugators are inverse to each other.
    chev = build_chevalley(2)
    x = FLIP2
    assert np.allclose(section_form(chev, x), x, atol=1e-12)
    delta = chamber_to_section_conjugator(chev, x)
    nu = chamber_conjugator(chev, x)
    assert np.allclose(delta, nu, atol=1e-12)


# ----------------------------- translated big cell ---------------------- #

def test_gstar_factor_of_the_lift_itself():
    chev = build_chevalley(3)
    factors = gstar_factor(chev, longest_weyl_lift(chev))
    assert np.allclose(factors.u_minus, np.eye(3), atol=1e-14)
    assert np.allclose(factors.torus, np.eye(3), atol=1e-14)
    assert np.allclose(factors.u, np.eye(3), atol=1e-14)


def test_gstar_factor_n2_golden():
    # Multiply-back oracle: w0^{-1} g = [[1,-1],[1,0]] factors with
    # u_minus = [[1,0],[1,1]], torus = identity, u = [[1,-1],[0,1]];
    # reassembling w0 u_minus torus u must reproduce g.
    chev = build_chevalley(2)
    g = np.array([[1.0, 0.0], [1.0, -1.0]])
    factors = gstar_factor(chev, g)
    assert np.allclose(factors.u_minus, np.array([[1.0, 0.0], [1.0, 1.0]]), atol=1e-12)
    assert np.allclose(factors.u, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-12)
    assert scalar_aligned_distance(factors.torus, np.eye(2)) <= 1e-12
    recon = longest_weyl_lift(chev) @ factors.u_minus @ factors.torus @ factors.u
    assert linalg.norm(recon - g) <= 1e-10 * linalg.norm(g)


def test_gstar_identity_not_member_n2():
    chev = build_chevalley(2)
    with pytest.raises(NotInGStar) as excinfo:
        gstar_factor(chev, np.eye(2))
    assert excinfo.value.minor_index == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gstar_refactor_recovers_factors(n):
    chev = build_chevalley(n)
    rng = stream(38, f"gstar-refactor-{n}")
    w0 = longest_weyl_lift(chev)
    for _ in range(25):
        u_minus = _random_unitriangular(chev, rng).T.copy()
        u = _random_unitriangular(chev, rng)
        t_diag = complex_uniform(rng, (n,))
        t_diag += np.sign(t_diag.real + 1e-12) * 0.5
        torus = np.diag(t_diag)
        g = w0 @ u_minus @ torus @ u
        factors = gstar_factor(chev, g)
        assert linalg.norm(factors.u_minus - u_minus) <= 1e-10 * (1 + linalg.norm(u_minus))
        assert linalg.norm(factors.u - u) <= 1e-10 * (1 + linalg.norm(u))
        assert scalar_aligned_distance(factors.torus, torus) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_gstar_factor_matches_the_solve_by_w0_up_to_signed_zeros(n):
    # w0 is its own inverse, so the factorization reads the row reversal of
    # g; a linear solve by w0 may differ from it only in the sign of exact
    # zeros, which array_equal does not see.  Negative zero parts make the
    # LAPACK solve flip signs of zeros on about a third of these inputs.
    chev = build_chevalley(n)
    rng = stream(44, f"gstar-zeros-{n}")
    w0 = longest_weyl_lift(chev)
    for _ in range(20):
        g = complex_uniform(rng, (n, n))
        g.real[rng.uniform(size=(n, n)) < 0.15] = -0.0
        g.imag[rng.uniform(size=(n, n)) < 0.15] = -0.0
        try:
            expected = linalg.gauss_ldu(linalg.solve(w0, g))
        except SingularMinor as exc:
            with pytest.raises(NotInGStar) as info:
                gstar_factor(chev, g)
            assert info.value.minor_index == exc.index
            continue
        factors = gstar_factor(chev, g)
        for got, want in zip((factors.u_minus, factors.torus, factors.u), expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_gstar_factor_is_torus_equivariant(n):
    # The cell is stable under the torus on both sides.  Rows and columns
    # scaled by powers of two over 2^-60..2^60 keep the verdict, members
    # and exact vanishing minors (1, then 2) alike, and move u by exactly
    # the column scaling: D2 u(D1 g D2) D2^-1 is u(g) bit for bit.
    chev = build_chevalley(n)
    rng = stream(45, f"gstar-torus-{n}")
    for k in range(12):
        g = complex_uniform(rng, (n, n))
        if k % 3 == 1:
            g[-1, 0] = 0.0  # the reversal's first pivot
        elif k % 3 == 2:
            g[-2, :2] = 0.5 * g[-1, :2]  # the reversal's second leading minor
        d1, d2 = 2.0 ** rng.integers(-60, 61, (2, n))
        verdict = _gstar_verdict(chev, g)
        assert _gstar_verdict(chev, d1[:, None] * g * d2) == verdict
        assert verdict == (None, 1, 2)[k % 3]
        if verdict is None:
            moved = gstar_factor(chev, d1[:, None] * g * d2).u
            assert np.array_equal(d2[:, None] * moved / d2, gstar_factor(chev, g).u)


def _gstar_verdict(chev, g):
    try:
        gstar_factor(chev, g)
    except NotInGStar as exc:
        return exc.minor_index
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(
           lambda n: st.lists(st.integers(-2, 2), min_size=2 * n * n, max_size=2 * n * n)),
       st.floats(-6.0, 6.0))
@example(entries=[0, 0, 1, 0, 1, 0, 1, 0, 0] + [0] * 9, log_scale=-6.0)  # g = w0
def test_gstar_verdict_is_scale_invariant(entries, log_scale):
    # g and c * g are the same element of PGL_n.  Small integer entries make
    # every pivot either exactly zero or far from the threshold, so the
    # verdict must not depend on c in [1e-6, 1e6].
    n = int(np.sqrt(len(entries) // 2))
    parts = np.array(entries, dtype=float).reshape(2, n, n)
    g = parts[0] + 1j * parts[1]
    if np.linalg.matrix_rank(g) < n:
        return  # not a group element
    chev = build_chevalley(n)
    assert _gstar_verdict(chev, 10.0 ** log_scale * g) == _gstar_verdict(chev, g)


def test_trivial_upper_factor_dresses_to_itself():
    # If the factorization has trivial upper factor, conjugation does
    # nothing; built directly from the factors since stabilizer membership
    # with a trivial upper factor has no invertible witness at rank 1.
    chev = build_chevalley(2)
    rng = stream(39, "trivial-upper")
    w0 = longest_weyl_lift(chev)
    u_minus = np.array([[1.0, 0.0], [0.7 - 0.1j, 1.0]])
    torus = np.diag([1.2, 0.8 + 0.4j])
    g = w0 @ u_minus @ torus
    factors = gstar_factor(chev, g)
    assert np.allclose(factors.u, np.eye(2), atol=1e-12)
    theta = GOLDEN_THETA
    assert np.allclose(adjoint(factors.u, theta), theta, atol=1e-12)


# ----------------------------- stabilizer lift and dressing ------------- #

def test_stabilizer_lift_golden():
    chev = build_chevalley(2)
    assert np.allclose(stabilizer_lift(chev, FLIP2), GOLDEN_LIFT, atol=1e-12)


def test_dress_n2_golden():
    chev = build_chevalley(2)
    out = dress(chev, GOLDEN_THETA, GOLDEN_LIFT)
    assert np.allclose(out, FLIP2, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stabilizer_lift_properties(n):
    chev = build_chevalley(n)
    rng = stream(40, f"lift-props-{n}")
    for _ in range(25):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta_x = chamber_form(chev, x)
        lift = stabilizer_lift(chev, x)
        assert linalg.norm(adjoint(lift, theta_x) - theta_x) \
            <= 1e-9 * (1 + linalg.norm(theta_x))
        assert linalg.norm(dress(chev, theta_x, lift) - x) \
            <= 1e-9 * (1 + linalg.norm(x))


@pytest.mark.parametrize("n", [2, 3])
def test_lift_of_dressed_point_matches_group_element(n):
    chev = build_chevalley(n)
    rng = stream(41, f"lift-dressed-{n}")
    done = 0
    while done < 25:
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta_x = chamber_form(chev, x)
        g = random_stabilizer_element(chev, rng, theta_x)
        try:
            y = dress(chev, theta_x, g)
            if np.min(np.abs(np.diagonal(y, 1))) < 1e-6:
                continue
            lift = stabilizer_lift(chev, y)
        except NotInGStar:
            continue
        done += 1
        assert scalar_aligned_distance(lift, g) <= 1e-8


_LIFT_CHECKS = ("kostant_stabilizer_lift", "kostant_lift_of_dressed_point",
                "kostant_open_stabilizer_conjugation")


@pytest.mark.parametrize("name, n, seed", [
    *(pytest.param(name, n, 42, id=f"{name}-{n}") for name in _LIFT_CHECKS for n in (7, 8)),
    # cond(lift) reaches 7.4e4 here, and the forward residual of the lift,
    # which charges the rounding of inv(lift), read 3.0e-9
    pytest.param("kostant_stabilizer_lift", 8, 3, id="kostant_stabilizer_lift-8-seed3"),
])
def test_lift_checks_pass_at_the_top_of_the_range(name, n, seed):
    # the lift holds its bounds at n = 7 and 8 only if the chamber
    # conjugators are forward accurate
    result = run_check(name, n, seed, 25)
    assert result.passed and result.error is None, result


def test_dress_conserves_invariants():
    chev = build_chevalley(3)
    rng = stream(42, "dress-conserves")
    done = 0
    while done < 20:
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta_x = chamber_form(chev, x)
        g = random_stabilizer_element(chev, rng, theta_x)
        try:
            y = dress(chev, theta_x, g)
        except NotInGStar:
            continue
        done += 1
        dev = np.linalg.norm(invariant_vector(chev, y) - invariant_vector(chev, theta_x))
        assert dev <= 1e-9 * (1 + np.linalg.norm(invariant_vector(chev, theta_x)))


def test_dress_rejects_noncentralizing():
    chev = build_chevalley(2)
    with pytest.raises(NotCentralizing):
        dress(chev, GOLDEN_THETA, np.array([[1.0, 2.0], [3.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 3])
def test_open_stabilizer_conjugation(n):
    # Conjugating the stabilizer of the chamber form by the section
    # conjugator lands in the stabilizer of the section form without
    # leaving the translated big cell, in both directions.
    chev = build_chevalley(n)
    rng = stream(43, f"open-stab-{n}")
    done = 0
    while done < 20:
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta_x = chamber_form(chev, x)
        beta_x = section_form(chev, x)
        conj = chamber_to_section_conjugator(chev, x)
        conj_inv = linalg.inv(conj)
        g = random_stabilizer_element(chev, rng, theta_x)
        h = random_stabilizer_element(chev, rng, beta_x)
        try:
            gstar_factor(chev, g)
            gstar_factor(chev, h)
            moved_g = conj @ g @ conj_inv
            moved_h = conj_inv @ h @ conj
            gstar_factor(chev, moved_g)
            gstar_factor(chev, moved_h)
        except NotInGStar:
            continue
        done += 1
        assert linalg.norm(adjoint(moved_g, beta_x) - beta_x) \
            <= 1e-9 * (1 + linalg.norm(beta_x))
        assert linalg.norm(adjoint(moved_h, theta_x) - theta_x) \
            <= 1e-9 * (1 + linalg.norm(theta_x))
