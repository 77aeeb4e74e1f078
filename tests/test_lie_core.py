import itertools

import numpy as np
import pytest

from centralizer_lab import linalg
from centralizer_lab.errors import DimensionMismatch, UnsupportedRank
from centralizer_lab.invariants import invariant_gradient
from centralizer_lab.lie_core import (
    adjoint,
    bracket,
    build_chevalley,
    centralizer_basis,
    centralizer_dimension,
    group_equal,
    pairing,
    scalar_aligned_distance,
    stabilizer_residual,
    traceless_part,
)
from centralizer_lab.sampling import (
    complex_uniform,
    random_group_element,
    random_section_point,
    random_traceless,
    stream,
)

ALL_N = list(range(2, 9))


def test_build_rejects_out_of_range():
    for n in (0, 1, 9, 12):
        with pytest.raises(UnsupportedRank):
            build_chevalley(n)


def test_n2_golden_structure():
    # Oracle: on 2x2 matrices, solving [xi, eta] = h with xi the unit
    # subdiagonal and eta = c * E_12 gives c = 1 and h = diag(-1, 1).
    chev = build_chevalley(2)
    assert np.array_equal(chev.xi, np.array([[0, 0], [1, 0]]))
    assert np.array_equal(chev.eta, np.array([[0, 1], [0, 0]]))
    assert np.array_equal(chev.h, np.diag([-1, 1]))
    assert chev.c == (1,)


def test_n3_coefficients():
    chev = build_chevalley(3)
    assert chev.c == (2, 2)
    assert np.array_equal(np.diag(chev.h), np.array([-2, 0, 2]))


@pytest.mark.parametrize("n", ALL_N)
def test_coefficient_recurrence_oracle(n):
    # Independent derivation: [xi, eta] = sum_i c_i (E_{i+1,i+1} - E_{i,i}),
    # so matching diag(2k - n - 1) forces c_k - c_{k-1} = -(2k - n - 1) with
    # c_0 = c_n = 0; the closed form is c_k = k (n - k).
    c = [0]
    for k in range(1, n + 1):
        c.append(c[-1] - (2 * k - n - 1))
    assert c[n] == 0
    chev = build_chevalley(n)
    assert chev.c == tuple(c[1:n])
    assert chev.c == tuple(k * (n - k) for k in range(1, n))


@pytest.mark.parametrize("n", ALL_N)
def test_sl2_relations_exact(n):
    chev = build_chevalley(n)
    # Integer structure constants: the identities hold exactly in floats.
    assert linalg.norm(bracket(chev.h, chev.xi) - 2 * chev.xi) == 0.0
    assert linalg.norm(bracket(chev.h, chev.eta) + 2 * chev.eta) == 0.0
    assert linalg.norm(bracket(chev.xi, chev.eta) - chev.h) == 0.0


@pytest.mark.parametrize("n", ALL_N)
def test_simple_roots_on_h_and_pairing_normalization(n):
    chev = build_chevalley(n)
    for i in range(chev.r):
        assert chev.h[i, i] - chev.h[i + 1, i + 1] == -2
        assert pairing(chev.e_plus[i], chev.e_minus[i]) == 1


@pytest.mark.parametrize("n", ALL_N)
def test_eta_is_regular(n):
    chev = build_chevalley(n)
    kernel = centralizer_basis(chev, chev.eta)
    assert len(kernel) == chev.r
    # the centralizer basis stored on the structure data really centralizes
    for b in chev.centralizer_eta:
        assert linalg.norm(bracket(chev.eta, b)) == 0.0


@pytest.mark.parametrize("n", ALL_N)
def test_centralizer_eta_equals_the_product_loop(n):
    chev = build_chevalley(n)
    p = np.eye(n, dtype=complex)
    for k in range(chev.r):
        p = p @ chev.eta
        assert chev.centralizer_eta[k].tobytes() == p.tobytes()
    assert not any(b.flags.writeable for b in chev.centralizer_eta)


@pytest.mark.parametrize("n", ALL_N)
def test_section_point_equals_the_sum_loop(n):
    # the powers of eta lie on disjoint superdiagonals, so one product sums
    # them exactly
    chev = build_chevalley(n)
    rng = stream(n, "section-point")
    coords = complex_uniform(rng, (6, chev.r)) * 10.0 ** rng.integers(-150, 150, (6, 1))
    x = chev.xi
    for k in range(chev.r):
        x = x + coords[:, k, None, None] * chev.centralizer_eta[k]
    assert chev.section_point(coords).tobytes() == x.tobytes()
    assert chev.section_point(coords[0]).tobytes() == x[0].tobytes()


def test_pairing_examples():
    chev = build_chevalley(2)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = e12.T
    assert pairing(e12, e21) == 1
    assert pairing(chev.h, chev.h) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatch):
        pairing(np.eye(2), np.eye(3))


@pytest.mark.parametrize("n", ALL_N)
def test_pairing_of_broadcast_stacks_equals_per_pair_calls(n):
    rng = stream(6, f"pairing-stacks-{n}")
    x, y = complex_uniform(rng, (3, 1, n, n)), complex_uniform(rng, (1, 4, n, n))
    gram = pairing(x, y)
    assert gram.shape == (3, 4)
    for a, b in itertools.product(range(3), range(4)):
        assert gram[a, b].tobytes() == pairing(x[a, 0], y[0, b]).tobytes()
    with pytest.raises(DimensionMismatch):
        pairing(x, np.eye(n + 1))
    bad = x.copy()
    bad[2, 0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        pairing(bad, y)


def test_pairing_ad_invariance_seeded():
    chev = build_chevalley(3)
    rng = stream(5, "pairing-invariance")
    for _ in range(50):
        x = random_traceless(chev, rng)
        y = random_traceless(chev, rng)
        g = random_group_element(chev, rng)
        base = pairing(x, y)
        moved = pairing(adjoint(g, x), adjoint(g, y))
        assert abs(moved - base) <= 1e-10 * (1.0 + abs(base))


def test_ad_h_on_simple_root_vector():
    # [h, e_plus] = -2 e_plus: every simple root takes the value -2 on h
    # (consistent with [h, eta] = -2 eta above).
    chev = build_chevalley(2)
    assert linalg.norm(bracket(chev.h, chev.e_plus[0]) + 2 * chev.e_plus[0]) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ad_xi_rank(n):
    chev = build_chevalley(n)
    assert len(centralizer_basis(chev, chev.xi)) == n - 1


def test_centralizer_of_eta_n2():
    # Hand solve: [E_12, y] = 0 on sl_2 forces y proportional to E_12.
    chev = build_chevalley(2)
    basis = centralizer_basis(chev, chev.eta)
    assert len(basis) == 1
    overlap = abs(np.vdot(basis[0], chev.eta)) / (linalg.norm(basis[0]) * linalg.norm(chev.eta))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_centralizer_of_regular_diagonal():
    chev = build_chevalley(2)
    x = np.diag([1.0, -1.0])
    basis = centralizer_basis(chev, x)
    assert len(basis) == 1
    overlap = abs(np.vdot(basis[0], x)) / (linalg.norm(basis[0]) * linalg.norm(x))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_centralizer_of_zero():
    for n in ALL_N:
        basis = centralizer_basis(build_chevalley(n), np.zeros((n, n)))
        assert len(basis) == n * n - 1
        assert all(abs(np.trace(y)) <= 1e-12 for y in basis)


def _regular_traceless(chev, rng):
    while True:
        x = random_traceless(chev, rng)
        values, _ = linalg.eig(x)
        if min(abs(a - b) for a, b in itertools.combinations(values, 2)) > 1e-2:
            return x


@pytest.mark.parametrize("n", ALL_N)
def test_centralizer_basis_of_regular_points_at_every_scale(n):
    # The trace row is scaled by ||x||, so rescaling x by 1e-8 or 1e8 keeps
    # the rank decision: a regular point's centralizer has dimension r.
    chev = build_chevalley(n)
    rng = stream(13, f"centralizer-scale-{n}")
    points = [chev.xi, chev.h, _regular_traceless(chev, rng), random_section_point(chev, rng)]
    for x in points:
        for c in (1e-8, 1.0, 1e8):
            y = c * x
            basis = centralizer_basis(chev, y)
            assert len(basis) == chev.r
            for b in basis:
                assert abs(np.trace(b)) <= 1e-10
                assert linalg.norm(bracket(y, b)) <= 1e-10 * linalg.norm(y)
    # the stacked count makes the same decisions, the zero matrix and eta included
    stack = np.array([c * x for x in points for c in (1e-8, 1.0, 1e8)] + [np.zeros((n, n)), chev.eta])
    assert centralizer_dimension(chev, stack).tolist() == [len(centralizer_basis(chev, y))
                                                           for y in stack]


def test_centralizer_dimension_seeded():
    chev = build_chevalley(3)
    rng = stream(11, "centralizer-dim")
    count = 0
    while count < 100:
        x = random_traceless(chev, rng)
        values, _ = linalg.eig(x)
        gaps = [abs(a - b) for a, b in itertools.combinations(values, 2)]
        if min(gaps) < 1e-2:
            continue
        count += 1
        assert len(centralizer_basis(chev, x)) == chev.r
    for _ in range(20):
        s = chev.section_point(np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                                         for _ in range(chev.r)]))
        assert len(centralizer_basis(chev, s)) == chev.r


def test_group_equality_mod_scalar():
    chev = build_chevalley(3)
    rng = stream(23, "group-equality")
    for _ in range(20):
        g = random_group_element(chev, rng)
        h = random_group_element(chev, rng)
        lam = 0.7 - 1.3j
        # reflexivity / symmetry on scalar multiples, and a genuine inequality
        assert group_equal(g, g)
        assert group_equal(g, lam * g) and group_equal(lam * g, g)
        assert group_equal(0.5 * lam * g, lam * g)  # transitivity witness
        if scalar_aligned_distance(g, h) > 1e-3:
            assert not group_equal(g, h)
        # a stack gets one verdict per pair, each the per-point one
        pairs = [(g, lam * g), (lam * g, g), (g, h)]
        assert group_equal(*map(np.array, zip(*pairs))).tolist() == [group_equal(a, b)
                                                                     for a, b in pairs]
        # the adjoint action cannot see the scalar at all
        x = random_traceless(chev, rng)
        assert linalg.norm(adjoint(lam * g, x) - adjoint(g, x)) <= 1e-12 * linalg.norm(x)


def test_stabilizer_residual_does_not_charge_the_inverse():
    # g = exp(10 grad f_1(x)) stabilizes x exactly; it has cond ~ 8.5e8, and
    # the forward residual ||g x g^-1 - x|| / ||x|| reads the rounding of g^-1
    chev = build_chevalley(8)
    x = random_section_point(chev, stream(1, "residual"))
    g = linalg.mat_exp(10 * invariant_gradient(chev, x, 1))
    assert np.linalg.cond(g) > 1e8
    assert linalg.norm(adjoint(g, x) - x) / linalg.norm(x) > 1e-8
    residual = stabilizer_residual(g, x)
    assert residual <= 1e-14
    assert abs(stabilizer_residual(1e-6j * g, x) - residual) <= 1e-15
    assert stabilizer_residual(np.eye(8), x) == 0.0


def test_traceless_part():
    m = np.array([[2.0, 1.0], [0.0, 4.0]])
    out = traceless_part(m)
    assert abs(np.trace(out)) < 1e-15
    assert out == pytest.approx(m - 3.0 * np.eye(2))


def test_section_coords_roundtrip():
    chev = build_chevalley(4)
    rng = stream(9, "section-coords")
    coords = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(3)])
    x = chev.section_point(coords)
    recovered, residual = chev.section_coords(x)
    assert residual < 1e-12
    assert np.allclose(recovered, coords, atol=1e-12)
    assert residual <= 1e-10 * (1.0 + linalg.norm(x))
    off = x + 0.1 * chev.e_minus[1] @ chev.e_minus[0]
    assert not chev.section_coords(off)[1] <= 1e-10 * (1.0 + linalg.norm(off))
