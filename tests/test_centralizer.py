import numpy as np
import pytest

from centralizer_lab import centralizer, invariants, linalg
from centralizer_lab.centralizer import (
    CJLPoint,
    Tangent,
    ZPoint,
    chart_directions,
    check_z_point,
    cjl_chart,
    cjl_pullback_deviation,
    coordinate_fields,
    flow_step,
    hamiltonian_field,
    moment_preimage_report,
    symplectic_form,
    z_invariants,
)
from centralizer_lab.errors import InvalidZPoint
from centralizer_lab.invariants import (
    invariant_gradient,
    invariant_gradients,
    invariant_vector,
    section_from_invariants,
)
from centralizer_lab.lie_core import adjoint, build_chevalley, pairing, scalar_aligned_distance
from centralizer_lab.sampling import (
    complex_uniform,
    random_cjl_point,
    random_group_element,
    random_section_point,
    random_stabilizer_element,
    random_traceless,
    stream,
)
from centralizer_lab.suites import run_check

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _tangent(chev, y=None, z=None):
    zero = np.zeros((chev.n, chev.n), dtype=complex)
    return Tangent(y=zero if y is None else y, z=zero if z is None else z)


def _random_cjl(chev, rng, lam_scale=0.4):
    s = random_section_point(chev, rng, scale=0.8)
    lam = np.array([complex_uniform(rng, ()) * (lam_scale / max(1.0, linalg.norm(g)))
                    for g in invariant_gradients(chev, s)])
    return CJLPoint(lam=lam, s=s)


# ----------------------------- symplectic form --------------------------- #

def test_symplectic_antisymmetry():
    chev = build_chevalley(3)
    rng = stream(50, "omega-antisym")
    x = random_traceless(chev, rng)
    v = Tangent(y=random_traceless(chev, rng), z=random_traceless(chev, rng))
    assert symplectic_form(x, [v], [v])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_symplectic_two_term_case():
    # With base x = 0 and one direction purely vertical, only <y1, z2>
    # survives.
    chev = build_chevalley(3)
    rng = stream(51, "omega-two-term")
    y1 = random_traceless(chev, rng)
    z2 = random_traceless(chev, rng)
    val = symplectic_form(np.zeros((3, 3)), [_tangent(chev, y=y1)],
                          [_tangent(chev, z=z2)])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(pairing(y1, z2))


def test_symplectic_term_by_term_oracle_n2():
    # Fixed inputs; the oracle expands the three pairings independently.
    x = np.array([[0.5, 1.0], [2.0, -0.5]])
    y1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    z1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    y2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    z2 = np.array([[2.0, 0.0], [3.0, -2.0]])
    term1 = np.trace(y1 @ z2)
    term2 = np.trace(y2 @ z1)
    term3 = np.trace(x @ (y1 @ y2 - y2 @ y1))
    val = symplectic_form(x, [Tangent(y1, z1)], [Tangent(y2, z2)])
    assert val[0, 0] == pytest.approx(term1 - term2 + term3)


def _omega_term_by_term(x, v1, v2):
    return (np.trace(v1.y @ v2.z) - np.trace(v2.y @ v1.z)
            + np.trace(x @ (v1.y @ v2.y - v2.y @ v1.y)))


@pytest.mark.parametrize("n", range(2, 9))
def test_symplectic_form_matches_pairwise_definition(n):
    # The Gram matrix of lists of different lengths, entry by entry against
    # the three pairings, and antisymmetric under swapping the lists.
    chev = build_chevalley(n)
    rng = stream(74, f"omega-gram-{n}")
    x = random_traceless(chev, rng)

    def tangents(count):
        return [Tangent(y=random_traceless(chev, rng), z=random_traceless(chev, rng))
                for _ in range(count)]

    left, right = tangents(n + 1), tangents(n - 1)
    gram = symplectic_form(x, left, right)
    assert gram.shape == (n + 1, n - 1)
    scale = 1.0 + np.max(np.abs(gram))
    for a, va in enumerate(left):
        for b, vb in enumerate(right):
            assert abs(gram[a, b] - _omega_term_by_term(x, va, vb)) <= 1e-13 * scale
    assert np.max(np.abs(gram + symplectic_form(x, right, left).T)) <= 1e-13 * scale


# ----------------------------- moment maps ------------------------------- #

def test_moment_maps():
    # The moment values of (g, x) are Ad_g(x) and -x; on the centralizer
    # both land in (a sign flip of) the section, off it the left one does not.
    chev = build_chevalley(3)
    rng = stream(52, "moments")
    s = random_section_point(chev, rng)
    g = random_stabilizer_element(chev, rng, s)
    assert linalg.norm(adjoint(g, s) - s) <= 1e-9 * linalg.norm(s)
    report = moment_preimage_report(chev, [(np.eye(3), s), (g, s),
                                           (random_group_element(chev, rng), s)])
    assert (report.centralizer_members, report.preimage_members) == (2, 2)
    assert report.mismatches == 0


def test_check_z_point_examples():
    chev = build_chevalley(3)
    p = ZPoint(g=np.eye(3), x=chev.xi)
    assert check_z_point(chev, p) is p
    rng = stream(53, "zpoint")
    s = random_section_point(chev, rng)
    g = linalg.mat_exp(invariant_gradient(chev, s, 1))
    check_z_point(chev, ZPoint(g=g, x=s))
    with pytest.raises(InvalidZPoint, match="moves x"):
        check_z_point(chev, ZPoint(g=random_group_element(chev, rng), x=s))
    with pytest.raises(InvalidZPoint, match="misses the section"):
        check_z_point(chev, ZPoint(g=g, x=s + 0.5 * chev.e_minus[1] @ chev.e_minus[0]))


def test_check_z_point_raises():
    chev = build_chevalley(2)
    with pytest.raises(InvalidZPoint):
        check_z_point(chev, ZPoint(g=np.array([[1.0, 1.0], [0.0, 1.0]]), x=FLIP2))
    with pytest.raises(InvalidZPoint):
        check_z_point(chev, ZPoint(g=np.eye(2), x=np.array([[1.0, 0.0], [0.0, -1.0]])))


def test_moment_preimage_report():
    chev = build_chevalley(3)
    rng = stream(54, "preimage")
    points = []
    for _ in range(50):
        s = random_section_point(chev, rng)
        points.append((random_stabilizer_element(chev, rng, s), s))
        points.append((random_group_element(chev, rng), s))
    report = moment_preimage_report(chev, points)
    assert report.total == 100
    assert report.mismatches == 0
    assert report.centralizer_members == report.preimage_members
    assert report.centralizer_members >= 50  # every stabilizer pair qualifies
    assert report.max_member_residual <= 1e-9
    assert report.passed


# ----------------------------- invariant system -------------------------- #

def test_z_invariants_basics():
    chev = build_chevalley(3)
    base = z_invariants(chev, ZPoint(g=np.eye(3), x=chev.xi))
    assert np.max(np.abs(base)) == 0.0
    rng = stream(55, "ftilde")
    s = random_section_point(chev, rng)
    p1 = ZPoint(g=random_stabilizer_element(chev, rng, s), x=s)
    p2 = ZPoint(g=random_stabilizer_element(chev, rng, s), x=s)
    assert np.array_equal(z_invariants(chev, p1), z_invariants(chev, p2))


def test_z_invariants_separate_levels():
    # Section injectivity oracle: distinct invariant vectors come from
    # distinct section points, so the level sets are the fibers over x.
    chev = build_chevalley(3)
    rng = stream(56, "levels")
    from centralizer_lab.invariants import section_from_invariants

    z1 = complex_uniform(rng, (2,))
    z2 = z1 + 0.3
    x1 = section_from_invariants(chev, z1)
    x2 = section_from_invariants(chev, z2)
    p1 = ZPoint(g=np.eye(3), x=x1)
    p2 = ZPoint(g=np.eye(3), x=x2)
    assert np.linalg.norm(z_invariants(chev, p1) - z_invariants(chev, p2)) > 1e-6


def test_z_invariants_rejects_invalid():
    chev = build_chevalley(2)
    with pytest.raises(InvalidZPoint):
        z_invariants(chev, ZPoint(g=np.array([[1.0, 1.0], [0.0, 1.0]]), x=FLIP2))


# ----------------------------- Hamiltonian fields ------------------------ #

def test_hamiltonian_field_degree_one():
    chev = build_chevalley(3)
    rng = stream(57, "hamfield")
    x = random_section_point(chev, rng)
    field = hamiltonian_field(chev, ZPoint(g=np.eye(3), x=x), 1)
    assert np.allclose(field.y, x)
    assert linalg.norm(field.z) == 0.0


def test_hamiltonian_pairwise_isotropy():
    chev = build_chevalley(4)
    rng = stream(58, "isotropy")
    for _ in range(10):
        x = random_section_point(chev, rng)
        p = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
        fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
        assert np.max(np.abs(symplectic_form(p.x, fields, fields))) <= 1e-10


def test_hamiltonian_duality_against_fd_pushforwards():
    # omega(H_i, v) must equal the derivative of the i-th invariant along v,
    # which for left-trivialized v = (y, z) is pairing(gradient_i, z).
    chev = build_chevalley(3)
    rng = stream(59, "duality")
    for _ in range(5):
        c = _random_cjl(chev, rng)
        p = cjl_chart(chev, c)
        dirs = chart_directions(chev, c)
        fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
        gram = symplectic_form(p.x, fields, dirs)
        for i in range(1, chev.r + 1):
            grad = invariant_gradient(chev, p.x, i)
            for b, v in enumerate(dirs):
                assert abs(gram[i - 1, b] - pairing(grad, v.z)) <= 1e-6


# ----------------------------- flows ------------------------------------- #

def test_flow_step_time_zero():
    chev = build_chevalley(3)
    rng = stream(60, "flow-zero")
    x = random_section_point(chev, rng)
    p = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
    moved = flow_step(chev, 0.0, p, 1)
    assert np.allclose(moved.g, p.g, atol=1e-14)
    assert moved.x is p.x


def test_flow_step_golden_hyperbolic():
    # grad_1 of the flip is the flip itself, which squares to the identity,
    # so the flow from the identity is cosh/sinh (independent oracle).
    chev = build_chevalley(2)
    p = ZPoint(g=np.eye(2), x=FLIP2)
    for t in (0.3, 1.0, -0.7):
        moved = flow_step(chev, t, p, 1)
        expected = np.cosh(t) * np.eye(2) + np.sinh(t) * FLIP2
        assert linalg.norm(moved.g - expected) <= 1e-12 * np.cosh(t)
        check_z_point(chev, moved)


def test_flow_step_group_law():
    chev = build_chevalley(4)
    rng = stream(61, "flow-law")
    for _ in range(10):
        x = random_section_point(chev, rng)
        p = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
        i = int(rng.integers(1, chev.r + 1))
        t = complex_uniform(rng, (), scale=0.7)
        s = complex_uniform(rng, (), scale=0.7)
        lhs = flow_step(chev, t, flow_step(chev, s, p, i), i)
        rhs = flow_step(chev, t + s, p, i)
        assert linalg.norm(lhs.g - rhs.g) <= 1e-10 * (1 + linalg.norm(rhs.g))


def test_flow_step_outputs_valid_points():
    chev = build_chevalley(3)
    rng = stream(62, "flow-valid")
    for _ in range(20):
        x = random_section_point(chev, rng)
        p = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
        i = int(rng.integers(1, chev.r + 1))
        moved = flow_step(chev, complex_uniform(rng, ()), p, i)
        check_z_point(chev, moved)


@pytest.mark.parametrize("n, seed", [(7, 3), (8, 42), (8, 1), (8, 2), (8, 3)])
def test_flow_preserves_points_at_the_top_of_the_range(n, seed):
    # cond(g) of the flowed group part reaches 1e11 (n=8, seed 42) and
    # 8.6e15 (n=8, seed 2), so the stabilizer residual must not pass
    # through g^{-1}
    result = run_check("cent_flow_preserves_points", n, seed, 25)
    assert result.passed and result.error is None, result


# ----------------------------- the chart --------------------------------- #

def test_cjl_chart_at_zero():
    chev = build_chevalley(3)
    rng = stream(63, "chart-zero")
    s = random_section_point(chev, rng)
    p = cjl_chart(chev, CJLPoint(lam=np.zeros(2), s=s))
    assert np.array_equal(p.g, np.eye(3))
    assert np.array_equal(p.x, s)


def test_cjl_chart_rank_one_is_flow():
    chev = build_chevalley(2)
    rng = stream(64, "chart-rank1")
    s = random_section_point(chev, rng)
    lam = complex_uniform(rng, (1,))
    via_chart = cjl_chart(chev, CJLPoint(lam=lam, s=s))
    via_flow = flow_step(chev, lam[0], ZPoint(g=np.eye(2), x=s), 1)
    assert linalg.norm(via_chart.g - via_flow.g) <= 1e-12 * (1 + linalg.norm(via_flow.g))


def test_cjl_chart_factor_order_commutes():
    chev = build_chevalley(4)
    rng = stream(65, "chart-order")
    for _ in range(5):
        c = _random_cjl(chev, rng)
        base = cjl_chart(chev, c)
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            p = ZPoint(g=np.eye(4, dtype=complex), x=np.asarray(c.s))
            for idx in order:
                p = flow_step(chev, c.lam[idx], p, idx + 1)
            assert linalg.norm(p.g - base.g) <= 1e-10 * (1 + linalg.norm(base.g))


def test_coordinate_fields_dual_to_invariants():
    chev = build_chevalley(4)
    rng = stream(66, "coord-fields")
    s = random_section_point(chev, rng)
    fields = coordinate_fields(chev, s)
    for i in range(1, chev.r + 1):
        grad = invariant_gradient(chev, s, i)
        for j, df in enumerate(fields, start=1):
            expected = 1.0 if i == j else 0.0
            assert pairing(grad, df) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("n,tol", [(2, 1e-5), (3, 1e-5)])
def test_cjl_pullback_blocks(n, tol):
    chev = build_chevalley(n)
    rng = stream(67, f"pullback-{n}")
    for _ in range(5):
        res = cjl_pullback_deviation(chev, _random_cjl(chev, rng))
        assert res.flow_flow <= 1e-6
        assert res.flow_section <= tol
        assert res.section_section <= tol
        assert res.max_deviation == max(res.flow_flow, res.flow_section,
                                        res.section_section)


def test_cjl_surjectivity_sample():
    # Recover chart coordinates of a stabilizer element by expanding its
    # logarithm in the gradient basis, then rebuild it through the chart.
    chev = build_chevalley(3)
    rng = stream(69, "surjectivity")
    for _ in range(10):
        x = random_section_point(chev, rng)
        grads = invariant_gradients(chev, x)
        coeffs = np.array([complex_uniform(rng, ()) * (0.5 / max(1.0, linalg.norm(g)))
                           for g in grads])
        y = sum(c * g for c, g in zip(coeffs, grads))
        g = linalg.mat_exp(y)
        basis = np.stack([gi.ravel() for gi in grads], axis=1)
        lam, *_ = np.linalg.lstsq(basis, y.ravel(), rcond=None)
        rebuilt = cjl_chart(chev, CJLPoint(lam=lam, s=x))
        assert scalar_aligned_distance(rebuilt.g, g) <= 1e-8


def test_cjl_chart_differential_full_rank():
    chev = build_chevalley(3)
    rng = stream(70, "chart-rank")
    for _ in range(5):
        dirs = chart_directions(chev, _random_cjl(chev, rng))
        cols = [np.concatenate([v.y.ravel(), v.z.ravel()]) for v in dirs]
        sigma = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
        assert sigma[-1] > 1e-6 * sigma[0]


def _section_inverse_pushforward(chev, c, j, step=1e-6):
    """Reference for the j-th section direction (0-based): the chart along
    the coordinate line F^-1(F(s) +/- step e_j), through the section
    inverse."""
    base = cjl_chart(chev, c)
    bump = np.zeros(chev.r, dtype=complex)
    bump[j] = step
    z0 = invariant_vector(chev, c.s)
    x_p = section_from_invariants(chev, z0 + bump)
    x_m = section_from_invariants(chev, z0 - bump)
    g_p = cjl_chart(chev, CJLPoint(c.lam, x_p)).g
    g_m = cjl_chart(chev, CJLPoint(c.lam, x_m)).g
    return Tangent(y=linalg.solve(base.g, (g_p - g_m) / (2.0 * step)),
                   z=(x_p - x_m) / (2.0 * step))


@pytest.mark.parametrize("n", range(2, 9))
def test_section_directions_match_section_inverse_route(n):
    # dF(df_j) = e_j, so moving along the coordinate field and moving along
    # the coordinate line through the section inverse give the same tangent.
    chev = build_chevalley(n)
    rng = stream(71, f"chart-dirs-{n}")
    for _ in range(3):
        c = random_cjl_point(chev, rng)
        dirs = chart_directions(chev, c)
        assert len(dirs) == 2 * chev.r
        for j, (v, field) in enumerate(zip(dirs[chev.r:], coordinate_fields(chev, c.s))):
            ref = _section_inverse_pushforward(chev, c, j)
            assert linalg.norm(v.y - ref.y) <= 1e-6
            assert linalg.norm(v.z - ref.z) <= 1e-6
            # the exact derivative against a central difference of the chart
            ref = _section_field_difference(chev, c, field)
            assert linalg.norm(v.y - ref.y) <= 1e-8 * linalg.norm(ref.y)


def _flow_time_difference(chev, c, i, step=1e-6):
    """Reference for the i-th flow-time direction (0-based): the central
    difference of the chart in lam_i."""
    base = cjl_chart(chev, c)
    bump = np.zeros(chev.r, dtype=complex)
    bump[i] = step
    g_p = cjl_chart(chev, CJLPoint(c.lam + bump, c.s)).g
    g_m = cjl_chart(chev, CJLPoint(c.lam - bump, c.s)).g
    return Tangent(y=linalg.solve(base.g, (g_p - g_m) / (2.0 * step)),
                   z=np.zeros((chev.n, chev.n), dtype=complex))


def _section_field_difference(chev, c, field, step=1e-6):
    """Reference for the section direction along a coordinate field: the
    central difference of the chart along s +/- step * field, which stays
    on the affine section."""
    base = cjl_chart(chev, c)
    g_p = cjl_chart(chev, CJLPoint(c.lam, c.s + step * field)).g
    g_m = cjl_chart(chev, CJLPoint(c.lam, c.s - step * field)).g
    return Tangent(y=linalg.solve(base.g, (g_p - g_m) / (2.0 * step)), z=field)


@pytest.mark.parametrize("n", range(2, 9))
def test_flow_directions_match_chart_differences(n):
    # the chart's exponents commute, so its lam_i derivative, left-
    # trivialized, is the exact Hamiltonian field (gradient_i(s), 0)
    chev = build_chevalley(n)
    rng = stream(75, f"flow-dirs-{n}")
    for _ in range(3):
        c = random_cjl_point(chev, rng)
        dirs = chart_directions(chev, c)
        for i, v in enumerate(dirs[:chev.r]):
            ref = _flow_time_difference(chev, c, i)
            assert linalg.norm(v.y - ref.y) <= 1e-6
            assert linalg.norm(v.z - ref.z) <= 1e-6


@pytest.mark.parametrize("n", [2, 5])
def test_chart_directions_evaluate_the_base_chart_once(monkeypatch, n):
    # one block exponential and no chart evaluation per chart_directions,
    # and one Gram matrix per pullback; the section inverse and the
    # invariant vector are not on the chart path
    def forbidden(*args, **kwargs):
        raise AssertionError("the chart path left the affine section")

    monkeypatch.setattr(invariants, "section_from_invariants", forbidden)
    monkeypatch.setattr(invariants, "invariant_vector", forbidden)
    monkeypatch.setattr(centralizer, "invariant_vector", forbidden)
    monkeypatch.setattr(centralizer, "cjl_chart", forbidden)
    exps = []
    exp = linalg.mat_exp
    monkeypatch.setattr(linalg, "mat_exp", lambda *args: exps.append(1) or exp(*args))
    grams = []
    form = centralizer.symplectic_form
    monkeypatch.setattr(centralizer, "symplectic_form",
                        lambda *args: grams.append(1) or form(*args))
    chev = build_chevalley(n)
    c = random_cjl_point(chev, stream(72, f"chart-count-{n}"))
    chart_directions(chev, c)
    assert len(exps) == 1
    exps.clear()
    cjl_pullback_deviation(chev, c)
    assert len(exps) == 1
    assert len(grams) == 1
