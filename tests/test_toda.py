import numpy as np
import pytest
from scipy.integrate import solve_ivp

from centralizer_lab import invariants, kostant_maps, linalg, toda
from centralizer_lab.centralizer import flow_step, is_z_point, stabilizer_residual, z_invariants
from centralizer_lab.errors import NoConvergence, NotInGStar, NotInV, NotInW
from centralizer_lab.invariants import in_chamber_image, invariant_vector
from centralizer_lab.kostant_maps import (
    chamber_form,
    chamber_to_section_conjugator,
    section_form,
    stabilizer_lift,
)
from centralizer_lab.lie_core import build_chevalley, group_equal, scalar_aligned_distance
from centralizer_lab.sampling import (
    domain_fraction,
    random_toda_point,
    sample_flow_domain,
    stream,
)
from centralizer_lab.toda import (
    ZPoint,
    embed,
    embed_inverse,
    in_flow_domain,
    intertwine_check,
    intertwine_infinitesimal,
    make_toda_point,
    rk4_toda,
    toda_flow,
    toda_matrix,
    toda_point_from_matrix,
    toda_vector_field,
)

FLIP2 = np.array([[0.0, 1.0], [1.0, 0.0]])
GOLDEN = None  # filled by fixture below


@pytest.fixture(scope="module")
def chev2():
    return build_chevalley(2)


@pytest.fixture(scope="module")
def golden():
    return make_toda_point([0.0, 0.0], [1.0])


# ----------------------------- phase-space points ------------------------ #

def test_make_toda_point_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        make_toda_point([0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        make_toda_point([1.0, 0.0], [1.0])  # trace 1
    with pytest.raises(ValueError):
        make_toda_point([1.0, -1.0], [1.0, 2.0])  # wrong coordinate count


def test_matrix_roundtrip(chev2, golden):
    m = toda_matrix(chev2, golden)
    assert np.array_equal(m, FLIP2)
    back = toda_point_from_matrix(chev2, m)
    assert np.array_equal(back.diag, golden.diag)
    assert np.array_equal(back.root_coords, golden.root_coords)


def test_from_matrix_rejects_off_shape(chev2):
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])  # subdiagonal must be 1
    with pytest.raises(ValueError):
        toda_point_from_matrix(chev2, bad)


def test_in_flow_domain_examples(chev2):
    # spectra: +-1 (in), +-i (out), double zero (out)
    assert in_flow_domain(chev2, make_toda_point([0.0, 0.0], [1.0]))
    assert not in_flow_domain(chev2, make_toda_point([0.0, 0.0], [-1.0]))
    assert not in_flow_domain(chev2, make_toda_point([1.0, -1.0], [-1.0]))


# ----------------------------- the flow ---------------------------------- #

def test_flow_golden_closed_form(chev2, golden):
    # Independent oracle: with chamber form diag(1,-1)+xi the 2x2 Gauss
    # factorization of lift*exp(t grad) was solved symbolically; the flow is
    # a(t) = tanh(t), y(t) = sech(t)^2.
    for t in (0.25, 1.0, 2.0):
        pt = toda_flow(chev2, 1, t, golden)
        assert abs(pt.diag[0] - np.tanh(t)) <= 1e-10
        assert abs(pt.diag[1] + np.tanh(t)) <= 1e-10
        assert abs(pt.root_coords[0] - np.cosh(t) ** -2) <= 1e-10


def test_flow_time_zero_is_identity(chev2, golden):
    pt = toda_flow(chev2, 1, 0.0, golden)
    assert linalg.norm(toda_matrix(chev2, pt) - toda_matrix(chev2, golden)) <= 1e-10


def test_flow_rejects_points_off_domain(chev2):
    with pytest.raises(NotInV):
        toda_flow(chev2, 1, 0.5, make_toda_point([0.0, 0.0], [-1.0]))


def test_flow_complex_time_blowup(chev2, golden):
    # The group trajectory hits the boundary of the translated big cell at
    # t = i pi / 2 (the leading minor is cosh(t) for the golden point).
    with pytest.raises(NotInGStar) as excinfo:
        toda_flow(chev2, 1, 1j * np.pi / 2, golden)
    assert excinfo.value.minor_index == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flow_conservation_seeded(n):
    chev = build_chevalley(n)
    rng = stream(81, f"toda-conserve-{n}")
    for _ in range(20):
        p = sample_flow_domain(chev, rng)
        x0 = toda_matrix(chev, p)
        base = invariant_vector(chev, x0)
        eig0 = np.sort_complex(linalg.eig(x0)[0])
        for i in range(1, chev.r + 1):
            for t in (0.1, 0.7):
                xt = toda_matrix(chev, toda_flow(chev, i, t, p))
                dev = np.linalg.norm(invariant_vector(chev, xt) - base)
                assert dev <= 1e-8 * (1 + np.linalg.norm(base))
                eig_t = np.sort_complex(linalg.eig(xt)[0])
                assert np.max(np.abs(eig_t - eig0)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_flow_semigroup(n):
    chev = build_chevalley(n)
    rng = stream(82, f"toda-semigroup-{n}")
    for _ in range(15):
        p = sample_flow_domain(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        t, s = rng.uniform(-0.6, 0.6, 2)
        lhs = toda_matrix(chev, toda_flow(chev, i, s, toda_flow(chev, i, t, p)))
        rhs = toda_matrix(chev, toda_flow(chev, i, t + s, p))
        assert linalg.norm(lhs - rhs) <= 1e-8 * (1 + linalg.norm(rhs))


def test_flow_root_coords_stay_nonzero(chev2, golden):
    for t in np.linspace(-2.0, 2.0, 9):
        pt = toda_flow(chev2, 1, float(t), golden)
        assert np.min(np.abs(pt.root_coords)) > 1e-13


# ----------------------------- the vector field -------------------------- #

def test_vector_field_golden_rates(chev2, golden):
    # d/dt at 0 of (tanh t, sech^2 t) is (1, 0).
    w = toda_vector_field(chev2, 1, golden)
    assert abs(w[0, 0] - 1.0) <= 1e-8
    assert abs(w[1, 1] + 1.0) <= 1e-8
    assert abs(w[0, 1]) <= 1e-8
    assert w[1, 0] == 0.0


def test_vector_field_conserves_invariants_fd():
    chev = build_chevalley(3)
    rng = stream(83, "field-conserves")
    h = 1e-6
    for _ in range(10):
        p = sample_flow_domain(chev, rng)
        m = toda_matrix(chev, p)
        for i in (1, 2):
            w = toda_vector_field(chev, i, p)
            f_plus = invariant_vector(chev, m + h * w)
            f_minus = invariant_vector(chev, m - h * w)
            assert np.max(np.abs(f_plus - f_minus)) / (2 * h) <= 1e-5


def test_distinct_flows_commute():
    chev = build_chevalley(3)
    rng = stream(84, "flows-commute")
    for _ in range(10):
        p = sample_flow_domain(chev, rng)
        a = toda_flow(chev, 1, 0.4, toda_flow(chev, 2, 0.3, p))
        b = toda_flow(chev, 2, 0.3, toda_flow(chev, 1, 0.4, p))
        dev = linalg.norm(toda_matrix(chev, a) - toda_matrix(chev, b))
        assert dev <= 1e-7 * (1 + linalg.norm(toda_matrix(chev, a)))


def test_rk4_cross_check_golden(chev2, golden):
    direct = toda_matrix(chev2, toda_flow(chev2, 1, 1.0, golden))
    integrated = toda_matrix(chev2, rk4_toda(chev2, 1, golden, 1.0, step=5e-3))
    assert linalg.norm(integrated - direct) <= 1e-5 * (1 + linalg.norm(direct))


# ----------------------------- the embedding ----------------------------- #

def test_embed_golden(chev2, golden):
    zp = embed(chev2, golden)
    assert group_equal(zp.g, FLIP2)
    assert np.allclose(zp.x, FLIP2, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_embed_produces_valid_points_and_commutes(n):
    chev = build_chevalley(n)
    rng = stream(85, f"embed-valid-{n}")
    for _ in range(25):
        p = sample_flow_domain(chev, rng)
        zp = embed(chev, p)
        assert is_z_point(chev, zp.g, zp.x)
        base = invariant_vector(chev, toda_matrix(chev, p))
        dev = np.linalg.norm(z_invariants(chev, zp) - base)
        assert dev <= 1e-9 * (1 + np.linalg.norm(base))


def test_embed_injective():
    chev = build_chevalley(3)
    rng = stream(86, "embed-injective")
    points = [sample_flow_domain(chev, rng) for _ in range(30)]
    images = [embed(chev, p) for p in points]
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            gap_in = linalg.norm(toda_matrix(chev, points[a]) - toda_matrix(chev, points[b]))
            if gap_in < 1e-6:
                continue
            gap_out = max(scalar_aligned_distance(images[a].g, images[b].g),
                          linalg.norm(images[a].x - images[b].x))
            assert gap_out > 1e-10


def test_embed_inverse_golden_roundtrip(chev2, golden):
    zp = embed(chev2, golden)
    back = embed_inverse(chev2, zp)
    assert linalg.norm(toda_matrix(chev2, back) - toda_matrix(chev2, golden)) <= 1e-10


def test_embed_inverse_rejects_identity_fiber(chev2):
    # (identity, flip) is a centralizer point, but the identity leaves the
    # translated big cell (its first minor vanishes), hence outside the image.
    with pytest.raises(NotInW):
        embed_inverse(chev2, ZPoint(g=np.eye(2), x=FLIP2))


def test_embed_inverse_rejects_collided_spectrum():
    chev = build_chevalley(2)
    x = chev.section_point(np.array([-1.0 + 0.0j]))  # eigenvalues +-i
    with pytest.raises(NotInW):
        embed_inverse(chev, ZPoint(g=np.eye(2), x=x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_embed_roundtrips_seeded(n):
    chev = build_chevalley(n)
    rng = stream(87, f"embed-roundtrip-{n}")
    for _ in range(25):
        p = sample_flow_domain(chev, rng)
        zp = embed(chev, p)
        back = embed_inverse(chev, zp)
        assert linalg.norm(toda_matrix(chev, back) - toda_matrix(chev, p)) \
            <= 1e-8 * (1 + linalg.norm(toda_matrix(chev, p)))
        again = embed(chev, back)
        assert scalar_aligned_distance(again.g, zp.g) <= 1e-8
        assert linalg.norm(again.x - zp.x) <= 1e-8 * (1 + linalg.norm(zp.x))


# ----------------------------- intertwining ------------------------------ #

def test_intertwine_time_zero(chev2, golden):
    assert intertwine_check(chev2, 1, 0.0, golden) <= 1e-10


def test_intertwine_golden_unit_time(chev2, golden):
    assert intertwine_check(chev2, 1, 1.0, golden) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwine_seeded(n):
    chev = build_chevalley(n)
    rng = stream(88, f"intertwine-{n}")
    times = [0.5, -0.9, 0.3 + 0.2j]
    done = 0
    k = 0
    while done < 20:
        p = sample_flow_domain(chev, rng)
        i = 1 + (k % chev.r)
        t = times[k % len(times)]
        k += 1
        try:
            dev = intertwine_check(chev, i, t, p)
        except NotInGStar:
            continue
        done += 1
        assert dev <= 1e-7


@pytest.mark.parametrize("n", [2, 3])
def test_intertwine_infinitesimal_seeded(n):
    chev = build_chevalley(n)
    rng = stream(89, f"intertwine-inf-{n}")
    for k in range(10):
        p = sample_flow_domain(chev, rng)
        assert intertwine_infinitesimal(chev, 1 + (k % chev.r), p) <= 1e-5


def test_embedded_flow_matches_flow_step(chev2, golden):
    # Flow downstairs, then embed, then compare against the centralizer
    # flow applied to the embedded start, pointwise over several times.
    zp = embed(chev2, golden)
    for t in (0.2, 0.6, 1.0):
        left = embed(chev2, toda_flow(chev2, 1, t, golden))
        right = flow_step(chev2, t, zp, 1)
        assert scalar_aligned_distance(left.g, right.g) <= 1e-9
        assert linalg.norm(left.x - right.x) <= 1e-9


# ----------------------------- normal forms along flows ------------------ #

@pytest.mark.parametrize("n", [2, 3])
def test_normal_forms_constant_along_flow(n):
    chev = build_chevalley(n)
    rng = stream(90, f"forms-constant-{n}")
    for _ in range(10):
        p = sample_flow_domain(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        x0 = toda_matrix(chev, p)
        x1 = toda_matrix(chev, toda_flow(chev, i, 0.5, p))
        assert linalg.norm(chamber_form(chev, x1) - chamber_form(chev, x0)) \
            <= 1e-7 * (1 + linalg.norm(x0))
        assert linalg.norm(section_form(chev, x1) - section_form(chev, x0)) \
            <= 1e-7 * (1 + linalg.norm(x0))
        assert linalg.norm(chamber_to_section_conjugator(chev, x1)
                           - chamber_to_section_conjugator(chev, x0)) <= 1e-7


# ----------------------------- domain sampling --------------------------- #

@pytest.mark.parametrize("n", [2, 3, 4])
def test_domain_fraction_positive(n):
    chev = build_chevalley(n)
    rng = stream(91, f"domain-fraction-{n}")
    frac = domain_fraction(chev, rng, 200)
    assert frac > 0.0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_large_rank_flow_and_embedding(n):
    # Top of the supported rank range.  Near the boundary of the translated
    # big cell the minors become genuinely tiny (products of up to 28 unit
    # box coordinates), so a blow-up report is acceptable; completed flows
    # must still conserve and the embedding must still invert.
    chev = build_chevalley(n)
    rng = stream(93, f"large-rank-{n}")
    completed = 0
    attempts = 0
    while completed < 5 and attempts < 25:
        attempts += 1
        p = sample_flow_domain(chev, rng)
        x0 = toda_matrix(chev, p)
        base = invariant_vector(chev, x0)
        try:
            xt = toda_matrix(chev, toda_flow(chev, 1, 0.4, p))
            zp = embed(chev, p)
            back = embed_inverse(chev, zp)
        except NotInGStar:
            continue
        completed += 1
        dev = np.linalg.norm(invariant_vector(chev, xt) - base)
        assert dev <= 1e-8 * (1 + np.linalg.norm(base))
        assert linalg.norm(toda_matrix(chev, back) - x0) <= 1e-8 * (1 + linalg.norm(x0))
    assert completed >= 5


def test_random_toda_point_is_valid():
    chev = build_chevalley(4)
    rng = stream(92, "random-point")
    for _ in range(50):
        p = random_toda_point(chev, rng)
        assert abs(np.sum(p.diag)) <= 1e-12 * (1 + np.linalg.norm(p.diag))
        assert np.min(np.abs(p.root_coords)) > 1e-13


# ----------------------------- per-point normal forms --------------------- #

def test_flows_read_no_normal_forms(monkeypatch):
    chev = build_chevalley(4)
    p = sample_flow_domain(chev, stream(11, "shared_normal_forms"))
    calls = []
    original = kostant_maps.decompose_to_section

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kostant_maps, "decompose_to_section", counting)
    # counted in toda too, should toda ever bind the decomposition itself
    monkeypatch.setattr(toda, "decompose_to_section", counting, raising=False)
    for i in range(1, chev.n):
        toda_flow(chev, i, 0.3, p)
    assert not calls  # Symes' factorization needs no normal form
    zp = embed(chev, p)
    assert len(calls) == 1  # x only; the conjugators are column recurrences
    embed_inverse(chev, zp)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 4, 7, 8])
def test_embed_defining_properties(n):
    # the section part is the section form, the group part stabilizes it at
    # embed's own bound and is the stabilizer lift carried to the section
    chev = build_chevalley(n)
    rng = stream(12, "per_call_reference")
    for _ in range(5):
        p = sample_flow_domain(chev, rng)
        x = toda_matrix(chev, p)
        zp = embed(chev, p)
        assert np.array_equal(zp.x, section_form(chev, x))
        cond_g = linalg.norm(zp.g) * linalg.norm(linalg.inv(zp.g))
        assert stabilizer_residual(zp.g, zp.x) <= 1e-9 * (1.0 + cond_g)
        conj = chamber_to_section_conjugator(chev, x)
        carried = conj @ stabilizer_lift(chev, x) @ linalg.inv(conj)
        assert scalar_aligned_distance(zp.g, carried) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_in_flow_domain_reads_the_spectrum(monkeypatch, n):
    chev = build_chevalley(n)
    rng = stream(5, "domain_route")
    points = [random_toda_point(chev, rng) for _ in range(60)]
    # real points with a negative superdiagonal entry have conjugate
    # eigenvalue pairs, which lie outside the domain
    points += [make_toda_point(p.diag.real - np.mean(p.diag.real), p.root_coords.real)
               for p in points[:30]]
    # reference: the invariants' route through the section inverse
    expected = [in_chamber_image(chev, invariant_vector(chev, toda_matrix(chev, p)))
                for p in points]
    assert any(expected) and not all(expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("in_flow_domain inverted the section")

    monkeypatch.setattr(invariants, "section_from_invariants", forbidden)
    assert [in_flow_domain(chev, p) for p in points] == expected


def test_flow_off_phase_space_raises_no_convergence(monkeypatch, chev2, golden):
    monkeypatch.setattr(toda, "adjoint",
                        lambda *args, **kwargs: np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NoConvergence, match="phase space"):
        toda_flow(chev2, 1, 0.5, golden)


# ----------------------------- two routes to the flow -------------------- #

@pytest.mark.parametrize("n", [3, 5])
def test_lax_field_matches_flow_difference(n):
    # oracle: the central difference of the factorization flow at t = 0
    chev = build_chevalley(n)
    rng = stream(94, f"field-fd-{n}")
    h = 1e-6
    for _ in range(5):
        p = sample_flow_domain(chev, rng)
        for i in range(1, chev.r + 1):
            w = toda_vector_field(chev, i, p)
            fd = (toda_matrix(chev, toda_flow(chev, i, h, p))
                  - toda_matrix(chev, toda_flow(chev, i, -h, p))) / (2 * h)
            assert linalg.norm(w - fd) <= 1e-8 * (1 + linalg.norm(w))


@pytest.mark.parametrize("n", range(2, 7))
def test_symes_flow_matches_dressing(n):
    # oracle: Kostant's route, dressing the chamber form by the stabilizer
    # lift right-translated by exp(t * gradient)
    chev = build_chevalley(n)
    rng = stream(95, f"two-routes-{n}")
    for k in range(10):
        p = sample_flow_domain(chev, rng)
        i = 1 + k % chev.r
        t = rng.uniform(-1.0, 1.0)
        forms = kostant_maps.normal_forms(chev, toda_matrix(chev, p))
        moved = forms.lift @ linalg.mat_exp(t * invariants.invariant_gradient(chev, forms.theta, i))
        expected = kostant_maps.dress(chev, forms.theta, moved)
        got = toda_matrix(chev, toda_flow(chev, i, t, p))
        assert linalg.norm(got - expected) <= 1e-8 * (1 + linalg.norm(expected))


def test_flow_where_dressing_leaves_the_phase_space():
    # Point 21 of the probe stream at n = 6: the dressing route ends 4.2e-6
    # off the phase space at label 5, t = 0.7.
    chev = build_chevalley(6)
    rng = stream(42, "probe")
    p = [sample_flow_domain(chev, rng) for _ in range(22)][21]
    x0 = toda_matrix(chev, p)
    xt = toda_matrix(chev, toda_flow(chev, 5, 0.7, p))
    base = invariant_vector(chev, x0)
    assert np.linalg.norm(invariant_vector(chev, xt) - base) <= 1e-8 * (1 + np.linalg.norm(base))

    def lax(_, y):  # dx/dt = [(x^5)_{>0}, x], written out with numpy alone
        x = y.reshape(6, 6)
        b = np.triu(np.linalg.matrix_power(x, 5), 1)
        return (b @ x - x @ b).ravel()

    sol = solve_ivp(lax, (0.0, 0.7), x0.ravel(), method="DOP853", rtol=1e-13, atol=1e-13)
    expected = sol.y[:, -1].reshape(6, 6)
    assert linalg.norm(xt - expected) <= 1e-8 * (1 + linalg.norm(expected))


def test_tiny_root_coordinate_flows_and_inverts():
    # A point with root coordinate 2.5e-4 in modulus, drawn by the n = 4
    # benchmark workload.  The translated determinant det(w0^-1 g) of its
    # group elements is of order 1e-12, so a big-cell test that also
    # checked minor n would reject them.
    chev = build_chevalley(4)
    p = make_toda_point(
        [0.5758114129408125 - 0.6703775131537696j, -0.6206233339603293 - 0.09030237483800463j,
         -0.4790169133109705 - 0.15972326627133027j, 0.5238288343304873 + 0.9204031542631045j],
        [9.338678106818321e-05 + 0.00022930868330117704j,
         -0.48914651653128827 - 0.06890418923834352j,
         -0.26497355149167556 - 0.8414525810882045j])
    x0 = toda_matrix(chev, p)
    base = invariant_vector(chev, x0)
    for i, t in enumerate([0.4267142243006363, 0.5527553262253284, 0.9864824629919129], start=1):
        xt = toda_matrix(chev, toda_flow(chev, i, t, p))
        assert np.linalg.norm(invariant_vector(chev, xt) - base) <= 1e-8 * (1 + np.linalg.norm(base))
    back = embed_inverse(chev, embed(chev, p))
    assert linalg.norm(toda_matrix(chev, back) - x0) <= 1e-8 * (1 + linalg.norm(x0))
