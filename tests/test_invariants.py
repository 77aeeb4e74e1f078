import numpy as np
import pytest

from centralizer_lab import linalg
from centralizer_lab.errors import NoConvergence, NotInV
from centralizer_lab.invariants import (
    _leading_coefficients,
    invariant_gradient,
    invariant_gradients,
    invariant_vector,
    section_from_invariants,
)
from centralizer_lab.kostant_maps import chamber_form
from centralizer_lab.lie_core import adjoint, bracket, build_chevalley, pairing
from centralizer_lab.sampling import (
    random_group_element,
    random_section_point,
    random_traceless,
    stream,
)


def test_invariants_of_zero():
    chev = build_chevalley(3)
    assert np.array_equal(invariant_vector(chev, np.zeros((3, 3))), np.zeros(2))


def test_invariants_n2_example():
    # tr(x^2) = 2 for the flip matrix, halved to 1.
    chev = build_chevalley(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert invariant_vector(chev, x) == pytest.approx(np.array([1.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_invariants_vanish_on_nilpotent(n):
    chev = build_chevalley(n)
    assert np.max(np.abs(invariant_vector(chev, chev.xi))) == 0.0


def test_gradient_degree_one_is_x():
    chev = build_chevalley(3)
    rng = stream(2, "grad-degree-one")
    x = random_traceless(chev, rng)
    assert np.allclose(invariant_gradient(chev, x, 1), x)
    x2 = np.array([[1.0, 0.0], [1.0, -1.0]])
    chev2 = build_chevalley(2)
    assert np.array_equal(invariant_gradient(chev2, x2, 1), x2)


def test_gradient_finite_difference_oracle():
    # (f_i(x + eps z) - f_i(x - eps z)) / (2 eps) must match the pairing
    # with the gradient; eps = 1e-6, tolerance 1e-6.
    chev = build_chevalley(4)
    rng = stream(3, "grad-fd")
    eps = 1e-6
    for _ in range(10):
        x = random_traceless(chev, rng)
        z = random_traceless(chev, rng)
        f_plus = invariant_vector(chev, x + eps * z)
        f_minus = invariant_vector(chev, x - eps * z)
        for i in range(1, chev.r + 1):
            fd = (f_plus[i - 1] - f_minus[i - 1]) / (2 * eps)
            exact = pairing(invariant_gradient(chev, x, i), z)
            assert abs(fd - exact) <= 1e-6


def test_gradient_lies_in_centralizer():
    chev = build_chevalley(4)
    rng = stream(4, "grad-centralizer")
    for _ in range(25):
        x = random_traceless(chev, rng)
        size = max(linalg.norm(x), 1e-12)
        for i in range(1, chev.r + 1):
            residual = linalg.norm(bracket(x, invariant_gradient(chev, x, i)))
            assert residual <= 1e-12 * size ** i


def test_gradient_equivariance():
    chev = build_chevalley(3)
    rng = stream(6, "grad-equivariance")
    for _ in range(25):
        x = random_traceless(chev, rng)
        g = random_group_element(chev, rng)
        y = adjoint(g, x)
        for i in range(1, chev.r + 1):
            lhs = adjoint(g, invariant_gradient(chev, x, i))
            rhs = invariant_gradient(chev, y, i)
            assert linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + linalg.norm(rhs))


def test_gradients_independent_on_section():
    chev = build_chevalley(4)
    rng = stream(8, "grad-independence")
    for _ in range(20):
        s = random_section_point(chev, rng)
        grads = invariant_gradients(chev, s)
        gram = np.array([[pairing(a, b) for b in grads] for a in grads])
        scale = np.prod([max(linalg.norm(g), 1e-12) for g in grads])
        assert abs(np.linalg.det(gram)) > 1e-10 * scale


def test_section_inverse_n2():
    # On the rank-1 section x = xi + s eta the single invariant equals s,
    # so invariants (1,) come from the flip matrix.
    chev = build_chevalley(2)
    x = section_from_invariants(chev, np.array([1.0]))
    assert np.allclose(x, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_section_inverse_zero_gives_nilpotent(n):
    chev = build_chevalley(n)
    x = section_from_invariants(chev, np.zeros(n - 1))
    assert linalg.norm(x - chev.xi) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_section_roundtrip_seeded(n):
    chev = build_chevalley(n)
    rng = stream(77, f"section-roundtrip-{n}")
    for _ in range(100):
        z = rng.uniform(-1.5, 1.5, chev.r) + 1j * rng.uniform(-1.5, 1.5, chev.r)
        x = section_from_invariants(chev, z)
        dev = np.linalg.norm(invariant_vector(chev, x) - z)
        assert dev <= 1e-10 * (1.0 + np.linalg.norm(z))
        _, residual = chev.section_coords(x)
        assert residual <= 1e-10 * (1.0 + linalg.norm(x))


def _in_chamber_image(chev, z):
    try:
        chamber_form(chev, section_from_invariants(chev, z))
    except NotInV:
        return False
    return True


def test_in_chamber_image_examples():
    chev = build_chevalley(2)
    # roots +-1: distinct real parts
    assert _in_chamber_image(chev, np.array([1.0]))
    # roots +-i: equal real parts
    assert not _in_chamber_image(chev, np.array([-1.0]))
    # double root zero
    assert not _in_chamber_image(chev, np.array([0.0]))


def test_in_chamber_image_shape_check():
    chev = build_chevalley(3)
    with pytest.raises(ValueError):
        section_from_invariants(chev, np.array([1.0]))


@pytest.mark.parametrize("n", range(2, 9))
def test_invariant_gradient_indexes_the_gradients(n):
    # one ladder: the i-th gradient is the same product, bit for bit,
    # whether alone, among all r, per point or stacked with per-sample labels
    chev = build_chevalley(n)
    rng = stream(n, "gradient-ladder")
    x = np.stack([random_traceless(chev, rng) for _ in range(6)])
    grads = invariant_gradients(chev, x)
    assert grads.shape == (6, chev.r, n, n)
    for k in range(6):
        assert np.array_equal(invariant_gradients(chev, x[k]), grads[k])
        for i in range(1, chev.r + 1):
            assert np.array_equal(invariant_gradient(chev, x[k], i), grads[k, i - 1])
    labels = [1 + k % chev.r for k in range(6)]
    assert np.array_equal(invariant_gradient(chev, x, labels),
                          grads[np.arange(6), np.array(labels) - 1])
    for label in (chev.r, np.int64(chev.r), np.array(chev.r)):  # one label, three types
        assert np.array_equal(invariant_gradient(chev, x, label), grads[:, -1])
    with pytest.raises(ValueError):
        invariant_gradient(chev, x, [0] + labels[1:])
    with pytest.raises(ValueError):
        invariant_gradient(chev, x, chev.r + 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_leading_coefficients_equal_the_product_loop(n):
    chev = build_chevalley(n)
    gammas, xp = [], np.eye(n, dtype=complex)
    for i in range(1, n):
        xp = xp @ chev.xi
        gammas.append(np.trace(xp @ chev.centralizer_eta[i - 1]))
    assert _leading_coefficients(n).tobytes() == np.array(gammas).tobytes()
