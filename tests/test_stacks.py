"""Stacked calls against per-point calls: a stack of m points gives, sample
by sample, the bits or the exception of the per-point call."""

import numpy as np
import pytest

from centralizer_lab import suites
from centralizer_lab.centralizer import ZPoint
from centralizer_lab.errors import NotInGStar, NotInV, NotInW
from centralizer_lab.kostant_maps import chamber_form, stabilizer_lift
from centralizer_lab.lie_core import build_chevalley, scalar_aligned_distance
from centralizer_lab.linalg import eig, eigvals
from centralizer_lab.sampling import (
    complex_uniform,
    random_section_point,
    random_stabilizer_element,
    sample_flow_domain,
    stabilizer_coefficients,
    stabilizer_elements,
    stream,
)
from centralizer_lab.stacks import stack
from centralizer_lab.toda import (
    TodaPoint,
    embed,
    embed_inverse,
    make_toda_point,
    toda_flow,
    toda_matrix,
)

TIMES = (0.4, -0.8, 0.3 + 0.2j)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_sample(stacked, exc, call):
    """The stacked result (or exception) of one sample equals its per-point
    call bit for bit (or in type and message)."""
    try:
        single = call()
    except Exception as raised:
        assert exc is not None and type(exc) is type(raised) and str(exc) == str(raised)
        return
    assert exc is None, exc
    if isinstance(single, np.ndarray):
        assert _same_bits(stacked, single)
        return
    for name in single.__dataclass_fields__:
        assert _same_bits(getattr(stacked, name), getattr(single, name)), name


def _sample(value, k):
    if isinstance(value, np.ndarray):
        return value[k]
    return type(value)(*(getattr(value, name)[k] for name in value.__dataclass_fields__))


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_calls_equal_per_point_calls(n):
    chev = build_chevalley(n)
    rng = stream(n, "stacked-vs-per-point")
    points = [sample_flow_domain(chev, rng) for _ in range(25)]
    p = stack(points)
    # the spectra without eigenvectors are eig's values, stacked and alone,
    # on Toda points and on points of xi + b
    for x in (toda_matrix(chev, p), chev.xi + np.triu(complex_uniform(rng, (25, n, n)))):
        values, errors = eigvals(x)
        (eig_values, _), eig_errors = eig(x)
        assert _same_bits(values, eig_values) and errors == eig_errors == [None] * 25
        for k in range(25):
            assert _same_bits(eigvals(x[k]), values[k]) and _same_bits(eig(x[k])[0], values[k])
    times = [TIMES[k % 3] for k in range(25)]
    for i in range(1, chev.r + 1):
        flowed, errors = toda_flow(chev, i, times, p)
        for k, point in enumerate(points):
            _check_sample(_sample(flowed, k), errors[k],
                          lambda: toda_flow(chev, i, times[k], point))
    lifts, errors = stabilizer_lift(chev, toda_matrix(chev, p))
    for k, point in enumerate(points):
        _check_sample(lifts[k], errors[k],
                      lambda: stabilizer_lift(chev, toda_matrix(chev, point)))
    images, errors = embed(chev, p)
    for k, point in enumerate(points):
        _check_sample(_sample(images, k), errors[k], lambda: embed(chev, point))
    assert errors == [None] * 25
    back, errors = embed_inverse(chev, images)
    for k in range(25):
        _check_sample(_sample(back, k), errors[k],
                      lambda: embed_inverse(chev, ZPoint(g=images.g[k], x=images.x[k])))
    distances = scalar_aligned_distance(images.g, images.g[::-1])
    for k in range(25):
        assert _same_bits(distances[k], scalar_aligned_distance(images.g[k], images.g[24 - k]))
    assert scalar_aligned_distance(images.g[:0], images.g[:0]).shape == (0,)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_stabilizer_elements_equal_per_point_draws(n):
    # the raw coefficients drawn one sample at a time and the stacked
    # exponential give random_stabilizer_element's bits, damped or not
    chev = build_chevalley(n)
    rng = stream(n, "stabilizer-points")
    x = np.stack([random_section_point(chev, rng, scale=1.0 + 3.0 * (k % 2)) for k in range(25)])
    draws = stream(n, "stabilizer-draws")
    coeffs = np.array([stabilizer_coefficients(chev, draws) for _ in range(25)])
    elements = stabilizer_elements(chev, x, coeffs)
    draws = stream(n, "stabilizer-draws")
    for k in range(25):
        assert _same_bits(elements[k], random_stabilizer_element(chev, draws, x[k]))


def test_one_failed_sample_leaves_the_others_unchanged():
    # sample 0 has the collided spectrum +-i and fails first; sample 1 (the
    # sl_2 golden point at t = i pi / 2, where the leading minor cosh(t)
    # vanishes) blows up a stage later; the rest are ordinary points
    chev = build_chevalley(2)
    rng = stream(2, "mixed-stack")
    points = [make_toda_point([0.0, 0.0], [-1.0]), make_toda_point([0.0, 0.0], [1.0])]
    points += [sample_flow_domain(chev, rng) for _ in range(6)]
    times = [0.5, 1j * np.pi / 2] + [0.5] * 6
    flowed, errors = toda_flow(chev, 1, times, stack(points))
    assert isinstance(errors[0], NotInV)
    assert isinstance(errors[1], NotInGStar) and errors[1].minor_index == 1
    for k in range(8):
        _check_sample(_sample(flowed, k), errors[k],
                      lambda: toda_flow(chev, 1, times[k], points[k]))
    assert errors[2:] == [None] * 6

    x = toda_matrix(chev, stack(points))
    lifts, errors = stabilizer_lift(chev, x)
    assert isinstance(errors[0], NotInV) and errors[1:] == [None] * 7
    for k in range(8):
        _check_sample(lifts[k], errors[k], lambda: stabilizer_lift(chev, x[k]))

    images, errors = embed(chev, stack(points))
    assert isinstance(errors[0], NotInV) and errors[1] is None
    for k in range(8):
        _check_sample(_sample(images, k), errors[k], lambda: embed(chev, points[k]))

    # sample 3's group part I: its reversed first minor vanishes
    images.g[3] = np.eye(2)
    back, errors = embed_inverse(chev, images)
    assert isinstance(errors[3], NotInW)
    for k in range(1, 8):
        _check_sample(_sample(back, k), errors[k],
                      lambda: embed_inverse(chev, ZPoint(g=images.g[k], x=images.x[k])))


def test_a_non_finite_sample_fails_the_whole_stack():
    # sample 2 has an inf root coordinate, or a NaN in its group part: the
    # stacked call raises the per-point ValueError for the whole stack
    chev = build_chevalley(4)
    rng = stream(4, "non-finite")
    points = [sample_flow_domain(chev, rng) for _ in range(4)]
    images, _ = embed(chev, stack(points))
    p = stack(points)
    p.root_coords[2, 0] = np.inf
    images.g[2, 0, 1] = np.nan
    x = toda_matrix(chev, p)
    calls = [
        (lambda: chamber_form(chev, x), lambda: chamber_form(chev, x[2])),
        (lambda: toda_flow(chev, 1, 0.4, p), lambda: toda_flow(chev, 1, 0.4, _sample(p, 2))),
        (lambda: embed(chev, p), lambda: embed(chev, _sample(p, 2))),
        (lambda: embed_inverse(chev, images), lambda: embed_inverse(chev, _sample(images, 2))),
    ]
    for stacked_call, call in calls:
        for each in (stacked_call, call):
            with pytest.raises(ValueError) as raised:
                each()
            assert type(raised.value) is ValueError
            assert str(raised.value) == "matrix has non-finite entries"


def _non_finite(column, k):
    """A column with sample k's entries all inf, labels (integers) kept."""
    fields = getattr(type(column), "__dataclass_fields__", None)
    if fields is not None:
        return type(column)(*(_non_finite(getattr(column, name), k) for name in fields))
    if type(column) is list:
        return [v if j != k or isinstance(v, int) else np.inf for j, v in enumerate(column)]
    if column.dtype.kind in "iu":
        return column
    out = column.copy()
    out[k] = np.inf
    return out


@pytest.mark.parametrize("name", [name for name, check in suites.CHECKS.items() if check.draw])
def test_a_non_finite_draw_ends_a_stacked_check_after_the_samples_before_it(name, monkeypatch):
    check = suites.CHECKS[name]

    def draw(chev, rng, samples):
        columns, failure = check.draw(chev, rng, samples)
        return [_non_finite(column, 3) for column in columns], failure

    monkeypatch.setitem(suites.CHECKS, name, suites.Check(check.fn, check.bound, check.skips, draw))
    result = suites.run_check(name, 4, 42, 10)
    assert result.samples + sum(result.skipped.values()) == 3
    assert result.error == "ValueError: matrix has non-finite entries"


def test_stack_keeps_the_point_class():
    chev = build_chevalley(3)
    points = [sample_flow_domain(chev, stream(3, "stack-class")) for _ in range(2)]
    p = stack(points)
    assert isinstance(p, TodaPoint) and p.diag.shape == (2, 3) and p.root_coords.shape == (2, 2)
    assert _same_bits(toda_matrix(chev, p)[1], toda_matrix(chev, points[1]))
