"""Batched draws against draws made one at a time: the fixed-layout draws,
the judged draws (the flow-domain points among them), the domain fraction
and the chart-point draw consume the stream exactly as the sequential
loops below do, and the checks that draw through them give the same rows."""

import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest

from centralizer_lab import linalg, sampling, suites, toda
from centralizer_lab.centralizer import CJLPoint
from centralizer_lab.errors import NoConvergence, NotInV
from centralizer_lab.invariants import invariant_gradients
from centralizer_lab.lie_core import build_chevalley, scalar_aligned_distance
from centralizer_lab.sampling import (
    complex_uniform,
    domain_fraction,
    fixed,
    one_by_one,
    random_cjl_point,
    random_group_element,
    random_section_point,
    random_toda_point,
    random_traceless,
    sample_flow_domain,
    stabilizer_coefficients,
    stream,
)
from centralizer_lab.stacks import arrays, map_arrays, stack, stacked
from centralizer_lab.toda import in_flow_domain, toda_matrix


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _two_call_complex(rng, shape, scale=1.0):
    """complex_uniform as two draws, the real plane first."""
    re = rng.uniform(-1.0, 1.0, size=shape)
    im = rng.uniform(-1.0, 1.0, size=shape)
    return scale * (re + 1j * im)


def _sequential_point(chev, rng):
    """The flow-domain sampler as a loop over single candidates."""
    for _ in range(1000):
        p = random_toda_point(chev, rng)
        if in_flow_domain(chev, p):
            return p
    raise NoConvergence("no flow-domain point found in 1000 draws")


def _sequential_draw(chev, rng, scalars):
    point = _sequential_point(chev, rng)
    if not scalars:
        return point
    return (point, *(np.array([_two_call_complex(rng, ()) for _ in range(size)])
                     for size in scalars))


def _sequential_sampler(chev, rng, samples, scalars=()):
    """The flow-domain draw's columns and failure, drawn sample by sample
    and then stacked."""
    drawn, failure = [], None
    try:
        while len(drawn) < samples:
            drawn.append(_sequential_draw(chev, rng, scalars))
    except Exception as exc:
        failure = exc
    rows = [value if scalars else (value,) for value in drawn]
    columns = [toda.TodaPoint(
        diag=np.array([row[0].diag for row in rows], dtype=complex).reshape(-1, chev.n),
        root_coords=np.array([row[0].root_coords for row in rows], dtype=complex).reshape(-1, chev.r))]
    columns += [np.array([row[1 + g] for row in rows], dtype=complex).reshape(-1, size)
                for g, size in enumerate(scalars)]
    return columns, failure


def _sequential_fraction(chev, rng, samples):
    """domain_fraction as a loop over single candidates."""
    hits = sum(in_flow_domain(chev, random_toda_point(chev, rng)) for _ in range(samples))
    return hits / samples


def _assert_same_draws(batched, sequential):
    (columns, failure), (reference, failure_ref) = batched, sequential
    assert len(columns) == len(reference)
    for column, ref in zip(columns, reference):
        for a, b in zip(arrays(column), arrays(ref)):
            assert _same_bits(a, b)
    assert type(failure) is type(failure_ref) and str(failure) == str(failure_ref)


def _reject_by_value(monkeypatch, reject):
    """Judge every spectrum, batched or alone, by ``reject(values)`` on top
    of the chamber test."""
    def chamber_errors(values):
        return [NotInV("forced") if reject(row) else None for row in np.asarray(values)]
    monkeypatch.setattr(sampling, "chamber_errors", chamber_errors)
    monkeypatch.setattr(toda, "chamber_errors", chamber_errors)


@pytest.mark.parametrize("shape", [(), (3,), (4, 4)])
@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_complex_uniform_matches_two_draws(shape, scale):
    one, two = stream(5, "complex"), stream(5, "complex")
    for _ in range(3):
        value = complex_uniform(one, shape, scale)
        reference = _two_call_complex(two, shape, scale)
        assert type(value) is type(reference)
        assert _same_bits(value, reference)
    assert one.uniform() == two.uniform()


def _draw_flow_points(chev, rng, samples, scalars=()):
    """The checks' draw of flow-domain points, each followed by sets of r
    stabilizer coefficients, one set per entry of ``scalars``."""
    return suites._flow_points(len(scalars))(chev, rng, samples)


@pytest.mark.parametrize("n", range(2, 9))
def test_batched_sampler_matches_sequential_draws(n):
    chev = build_chevalley(n)
    for seed in range(4):
        for scalars in ((), (chev.r,), (chev.r, chev.r)):
            one, two = stream(seed, f"batch-{n}"), stream(seed, f"batch-{n}")
            drawn = _draw_flow_points(chev, one, 25, scalars)
            assert drawn[1] is None and len(drawn[0][0].diag) == 25
            _assert_same_draws(drawn, _sequential_sampler(chev, two, 25, scalars))
            assert one.uniform() == two.uniform()
    one, two = stream(1, "single"), stream(1, "single")
    for _ in range(3):
        p, q = sample_flow_domain(chev, one), _sequential_point(chev, two)
        assert _same_bits(p.diag, q.diag) and _same_bits(p.root_coords, q.root_coords)
    assert one.uniform() == two.uniform()


def _sequential_cjl_point(chev, rng):
    """A chart point drawn a scalar at a time: its section point, then its
    damped flow times one after another."""
    s = random_section_point(chev, rng, scale=0.8)
    lam = np.zeros(chev.r, dtype=complex)
    for i, grad in enumerate(invariant_gradients(chev, s)):
        lam[i] = _two_call_complex(rng, ()) * (0.4 / max(1.0, linalg.norm(grad)))
    return CJLPoint(lam=lam, s=s)


@pytest.mark.parametrize("n", range(2, 9))
def test_batched_chart_points_match_sequential_draws(n):
    chev = build_chevalley(n)
    for seed in range(4):
        one, two = stream(seed, f"chart-batch-{n}"), stream(seed, f"chart-batch-{n}")
        c = random_cjl_point(chev, one, 25)
        assert c.lam.shape == (25, chev.r) and c.s.shape == (25, n, n)
        for k in range(25):
            ref = _sequential_cjl_point(chev, two)
            assert _same_bits(c.lam[k], ref.lam) and _same_bits(c.s[k], ref.s)
        single = random_cjl_point(chev, one)
        ref = _sequential_cjl_point(chev, two)
        assert _same_bits(single.lam, ref.lam) and _same_bits(single.s, ref.s)
        assert one.uniform() == two.uniform()


@pytest.mark.parametrize("n", [2, 4, 7])
def test_forced_rejections_keep_the_stream(monkeypatch, n):
    # about a third of the candidates are rejected, by their spectrum
    _reject_by_value(monkeypatch, lambda values: int(abs(values[0].real) * 1e6) % 3 == 0)
    chev = build_chevalley(n)
    eigvals_calls = []
    eigvals = linalg.eigvals
    monkeypatch.setattr(linalg, "eigvals", lambda a: eigvals_calls.append(np.ndim(a)) or eigvals(a))
    for scalars in ((), (chev.r, chev.r)):
        one, two = stream(3, f"reject-{n}"), stream(3, f"reject-{n}")
        eigvals_calls.clear()
        drawn = _draw_flow_points(chev, one, 25, scalars)
        batched = Counter(eigvals_calls)  # by the number of axes of the input
        tries = []  # per sample, the candidates a draw made alone takes
        for _ in range(25):
            eigvals_calls.clear()
            _sequential_draw(chev, two, scalars)
            tries.append(len(eigvals_calls))
        alone = [k for k, count in enumerate(tries) if count > 1]
        assert len(alone) > 3
        # one stacked eigvals per round, a round after each sample drawn
        # alone, and one per candidate of such a sample
        assert batched == {3: 1 + sum(k < 24 for k in alone), 2: sum(tries[k] for k in alone)}
        two = stream(3, f"reject-{n}")
        _assert_same_draws(drawn, _sequential_sampler(chev, two, 25, scalars))
        assert one.uniform() == two.uniform()
    one, two = stream(3, f"fraction-{n}"), stream(3, f"fraction-{n}")
    fraction = domain_fraction(chev, one, 30)
    assert fraction == _sequential_fraction(chev, two, 30) < 1.0
    assert one.uniform() == two.uniform()


def test_no_convergence_after_1000_rejections(monkeypatch):
    # only candidates 600 and 1200 of the stream are accepted: samples 0 and
    # 1 each follow some 600 rejections, and sample 2 gives up after 1000
    chev = build_chevalley(3)
    rng = stream(8, "stuck")
    candidates = [random_toda_point(chev, rng) for _ in range(1201)]
    spectra = [linalg.eig(toda_matrix(chev, candidates[k]))[0].tobytes() for k in (600, 1200)]
    _reject_by_value(monkeypatch, lambda values: values.tobytes() not in spectra)
    one, two = stream(8, "stuck"), stream(8, "stuck")
    drawn = _draw_flow_points(chev, one, 3)
    assert len(drawn[0][0].diag) == 2 and isinstance(drawn[1], NoConvergence)
    assert str(drawn[1]) == "no flow-domain point found in 1000 draws"
    _assert_same_draws(drawn, _sequential_sampler(chev, two, 3))
    assert one.uniform() == two.uniform()
    with pytest.raises(NoConvergence, match="in 1000 draws"):
        sample_flow_domain(chev, stream(9, "stuck"))


def test_eigensolver_error_ends_the_draws_at_its_candidate(monkeypatch):
    # the eigensolver fails on the candidate that would be sample 3
    chev = build_chevalley(4)
    bad = []
    eigvals = linalg.eigvals

    @stacked(2)
    def failing_eigvals(a):
        values, errors = eigvals(a)
        return values, [NoConvergence("injected") if ak.tobytes() in bad else exc
                        for ak, exc in zip(a, errors)]

    for scalars in ((), (chev.r, chev.r)):
        drawn = _sequential_sampler(chev, stream(2, "eig-error"), 4, scalars)[0]
        bad[:] = [toda_matrix(chev, drawn[0])[3].tobytes()]
        monkeypatch.setattr(linalg, "eigvals", failing_eigvals)
        one, two = stream(2, "eig-error"), stream(2, "eig-error")
        drawn = _draw_flow_points(chev, one, 10, scalars)
        assert len(drawn[0][0].diag) == 3 and str(drawn[1]) == "injected"
        _assert_same_draws(drawn, _sequential_sampler(chev, two, 10, scalars))
        assert one.uniform() == two.uniform()
        monkeypatch.setattr(linalg, "eigvals", eigvals)
    # a stacked check ends its row after the samples before the failed draw
    points = _sequential_sampler(chev, stream(2, "eig-error"), 4)[0][0]
    bad[:] = [toda_matrix(chev, points)[3].tobytes()]
    monkeypatch.setattr(linalg, "eigvals", failing_eigvals)
    monkeypatch.setattr(suites, "stream", lambda seed, name: stream(2, "eig-error"))
    result = suites.run_check("kostant_chamber_form", 4, 42, 10)
    assert result.samples == 3 and result.error == "NoConvergence: injected"
    assert result.max_deviation == float("inf")


class _Scripted:
    """A generator over a fixed sequence of doubles u in [0, 1), with the
    calls the samplers make: ``uniform(low, high, size)``, ``random(size)``
    and a ``bit_generator.state`` that is the position in the sequence."""

    def __init__(self, doubles):
        self.doubles, self.state, self.bit_generator = doubles, 0, self

    def random(self, size):
        out = self.doubles[self.state:self.state + int(np.prod(size))].reshape(size)
        self.state += out.size
        return out.copy()

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)


@pytest.mark.parametrize("n", [2, 5])
def test_zero_root_coordinate_is_redrawn_alone(n):
    # the last root coordinate of candidate 2 reads exactly 0 (u = 0.5 in
    # both parts): the coordinates are drawn again, 2r more doubles, and the
    # diagonal is kept
    chev = build_chevalley(n)
    w = 2 * (chev.n + chev.r)
    clean = stream(n, "scripted").random(40 * w)

    def with_zero(candidate):
        doubles = clean.copy()
        doubles[candidate + 2 * n + chev.r - 1] = 0.5  # real part of the last coordinate
        doubles[candidate + 2 * n + 2 * chev.r - 1] = 0.5  # its imaginary part
        return doubles

    for scalars in ((), (chev.r,)):
        doubles = with_zero(2 * (w + 2 * sum(scalars)))
        one, two = _Scripted(doubles), _Scripted(doubles)
        drawn = _draw_flow_points(chev, one, 5, scalars)
        _assert_same_draws(drawn, _sequential_sampler(chev, two, 5, scalars))
        assert one.state == two.state == 5 * (w + 2 * sum(scalars)) + 2 * chev.r
        assert np.all(drawn[0][0].root_coords[2] != 0)
    one, two = _Scripted(with_zero(2 * w)), _Scripted(with_zero(2 * w))
    assert domain_fraction(chev, one, 6) == _sequential_fraction(chev, two, 6)
    assert one.state == two.state == 6 * w + 2 * chev.r


def _old_embed_injective(chev, rng, samples):
    """toda_embed_injective as a loop over pairs of points drawn one at a
    time."""
    points = [_sequential_point(chev, rng) for _ in range(samples)]
    if not points:
        return 0.0, 0
    images, errors = toda.embed(chev, stack(points))
    assert errors == [None] * samples
    bad = 0
    for a in range(samples):
        for b in range(a + 1, samples):
            if linalg.norm(toda_matrix(chev, points[a]) - toda_matrix(chev, points[b])) < 1e-6:
                continue
            gap = max(scalar_aligned_distance(images.g[a], images.g[b]),
                      linalg.relative_distance(images.x[a], images.x[b]))
            bad += gap < 1e-10
    return float(bad), samples


def _made_with(draw) -> dict:
    """The arguments that the combinator which made a draw was given."""
    return inspect.getclosurevars(draw).nonlocals


def _coefficient_sets(draw):
    """For a draw of flow-domain points judged from a fixed-layout
    proposal, the number of sets of stabilizer coefficients that follow
    each point; else None."""
    made = _made_with(draw) if draw else {}
    if made.get("judge") is not suites._judge_flow_points:
        return None
    names = _made_with(made["propose"]).get("names")
    return None if names is None else names.count("coefficients")


# the stacked checks whose samples are drawn by suites._flow_points(sets)
BATCHED = {name: sets for name, check in suites.CHECKS.items()
           if (sets := _coefficient_sets(check.draw)) is not None}


def test_batched_checks_are_the_flow_domain_ones():
    assert Counter(BATCHED.values()) == {0: 9, 1: 1, 2: 1}


def _row(result):
    row = dataclasses.asdict(result)
    del row["seconds"]
    return row


@pytest.mark.parametrize("n", range(2, 9))
def test_rows_equal_those_of_draws_made_one_at_a_time(monkeypatch, n):
    names = [*BATCHED, "toda_embed_injective", "toda_domain_fraction"]
    rows = {name: _row(suites.run_check(name, n, 42, 6)) for name in names}
    for name, sets in BATCHED.items():
        monkeypatch.setitem(suites.CHECKS, name, dataclasses.replace(
            suites.CHECKS[name], draw=lambda chev, rng, samples, sets=sets: _sequential_sampler(
                chev, rng, samples, (chev.r,) * sets)))
    monkeypatch.setattr(suites, "domain_fraction", _sequential_fraction)
    monkeypatch.setitem(suites.CHECKS, "toda_embed_injective",
                        suites.Check(_old_embed_injective, 0.5, (), None))
    for name in names:
        assert _row(suites.run_check(name, n, 42, 6)) == rows[name], name


def _run_injective(monkeypatch, points, embed=toda.embed):
    monkeypatch.setattr(suites, "_flow_points",
                        lambda sets: lambda chev, rng, samples: ([stack(points[:samples])], None))
    monkeypatch.setattr(suites, "embed", embed)
    return suites.run_check("toda_embed_injective", 3, 42, len(points))


def test_embed_injective_skips_a_repeated_point(monkeypatch):
    chev = build_chevalley(3)
    rng = stream(4, "injective")
    points = [_sequential_point(chev, rng) for _ in range(5)]
    result = _run_injective(monkeypatch, points[:3] + [points[1]] + points[3:])
    assert result.passed and result.max_deviation == 0.0 and result.samples == 6


def test_embed_injective_counts_two_points_with_one_image(monkeypatch):
    chev = build_chevalley(3)
    rng = stream(4, "injective")
    points = [_sequential_point(chev, rng) for _ in range(5)]

    def embed(chev, p):
        images, errors = toda.embed(chev, p)
        images.g[3] = 2.5j * images.g[1]  # one element of PGL_n
        images.x[3] = images.x[1]
        return images, errors

    result = _run_injective(monkeypatch, points, embed)
    assert not result.passed and result.max_deviation == 1.0 and result.samples == 5


def _matrix(chev, rng):
    return complex_uniform(rng, (chev.n, chev.n))


def _xi_plus_b(chev, rng):
    upper = np.triu(complex_uniform(rng, (chev.n, chev.n)))
    upper -= (np.trace(upper) / chev.n) * np.eye(chev.n)
    return chev.xi + upper


def _unitriangular(chev, rng):
    return np.eye(chev.n) + np.triu(complex_uniform(rng, (chev.n, chev.n), scale=0.8), 1)


def _torus(chev, rng):
    t_diag = complex_uniform(rng, (chev.n,))
    t_diag += np.sign(t_diag.real + 1e-12) * 0.5  # keep away from zero
    return np.diag(t_diag)


# Per fixed-layout draw, the per-sample draws each sample makes in turn, one
# per column; a group element's column holds its exponent.
FIXED = {
    "linalg_exp_inverse": (random_traceless, lambda chev, rng: rng.uniform(0.0, 5.0)),
    "linalg_exp_taylor_oracle": (random_traceless,),
    "linalg_exp_commuting": (random_traceless,),
    "linalg_ldu_roundtrip": (_matrix,),
    "lie_pairing_ad_invariance": (random_traceless, random_traceless, random_group_element),
    "inv_conjugation_invariance": (random_traceless, random_group_element),
    "inv_gradient_centralizes": (random_traceless,),
    "inv_gradient_equivariance": (random_traceless, random_group_element),
    "inv_gradient_independent_on_section": (random_section_point,),
    "inv_section_roundtrip": (lambda chev, rng: complex_uniform(rng, (chev.r,), 1.5),),
    "inv_gradient_fd": (random_traceless, random_traceless),
    "kostant_section_decomposition_roundtrip": (_xi_plus_b, _unitriangular, random_section_point),
    "kostant_gstar_refactor": (_unitriangular, _unitriangular, _torus),
    "cent_invariants_group_independent": (random_section_point, stabilizer_coefficients,
                                          stabilizer_coefficients),
    "cent_hamiltonian_isotropy": (random_section_point, stabilizer_coefficients),
    "cent_cjl_surjectivity": (random_section_point, stabilizer_coefficients),
    "cent_moment_preimage": (random_section_point, stabilizer_coefficients, random_group_element),
}


class _Counted:
    """A generator that counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


@pytest.mark.parametrize("n", range(2, 9))
def test_fixed_layout_draws_equal_per_sample_draws(n):
    chev = build_chevalley(n)
    draws = {name: suites.CHECKS[name].draw for name in FIXED}
    draws["cent_moment_preimage"] = fixed("section", "coefficients", "exponent")
    for name, per_sample in FIXED.items():
        one, two = _Counted(stream(n, name)), stream(n, name)
        columns, failure = draws[name](chev, one, 7)
        assert failure is None and len(columns) == len(per_sample) and one.calls == 1
        for k in range(7):
            for column, draw in zip(columns, per_sample):
                value = column[k]
                if draw is random_group_element:
                    value = linalg.mat_exp(value)
                assert _same_bits(value, draw(chev, two)), (name, k)
        assert one.rng.uniform() == two.uniform()


def test_fixed_layout_draws_are_the_ones_without_rejection_or_integers():
    def drawn_by(maker):
        return {name for name, check in suites.CHECKS.items()
                if getattr(check.draw, "__qualname__", "").startswith(maker + ".")}
    assert drawn_by("one_by_one") == {
        "cent_flow_preserves_points", "cent_flow_group_law", "cent_cjl_factor_order"}
    assert drawn_by("judged") == set(JUDGED) - {"flow_points_0", "flow_points_2",
                                                "toda_domain_fraction"} | set(BATCHED)
    assert drawn_by("fixed") == set(FIXED) - {"cent_moment_preimage"}


def _in_flow_domain(chev, rng):
    return in_flow_domain(chev, random_toda_point(chev, rng))


# Per draw that judges all samples' candidates in one pass, the draw and
# the per-sample draw whose one_by_one it must equal.
JUDGED = {name: (suites.CHECKS[name].draw, draw) for name, draw in {
    "linalg_eig_reconstruct": suites._draw_well_conditioned,
    "lie_centralizer_dimension": lambda chev, rng: (suites._random_regular(chev, rng),
                                                    random_section_point(chev, rng)),
    "lie_group_scalar_quotient": suites._draw_scalar_quotient,
    "toda_flow_semigroup": suites._draw_semigroup,
    "toda_normal_forms_constant": suites._flow_point_and_label,
}.items()} | {
    "flow_points_0": (suites._flow_points(0), _sequential_point),
    "flow_points_2": (suites._flow_points(2),
                      lambda chev, rng: _sequential_draw(chev, rng, (chev.r, chev.r))),
    "toda_domain_fraction": (sampling._memberships, _in_flow_domain),
}


def _assert_same_judged(chev, name, seed, samples):
    """The judged draw and one_by_one of its per-sample draw give the same
    columns and failure, and leave the stream at the same place, integer
    buffer included."""
    one, two = stream(seed, name), stream(seed, name)
    draw, per_sample = JUDGED[name]
    drawn = draw(chev, one, samples)
    _assert_same_draws(drawn, one_by_one(per_sample)(chev, two, samples))
    assert one.random(2).tobytes() == two.random(2).tobytes()
    assert one.integers(1, 9, 5).tolist() == two.integers(1, 9, 5).tolist()
    return drawn


def _judged_matrix(chev, name, columns, k):
    """Sample k's matrix that the draw judges."""
    if isinstance(columns[0], toda.TodaPoint):
        return toda_matrix(chev, map_arrays(lambda part: part[k], columns[0]))
    return columns[0][k]


def _judged_bytes(chev, name, columns, k):
    """The bytes of what the verdict reads for sample k: the eigenvectors
    of linalg_eig_reconstruct's matrix, the scalar of
    lie_group_scalar_quotient, else the spectrum."""
    if name in ("linalg_eig_reconstruct", "lie_group_scalar_quotient"):
        return columns[2][k].tobytes()
    return linalg.eigvals(_judged_matrix(chev, name, columns, k)).tobytes()


def _force_rejections(monkeypatch, name, targets):
    """Reject every candidate, batched or alone, whose verdict reads bytes
    in ``targets``."""
    def rejecting(verdict):
        return lambda rows: [ok and row.tobytes() not in targets
                             for ok, row in zip(verdict(rows), rows)]
    if name == "linalg_eig_reconstruct":
        monkeypatch.setattr(suites, "_conditioned", rejecting(suites._conditioned))
    elif name == "lie_centralizer_dimension":
        monkeypatch.setattr(suites, "_separated", rejecting(suites._separated))
    elif name == "lie_group_scalar_quotient":
        monkeypatch.setattr(suites, "_away_from_zero", rejecting(suites._away_from_zero))
    else:
        _reject_by_value(monkeypatch, lambda row: row.tobytes() in targets)


def _inject_failures(monkeypatch, targets):
    """Both eigensolvers fail with NoConvergence("injected") on the
    matrices whose bytes are in ``targets``."""
    for solver in ("eig", "eigvals"):
        @stacked(2)
        def failing(a, solve=getattr(linalg, solver)):
            result, errors = solve(a)
            return result, [NoConvergence("injected") if ak.tobytes() in targets else exc
                            for ak, exc in zip(np.asarray(a, dtype=complex), errors)]
        monkeypatch.setattr(linalg, solver, failing)


@pytest.mark.parametrize("n", range(2, 9))
def test_judged_draws_equal_draws_made_one_at_a_time(n):
    chev = build_chevalley(n)
    for name, (draw, _) in JUDGED.items():
        for seed in (42, 1):
            columns, failure = _assert_same_judged(chev, name, seed, 25)
            assert failure is None and len(arrays(columns[0])[0]) == 25
            if name == "linalg_eig_reconstruct":  # the eigenpairs the check reads
                (values, vectors), errors = linalg.eig(columns[0])
                assert errors == [None] * 25
                assert _same_bits(values, columns[1]) and _same_bits(vectors, columns[2])
        assert draw(chev, stream(1, "none"), 0) == ([], None)


@pytest.mark.parametrize("n", range(2, 9))
def test_judged_draws_replay_rejections_and_failures(monkeypatch, n):
    chev = build_chevalley(n)
    for name, (_, draw) in JUDGED.items():
        columns, _ = one_by_one(draw)(chev, stream(n, name), 7)
        if name == "toda_domain_fraction":  # the candidates its verdicts read
            rng = stream(n, name)
            columns = [stack([random_toda_point(chev, rng) for _ in range(7)])]
        for k in (0, 3, 6):  # the first, a middle and the last sample
            target = _judged_bytes(chev, name, columns, k)
            with monkeypatch.context() as patch:
                _force_rejections(patch, name, {target})
                drawn, failure = _assert_same_judged(chev, name, n, 7)
            assert failure is None, (name, k)
            if name == "toda_domain_fraction":  # a rejection is a verdict
                assert drawn[0][k] is False
            else:
                assert _judged_bytes(chev, name, drawn, k) != target, (name, k)
            if name == "lie_group_scalar_quotient":
                continue  # no eigensolver runs in its draw
            with monkeypatch.context() as patch:
                _inject_failures(patch, {_judged_matrix(chev, name, columns, k).tobytes()})
                drawn, failure = _assert_same_judged(chev, name, n, 7)
            assert str(failure) == "injected" and (k == 0) == (drawn == []), (name, k)
            assert k == 0 or len(arrays(drawn[0])[0]) == k


@pytest.mark.parametrize("n", range(2, 9))
def test_zero_samples_draw_nothing(n):
    # every sampled check, and the injectivity check that draws its points
    # through the flow-domain draw, takes the empty draw and passes
    rows = {row.name: row for row in suites.run_all(n, 42, 0).checks}
    sampled = [name for name, check in suites.CHECKS.items() if check.draw is not None]
    for name in [*sampled, "toda_embed_injective"]:
        assert (rows[name].samples, rows[name].passed, rows[name].error) == (0, True, None), name
    assert all(row.passed and row.error is None for row in rows.values())


def test_section_scales_are_computed_once():
    for n in (2, 8):
        chev = build_chevalley(n)
        for scale in (1.0, 0.8):
            scales = sampling._section_scales(n, scale)
            assert scales is sampling._section_scales(n, scale) and not scales.flags.writeable
            assert scales.tolist() == [scale / max(1.0, linalg.norm(b))
                                       for b in chev.centralizer_eta]
