"""Named verification suites behind the ``check`` command.

A check has one of two shapes.  Most are *sampled*: a function
``(chev, rng, k) -> deviation`` that makes the draws and computations of
sample ``k`` and is registered with its pinned bound and the exception
types that count as a skipped sample.  The driver, :func:`run_check`, owns
everything around it: the loop over samples, the running maximum, the
sample and skip counts, the timing and the :class:`CheckResult`.  A few
checks are *plain*: a function ``(chev, rng, samples) -> (deviation, bound,
used)`` for structure constants, rank-dependent cases and checks over the
whole sample set at once.

Any other exception that escapes a check fails it with an infinite
deviation, and the result names the exception, keeps the declared bound (a
plain check declares none and reads 0.0) and counts the samples finished
before it.  Each check draws from its own named random stream and the
checks run one after another in registry order, so reports are
deterministic for a fixed configuration.  No tolerance or bound can be set
from outside.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .centralizer import (
    CJLPoint,
    ZPoint,
    chart_pushforward_lambda,
    chart_pushforward_section,
    cjl_chart,
    cjl_pullback_deviation,
    cjl_pullback_tolerance,
    flow_step,
    hamiltonian_field,
    moment_preimage_report,
    stabilizer_residual,
    symplectic_form,
    z_invariants,
)
from .errors import NotInGStar, SingularMinor
from .invariants import (
    invariant_gradient,
    invariant_gradients,
    invariant_vector,
    section_from_invariants,
)
from .kostant_maps import (
    chamber_conjugator,
    chamber_form,
    chamber_to_section_conjugator,
    conjugate_section,
    decompose_to_section,
    dress,
    gstar_factor,
    longest_weyl_lift,
    section_form,
    stabilizer_lift,
)
from .lie_core import (
    adjoint,
    bracket,
    build_chevalley,
    centralizer_basis,
    group_equal,
    pairing,
    scalar_aligned_distance,
)
from .report import CheckResult, Report
from .sampling import (
    complex_uniform,
    domain_fraction,
    random_cjl_point,
    random_group_element,
    random_section_point,
    random_stabilizer_element,
    random_traceless,
    sample_flow_domain,
    stream,
)
from .toda import (
    embed,
    embed_inverse,
    intertwine_check,
    intertwine_infinitesimal,
    make_toda_point,
    rk4_toda,
    toda_flow,
    toda_matrix,
)


@dataclass(frozen=True)
class Tolerances:
    """Empty stand-in for the ignored fifth argument of :func:`run_check`.

    Every tolerance is pinned where it is applied.  The class exists only
    because the benchmark in ``perfbench/`` still passes ``Tolerances()``.
    """


@dataclass(frozen=True)
class Check:
    """A registered check: its function, declared bound and skip exceptions."""

    fn: object
    bound: object  # a float, a function of n, or None for a plain check
    skips: tuple


CHECKS = {}


def _register(name, bound=None, skips=()):
    """Register a sampled check with its ``bound`` and skip exceptions, or,
    without a bound, a plain check."""
    def deco(fn):
        CHECKS[name] = Check(fn, bound, skips)
        return fn
    return deco


class SmallRootCoordinate(Exception):
    """A dressed point with a root coordinate below 1e-6 in modulus, too
    close to the wall for the lift to be compared: the sample is skipped."""


def _rel(a, b) -> float:
    return linalg.norm(a - b) / (1.0 + linalg.norm(b))


def _random_regular(chev, rng):
    """Random traceless matrix with well-separated eigenvalues."""
    while True:
        x = random_traceless(chev, rng)
        values, _ = linalg.eig(x)
        diffs = [abs(a - b) for a, b in itertools.combinations(values, 2)]
        if min(diffs) > 1e-2:
            return x


# ----------------------------- linalg ---------------------------------- #

@_register("linalg_eig_reconstruct", 1e-9)
def _check_eig_reconstruct(chev, rng, k):
    while True:
        a = complex_uniform(rng, (chev.n, chev.n))
        values, vectors = linalg.eig(a)
        if np.linalg.cond(vectors) < 1e6:
            break
    recon = vectors @ np.diag(values) @ linalg.inv(vectors)
    return linalg.norm(recon - a) / linalg.norm(a)


@_register("linalg_exp_inverse", 1e-12)
def _check_exp_inverse(chev, rng, k):
    a = random_traceless(chev, rng)
    a *= rng.uniform(0.0, 5.0) / max(linalg.norm(a), 1e-12)
    return linalg.norm(linalg.mat_exp(a) @ linalg.mat_exp(-a) - np.eye(chev.n))


@_register("linalg_exp_taylor_oracle", linalg.TOL_EXP)
def _check_exp_taylor(chev, rng, k):
    # Independent oracle for the exponential contract: for small arguments
    # the truncated series is accurate to machine precision.
    a = random_traceless(chev, rng)
    a *= 0.5 / max(linalg.norm(a), 1e-12)
    series = np.eye(chev.n, dtype=complex)
    term = np.eye(chev.n, dtype=complex)
    for j in range(1, 26):
        term = term @ a / j
        series = series + term
    out = linalg.mat_exp(a)
    return linalg.norm(out - series) / linalg.norm(out)


@_register("linalg_exp_commuting", 1e-10)
def _check_exp_commuting(chev, rng, k):
    a = random_traceless(chev, rng)
    a /= max(linalg.norm(a), 1e-12)
    p = a + 0.3 * (a @ a)
    q = 0.5 * a - 0.2 * (a @ a)
    assert linalg.norm(bracket(p, q)) < 1e-13 * (1 + linalg.norm(p) * linalg.norm(q))
    return _rel(linalg.mat_exp(p + q), linalg.mat_exp(p) @ linalg.mat_exp(q))


@_register("linalg_ldu_roundtrip", 1e-12, skips=(SingularMinor,))
def _check_ldu_roundtrip(chev, rng, k):
    a = complex_uniform(rng, (chev.n, chev.n))
    lower, diag, upper = linalg.gauss_ldu(a)
    return linalg.norm(lower @ diag @ upper - a) / linalg.norm(a)


# ----------------------------- lie core -------------------------------- #

@_register("lie_sl2_triple")
def _check_sl2_triple(chev, rng, samples):
    dev = max(linalg.norm(bracket(chev.h, chev.xi) - 2 * chev.xi),
              linalg.norm(bracket(chev.h, chev.eta) + 2 * chev.eta),
              linalg.norm(bracket(chev.xi, chev.eta) - chev.h))
    for i in range(chev.r):
        alpha_h = chev.h[i, i] - chev.h[i + 1, i + 1]
        dev = max(dev, abs(alpha_h + 2.0))
        dev = max(dev, abs(pairing(chev.e_plus[i], chev.e_minus[i]) - 1.0))
    return dev, 1e-14, 1


@_register("lie_centralizer_dimension", 0.5)
def _check_centralizer_dimension(chev, rng, k):
    # Deviation is the number of the sample's two points whose centralizer
    # does not have dimension r.
    x = _random_regular(chev, rng)
    bad = len(centralizer_basis(chev, x)) != chev.r
    s = random_section_point(chev, rng)
    return float(bad + (len(centralizer_basis(chev, s)) != chev.r))


@_register("lie_pairing_ad_invariance", 1e-10)
def _check_pairing_invariance(chev, rng, k):
    x = random_traceless(chev, rng)
    y = random_traceless(chev, rng)
    g = random_group_element(chev, rng)
    base = pairing(x, y)
    moved = pairing(adjoint(g, x), adjoint(g, y))
    return abs(moved - base) / (1.0 + abs(base))


@_register("lie_torus_gram_nondegenerate")
def _check_torus_gram(chev, rng, samples):
    diag_basis = [b for b in chev.basis if linalg.norm(b - np.diag(np.diag(b))) == 0.0]
    gram = np.array([[pairing(a, b) for b in diag_basis] for a in diag_basis])
    det = abs(np.linalg.det(gram))
    return (0.0 if det > 1e-8 else 1.0), 0.5, 1


@_register("lie_group_scalar_quotient", 1e-12)
def _check_scalar_quotient(chev, rng, k):
    g = random_group_element(chev, rng)
    x = random_traceless(chev, rng)
    scalar = complex_uniform(rng, ())
    while abs(scalar) < 0.1:
        scalar = complex_uniform(rng, ())
    equal = group_equal(g, scalar * g) and group_equal(scalar * g, g)
    return max(_rel(adjoint(scalar * g, x), adjoint(g, x)), 0.0 if equal else 1.0)


# ----------------------------- invariants ------------------------------ #

@_register("inv_conjugation_invariance", 1e-9)
def _check_inv_invariance(chev, rng, k):
    x = random_traceless(chev, rng)
    g = random_group_element(chev, rng)
    base = invariant_vector(chev, x)
    moved = invariant_vector(chev, adjoint(g, x))
    return float(np.linalg.norm(moved - base)) / (1.0 + float(np.linalg.norm(base)))


@_register("inv_gradient_centralizes", 1e-12)
def _check_gradient_centralizes(chev, rng, k):
    x = random_traceless(chev, rng)
    size = max(linalg.norm(x), 1e-12)
    return max(linalg.norm(bracket(x, invariant_gradient(chev, x, i))) / size ** i
               for i in range(1, chev.r + 1))


@_register("inv_gradient_equivariance", 1e-9)
def _check_gradient_equivariance(chev, rng, k):
    x = random_traceless(chev, rng)
    g = random_group_element(chev, rng)
    y = adjoint(g, x)
    return max(_rel(adjoint(g, invariant_gradient(chev, x, i)), invariant_gradient(chev, y, i))
               for i in range(1, chev.r + 1))


@_register("inv_gradient_independent_on_section", 0.5)
def _check_gradient_independence(chev, rng, k):
    # Deviation is 1 when the gradients are dependent at the sample, else 0.
    s = random_section_point(chev, rng)
    grads = invariant_gradients(chev, s)
    gram = np.array([[pairing(a, b) for b in grads] for a in grads])
    scale = np.prod([max(linalg.norm(g), 1e-12) for g in grads])
    return float(abs(np.linalg.det(gram)) <= 1e-10 * scale)


@_register("inv_section_roundtrip", 1e-10)
def _check_section_roundtrip(chev, rng, k):
    z = complex_uniform(rng, (chev.r,), scale=1.5)
    x = section_from_invariants(chev, z)
    dev = float(np.linalg.norm(invariant_vector(chev, x) - z))
    return dev / (1.0 + float(np.linalg.norm(z)))


@_register("inv_gradient_fd", 1e-6)
def _check_gradient_fd(chev, rng, k):
    h = 1e-6
    x = random_traceless(chev, rng)
    z = random_traceless(chev, rng)
    f_p = invariant_vector(chev, x + h * z)
    f_m = invariant_vector(chev, x - h * z)
    return max(abs((f_p[i - 1] - f_m[i - 1]) / (2.0 * h)
                   - pairing(invariant_gradient(chev, x, i), z))
               for i in range(1, chev.r + 1))


# ----------------------------- kostant maps ---------------------------- #

@_register("kostant_longest_weyl_ad")
def _check_longest_weyl(chev, rng, samples):
    w0 = longest_weyl_lift(chev)
    dev = 0.0
    for i in range(chev.r):
        lhs = adjoint(w0, chev.e_plus[i])
        rhs = chev.e_minus[chev.r - 1 - i]
        dev = max(dev, linalg.norm(lhs - rhs))
    return dev, 1e-14, 1


def _random_xi_plus_b(chev, rng):
    upper = np.triu(complex_uniform(rng, (chev.n, chev.n)))
    upper -= (np.trace(upper) / chev.n) * np.eye(chev.n)
    return chev.xi + upper


def _random_unitriangular(chev, rng, scale=0.8):
    return np.eye(chev.n) + np.triu(complex_uniform(rng, (chev.n, chev.n), scale=scale), 1)


@_register("kostant_section_decomposition_roundtrip", 1e-10)
def _check_decomposition_roundtrip(chev, rng, k):
    z = _random_xi_plus_b(chev, rng)
    dec = decompose_to_section(chev, z)
    u = _random_unitriangular(chev, rng)
    s = random_section_point(chev, rng)
    dec2 = decompose_to_section(chev, conjugate_section(chev, u, s))
    return max(_rel(adjoint(dec.u, dec.s), z), _rel(dec2.u, u), _rel(dec2.s, s))


@_register("kostant_chamber_form", 1e-9)
def _check_chamber_form(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    form = chamber_form(chev, x)
    return max(float(np.linalg.norm(invariant_vector(chev, form) - invariant_vector(chev, x))),
               _rel(chamber_form(chev, form), form))


@_register("kostant_chamber_conjugator", 1e-9)
def _check_chamber_conjugator(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    return _rel(adjoint(chamber_conjugator(chev, x), chamber_form(chev, x)), x)


@_register("kostant_section_chamber_conjugator", 1e-9)
def _check_section_chamber_conjugator(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    conj = chamber_to_section_conjugator(chev, x)
    return _rel(adjoint(conj, chamber_form(chev, x)), section_form(chev, x))


@_register("kostant_stabilizer_lift", 1e-9)
def _check_stabilizer_lift(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    theta_x = chamber_form(chev, x)
    lift = stabilizer_lift(chev, x)
    return max(_rel(adjoint(lift, theta_x), theta_x), _rel(dress(chev, theta_x, lift), x))


@_register("kostant_lift_of_dressed_point", 1e-8, skips=(NotInGStar, SmallRootCoordinate))
def _check_lift_of_dressed(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    theta_x = chamber_form(chev, x)
    g = random_stabilizer_element(chev, rng, theta_x)
    y = dress(chev, theta_x, g)
    if np.min(np.abs(np.diagonal(y, 1))) < 1e-6:
        raise SmallRootCoordinate
    return scalar_aligned_distance(stabilizer_lift(chev, y), g)


@_register("kostant_open_stabilizer_conjugation", 1e-9, skips=(NotInGStar,))
def _check_open_stabilizer(chev, rng, k):
    x = toda_matrix(chev, sample_flow_domain(chev, rng))
    theta_x = chamber_form(chev, x)
    beta_x = section_form(chev, x)
    conj = chamber_to_section_conjugator(chev, x)
    conj_inv = linalg.inv(conj)
    g = random_stabilizer_element(chev, rng, theta_x)
    h = random_stabilizer_element(chev, rng, beta_x)
    moved_g = conj @ g @ conj_inv
    moved_h = conj_inv @ h @ conj
    for m in (g, h, moved_g, moved_h):
        gstar_factor(chev, m)  # the conjugation is tested on the big cell only
    return max(stabilizer_residual(moved_g, beta_x), stabilizer_residual(moved_h, theta_x))


@_register("kostant_gstar_refactor", 1e-10)
def _check_gstar_refactor(chev, rng, k):
    u_minus = _random_unitriangular(chev, rng).T.copy()
    u = _random_unitriangular(chev, rng)
    t_diag = complex_uniform(rng, (chev.n,))
    t_diag += np.sign(t_diag.real + 1e-12) * 0.5  # keep away from zero
    torus = np.diag(t_diag)
    factors = gstar_factor(chev, longest_weyl_lift(chev) @ u_minus @ torus @ u)
    return max(_rel(factors.u_minus, u_minus), _rel(factors.u, u),
               scalar_aligned_distance(factors.torus, torus))


# ----------------------------- centralizer ----------------------------- #

def _random_z_point(chev, rng) -> ZPoint:
    x = random_section_point(chev, rng)
    return ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)


def _chart_directions(chev, c):
    """Pushforwards of the r flow and the r section directions at ``c``."""
    return ([chart_pushforward_lambda(chev, c, i) for i in range(1, chev.r + 1)]
            + [chart_pushforward_section(chev, c, j) for j in range(1, chev.r + 1)])


@_register("cent_flow_preserves_points", 1e-9)
def _check_flow_preserves(chev, rng, k):
    p = _random_z_point(chev, rng)
    i = int(rng.integers(1, chev.r + 1))
    t = complex_uniform(rng, ())
    moved = flow_step(chev, t, p, i)
    # the algebra part must be carried unchanged
    return max(stabilizer_residual(moved.g, moved.x), 0.0 if moved.x is p.x else 1.0)


@_register("cent_moment_preimage")
def _check_moment_preimage(chev, rng, samples):
    points = []
    for _ in range(samples):
        p = _random_z_point(chev, rng)
        points.append((p.g, p.x))
        points.append((random_group_element(chev, rng), p.x))
    report = moment_preimage_report(chev, points, tol=1e-9)
    dev = float(report.mismatches) + report.max_member_residual
    return dev, 1e-9 + 0.5, len(points)


@_register("cent_invariants_group_independent", 1e-15)
def _check_invariants_group_independent(chev, rng, k):
    x = random_section_point(chev, rng)
    p1 = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
    p2 = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
    return float(np.linalg.norm(z_invariants(chev, p1) - z_invariants(chev, p2)))


@_register("cent_hamiltonian_isotropy", 1e-10)
def _check_ham_isotropy(chev, rng, k):
    p = _random_z_point(chev, rng)
    fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
    return max(abs(symplectic_form(chev, p.x, vi, vj)) for vi in fields for vj in fields)


@_register("cent_hamiltonian_duality_fd", 1e-6)
def _check_ham_duality(chev, rng, k):
    c = random_cjl_point(chev, rng)
    p = cjl_chart(chev, c)
    dirs = _chart_directions(chev, c)
    pairs = [(hamiltonian_field(chev, p, i), invariant_gradient(chev, p.x, i))
             for i in range(1, chev.r + 1)]
    return max(abs(symplectic_form(chev, p.x, ham, v) - pairing(grad, v.z))
               for ham, grad in pairs for v in dirs)


@_register("cent_cjl_surjectivity", 1e-8)
def _check_cjl_surjectivity(chev, rng, k):
    x = random_section_point(chev, rng)
    grads = invariant_gradients(chev, x)
    coeffs = np.array([complex_uniform(rng, ()) * (0.5 / max(1.0, linalg.norm(g)))
                       for g in grads])
    y = sum(ci * gi for ci, gi in zip(coeffs, grads))
    basis = np.stack([gi.ravel() for gi in grads], axis=1)
    recovered, *_ = np.linalg.lstsq(basis, y.ravel(), rcond=None)
    rebuilt = cjl_chart(chev, CJLPoint(lam=recovered, s=x))
    return scalar_aligned_distance(rebuilt.g, linalg.mat_exp(y))


@_register("cent_cjl_chart_rank", 0.5)
def _check_cjl_rank(chev, rng, k):
    # Deviation is 1 when the chart Jacobian is rank-deficient, else 0.
    dirs = _chart_directions(chev, random_cjl_point(chev, rng))
    jac = np.stack([np.concatenate([v.y.ravel(), v.z.ravel()]) for v in dirs], axis=1)
    sigma = np.linalg.svd(jac, compute_uv=False)
    return float(sigma[-1] <= 1e-6 * sigma[0])


@_register("cent_flow_group_law", 1e-10)
def _check_flow_group_law(chev, rng, k):
    p = _random_z_point(chev, rng)
    i = int(rng.integers(1, chev.r + 1))
    t = complex_uniform(rng, (), scale=0.7)
    s = complex_uniform(rng, (), scale=0.7)
    lhs = flow_step(chev, t, flow_step(chev, s, p, i), i)
    return _rel(lhs.g, flow_step(chev, t + s, p, i).g)


@_register("cent_cjl_factor_order", 1e-10)
def _check_cjl_factor_order(chev, rng, k):
    c = random_cjl_point(chev, rng)
    base = cjl_chart(chev, c)
    p = ZPoint(g=np.eye(chev.n, dtype=complex), x=np.asarray(c.s))
    for idx in rng.permutation(chev.r):
        p = flow_step(chev, c.lam[idx], p, int(idx) + 1)
    return _rel(p.g, base.g)


@_register("cent_cjl_pullback", cjl_pullback_tolerance)
def _check_cjl_pullback(chev, rng, k):
    return cjl_pullback_deviation(chev, random_cjl_point(chev, rng)).max_deviation


# ----------------------------- toda ------------------------------------ #

@_register("toda_conservation", 1e-8)
def _check_toda_conservation(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    x0 = toda_matrix(chev, p)
    base = invariant_vector(chev, x0)
    eig0 = np.sort_complex(linalg.eig(x0)[0])
    worst = 0.0
    for i in range(1, chev.r + 1):
        for t in (0.1, 0.7):
            xt = toda_matrix(chev, toda_flow(chev, i, t, p))
            dev_f = float(np.linalg.norm(invariant_vector(chev, xt) - base))
            eig_t = np.sort_complex(linalg.eig(xt)[0])
            worst = max(worst, dev_f / (1.0 + float(np.linalg.norm(base))),
                        float(np.max(np.abs(eig_t - eig0))))
    return worst


@_register("toda_flow_semigroup", 1e-8)
def _check_toda_semigroup(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    i = int(rng.integers(1, chev.r + 1))
    t = complex_uniform(rng, (), scale=0.5).real
    s = complex_uniform(rng, (), scale=0.5).real
    lhs = toda_matrix(chev, toda_flow(chev, i, s, toda_flow(chev, i, t, p)))
    return _rel(lhs, toda_matrix(chev, toda_flow(chev, i, t + s, p)))


@_register("toda_normal_forms_constant", 1e-7)
def _check_normal_forms_constant(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    i = int(rng.integers(1, chev.r + 1))
    x0 = toda_matrix(chev, p)
    x1 = toda_matrix(chev, toda_flow(chev, i, 0.5, p))
    return max(_rel(fn(chev, x1), fn(chev, x0))
               for fn in (chamber_form, section_form, chamber_to_section_conjugator))


@_register("toda_embed_triangle", 1e-9)
def _check_embed_triangle(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    zp = embed(chev, p)
    base = invariant_vector(chev, toda_matrix(chev, p))
    dev = float(np.linalg.norm(z_invariants(chev, zp) - base))
    gstar_factor(chev, zp.g)  # image membership
    return dev / (1.0 + float(np.linalg.norm(base)))


@_register("toda_embed_injective")
def _check_embed_injective(chev, rng, samples):
    points = [sample_flow_domain(chev, rng) for _ in range(samples)]
    images = [embed(chev, p) for p in points]
    bad = 0
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            input_gap = linalg.norm(toda_matrix(chev, points[a]) - toda_matrix(chev, points[b]))
            if input_gap < 1e-6:
                continue
            image_gap = max(scalar_aligned_distance(images[a].g, images[b].g),
                            _rel(images[a].x, images[b].x))
            bad += image_gap < 1e-10
    return float(bad), 0.5, samples


@_register("toda_embed_roundtrip", 1e-8)
def _check_embed_roundtrip(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    zp = embed(chev, p)
    back = embed_inverse(chev, zp)
    again = embed(chev, back)
    return max(_rel(toda_matrix(chev, back), toda_matrix(chev, p)),
               scalar_aligned_distance(again.g, zp.g), _rel(again.x, zp.x))


# NotInGStar is a complex-time blow-up: both sides are undefined together.
@_register("toda_intertwine_flow", 1e-7, skips=(NotInGStar,))
def _check_intertwine_flow(chev, rng, k):
    p = sample_flow_domain(chev, rng)
    return intertwine_check(chev, 1 + k % chev.r, (0.4, -0.8, 0.3 + 0.2j)[k % 3], p)


@_register("toda_intertwine_infinitesimal", 1e-5)
def _check_intertwine_infinitesimal(chev, rng, k):
    return intertwine_infinitesimal(chev, 1 + k % chev.r, sample_flow_domain(chev, rng))


@_register("toda_domain_fraction")
def _check_domain_fraction(chev, rng, samples):
    # Deviation is 1 - fraction: the check records the sampled density of
    # the flow domain and fails only if no sample lands inside.
    frac = domain_fraction(chev, rng, max(samples, 20))
    return 1.0 - frac, 1.0 - 1e-12, max(samples, 20)


@_register("toda_rk4_cross_check")
def _check_rk4(chev, rng, samples):
    if chev.n != 2:
        return 0.0, 1e-5, 0  # golden initial point is rank-1 specific
    golden = make_toda_point([0.0, 0.0], [1.0])
    direct = toda_matrix(chev, toda_flow(chev, 1, 1.0, golden))
    integrated = toda_matrix(chev, rk4_toda(chev, 1, golden, 1.0, step=5e-3))
    return _rel(integrated, direct), 1e-5, 1


# ----------------------------- driver ----------------------------------- #

def run_check(name: str, n: int, seed: int, samples: int,
              tols: Tolerances | None = None) -> CheckResult:
    """Run one named check; ``tols`` is accepted and ignored."""
    check = CHECKS[name]
    chev = build_chevalley(n)
    rng = stream(seed, name)
    bound = check.bound(n) if callable(check.bound) else check.bound
    worst, used, skipped, error = 0.0, 0, Counter(), None
    start = time.perf_counter()
    try:
        if bound is None:
            worst, bound, used = check.fn(chev, rng, samples)
        else:
            for k in range(samples):
                try:
                    dev = check.fn(chev, rng, k)
                except check.skips as exc:
                    skipped[type(exc).__name__] += 1
                    continue
                worst = max(worst, dev)
                used += 1
    except Exception as exc:  # a structural error inside a check is a failure, not a crash
        worst = float("inf")
        error = type(exc).__name__ + (f": {exc}" if str(exc) else "")
    elapsed = time.perf_counter() - start
    bound = 0.0 if bound is None else float(bound)
    return CheckResult(name=name, max_deviation=float(worst), tolerance=bound,
                       passed=bool(worst <= bound), samples=int(used),
                       skipped=dict(sorted(skipped.items())), error=error,
                       seconds=elapsed)


def run_all(n: int, seed: int, samples: int) -> Report:
    """Run every registered check, one after another, in registry order."""
    results = [run_check(name, n, seed, samples) for name in CHECKS]
    return Report(config={"n": n, "seed": seed, "samples": samples},
                  checks=tuple(results))
