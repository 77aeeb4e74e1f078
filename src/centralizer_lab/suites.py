"""Named verification suites behind the ``check`` command.

A check has one of two shapes.  Most are *sampled*, registered with their
pinned bound and the exception types that count as a skipped sample.  A
per-point sampled check is a function ``(chev, rng, k) -> deviation`` that
makes the draws and computations of sample ``k``.  A *stacked* one is
registered with a ``draw(chev, rng, k)`` that makes the draws of sample
``k``; its function takes the list of all draws and returns
``(deviations, errors)`` from one pass over the stack (see
:mod:`stacks`): per sample a deviation, or the exception the sample
raised.  The draws still run one at a time in sample order on the
check's own stream, and none depends on a computed value (a random
stabilizer element is drawn as its raw coefficients and built in the
stacked pass), so the draw order is that of a per-point check and
``run_check(name, n, seed, k + 1)`` replays sample ``k``.  A few checks
are *plain*: a function ``(chev, rng, samples) -> (deviation, bound,
used)`` for structure constants, rank-dependent cases and checks over the
whole sample set at once.

Stacked are the checks on Toda and section points: every sampled
``toda_*`` check, the ``kostant_*`` normal-form, lift and dressing checks
(all but ``kostant_gstar_refactor``), and ``cent_flow_preserves_points``,
``cent_invariants_group_independent``, ``cent_hamiltonian_isotropy`` and
``cent_flow_group_law``.  The other sampled checks stay per point: the
``linalg_*``, ``lie_*`` and ``inv_*`` checks and
``kostant_gstar_refactor`` make one or two small kernel calls per sample,
and the chart checks (``cent_cjl_*``, ``cent_hamiltonian_duality_fd``)
would need a stacked ``cjl_chart`` and ``chart_directions``, which would
put the ``m = 1`` bookkeeping of :func:`stacks.stacked` on every
per-point chart evaluation of the ``cjl`` command.

The driver, :func:`run_check`, owns everything around a sampled check: it
folds one ordered list of per-sample outcomes, a deviation or an
exception, for both kinds into the running maximum, the sample and skip
counts, and the first exception that is not a skip.  A draw that raises
ends the list with its exception.  Such an exception, or any other that
escapes a check, fails it with an infinite deviation, and the result
names the exception, keeps the declared bound (a plain check declares
none and reads 0.0) and counts the samples finished before it.  Each
check draws from its own named random stream and the checks run one
after another in registry order, so reports are deterministic for a
fixed configuration.  No tolerance or bound can be set from outside.
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
    Tangent,
    ZPoint,
    chart_directions,
    cjl_chart,
    cjl_pullback_deviation,
    cjl_pullback_tolerance,
    flow_step,
    hamiltonian_field,
    moment_preimage_report,
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
    unipotent_conjugator,
)
from .lie_core import (
    adjoint,
    bracket,
    build_chevalley,
    centralizer_basis,
    group_equal,
    pairing,
    scalar_aligned_distance,
    stabilizer_residual,
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
    stabilizer_coefficients,
    stabilizer_elements,
    stream,
)
from .stacks import arrays, first_errors, stack
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
    """A registered check: its function, declared bound and skip
    exceptions, and for a stacked check the draw of one sample."""

    fn: object
    bound: object  # a float, a function of n, or None for a plain check
    skips: tuple
    draw: object


CHECKS = {}


def _register(name, bound=None, skips=(), draw=None):
    """Register a sampled check with its ``bound`` and skip exceptions, or,
    without a bound, a plain check.  With ``draw``, the check is stacked:
    ``draw(chev, rng, k)`` makes the draws of sample k and the function
    evaluates the list of all draws at once."""
    def deco(fn):
        CHECKS[name] = Check(fn, bound, skips, draw)
        return fn
    return deco


class SmallRootCoordinate(Exception):
    """A dressed point with a root coordinate below 1e-6 in modulus, too
    close to the wall for the lift to be compared: the sample is skipped."""


def _rel(a, b):
    """||a - b|| / (1 + ||b||), one value per matrix for stacks."""
    return np.divide(linalg.norm(a - b), np.add(1.0, linalg.norm(b)))


def _random_regular(chev, rng):
    """Random traceless matrix with well-separated eigenvalues."""
    while True:
        x = random_traceless(chev, rng)
        values, _ = linalg.eig(x)
        diffs = [abs(a - b) for a, b in itertools.combinations(values, 2)]
        if min(diffs) > 1e-2:
            return x


def _flow_point(chev, rng, k):
    return sample_flow_domain(chev, rng)


def _flow_point_and_label(chev, rng, k):
    return sample_flow_domain(chev, rng), int(rng.integers(1, chev.r + 1))


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
    # On the simple coroots the Gram matrix is the Cartan matrix, det = n.
    coroots = [bracket(e, f) for e, f in zip(chev.e_plus, chev.e_minus)]
    gram = np.array([[pairing(a, b) for b in coroots] for a in coroots])
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


def _random_unitriangular(chev, rng):
    return np.eye(chev.n) + np.triu(complex_uniform(rng, (chev.n, chev.n), scale=0.8), 1)


def _draw_decomposition(chev, rng, k):
    return (_random_xi_plus_b(chev, rng), _random_unitriangular(chev, rng),
            random_section_point(chev, rng))


@_register("kostant_section_decomposition_roundtrip", 1e-10, draw=_draw_decomposition)
def _check_decomposition_roundtrip(chev, drawn):
    z, u, s = map(np.array, zip(*drawn))
    dec, errors = decompose_to_section(chev, z)
    moved, moved_errors = conjugate_section(chev, u, s)
    dec2, errors2 = decompose_to_section(chev, moved)
    return np.array([max(a, b, c) for a, b, c in zip(
        _rel(adjoint(dec.u, dec.s), z), _rel(dec2.u, u), _rel(dec2.s, s))]), first_errors(
        errors, moved_errors, errors2)


@_register("kostant_chamber_form", 1e-9, draw=_flow_point)
def _check_chamber_form(chev, points):
    x = toda_matrix(chev, stack(points))
    form, errors = chamber_form(chev, x)
    dev = linalg.vector_norm(invariant_vector(chev, form) - invariant_vector(chev, x))
    again, errors2 = chamber_form(chev, form)
    return (np.array([max(a, b) for a, b in zip(dev, _rel(again, form))]),
            first_errors(errors, errors2))


@_register("kostant_chamber_conjugator", 1e-9, draw=_flow_point)
def _check_chamber_conjugator(chev, points):
    x = toda_matrix(chev, stack(points))
    conj, errors = chamber_conjugator(chev, x)
    theta_x, errors2 = chamber_form(chev, x)
    return _rel(adjoint(conj, theta_x), x), first_errors(errors, errors2)


@_register("kostant_section_chamber_conjugator", 1e-9, draw=_flow_point)
def _check_section_chamber_conjugator(chev, points):
    x = toda_matrix(chev, stack(points))
    conj, errors = chamber_to_section_conjugator(chev, x)
    theta_x, errors2 = chamber_form(chev, x)
    beta_x, errors3 = section_form(chev, x)
    return _rel(adjoint(conj, theta_x), beta_x), first_errors(errors, errors2, errors3)


@_register("kostant_stabilizer_lift", 1e-9, draw=_flow_point)
def _check_stabilizer_lift(chev, points):
    x = toda_matrix(chev, stack(points))
    theta_x, errors = chamber_form(chev, x)
    lift, errors2 = stabilizer_lift(chev, x)
    dressed, errors3 = dress(chev, theta_x, lift)
    return np.array([max(a, b) for a, b in zip(
        stabilizer_residual(lift, theta_x), _rel(dressed, x))]), first_errors(
        errors, errors2, errors3)


def _draw_dressing(chev, rng, k):
    return sample_flow_domain(chev, rng), stabilizer_coefficients(chev, rng)


@_register("kostant_lift_of_dressed_point", 1e-8, skips=(NotInGStar, SmallRootCoordinate),
           draw=_draw_dressing)
def _check_lift_of_dressed(chev, drawn):
    points, coeffs = zip(*drawn)
    theta_x, errors = chamber_form(chev, toda_matrix(chev, stack(points)))
    g = stabilizer_elements(chev, theta_x, np.array(coeffs))
    y, errors2 = dress(chev, theta_x, g)
    walls = (np.abs(np.diagonal(y, 1, -2, -1)).min(axis=-1) < 1e-6).tolist()
    lift, errors3 = stabilizer_lift(chev, y)
    return np.array([scalar_aligned_distance(a, b) for a, b in zip(lift, g)]), first_errors(
        errors, errors2, [SmallRootCoordinate() if wall else None for wall in walls], errors3)


def _draw_open_stabilizer(chev, rng, k):
    return (sample_flow_domain(chev, rng), stabilizer_coefficients(chev, rng),
            stabilizer_coefficients(chev, rng))


@_register("kostant_open_stabilizer_conjugation", 1e-9, skips=(NotInGStar,),
           draw=_draw_open_stabilizer)
def _check_open_stabilizer(chev, drawn):
    points, g_coeffs, h_coeffs = zip(*drawn)
    x = toda_matrix(chev, stack(points))
    theta_x, errors = chamber_form(chev, x)
    beta_x, errors2 = section_form(chev, x)
    conj = unipotent_conjugator(beta_x, theta_x)
    conj_inv = linalg.inv(conj)
    g = stabilizer_elements(chev, theta_x, np.array(g_coeffs))
    h = stabilizer_elements(chev, beta_x, np.array(h_coeffs))
    moved_g, moved_h = conj @ g @ conj_inv, conj_inv @ h @ conj
    # the conjugation is tested on the big cell only
    errors = first_errors(errors, errors2, *(gstar_factor(chev, element)[1]
                                             for element in (g, h, moved_g, moved_h)))
    return np.array([max(a, b) for a, b in zip(
        stabilizer_residual(moved_g, beta_x), stabilizer_residual(moved_h, theta_x))]), errors


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

def _draw_z_point(chev, rng, k):
    return random_section_point(chev, rng), stabilizer_coefficients(chev, rng)


def _z_points(chev, sections, coeffs) -> ZPoint:
    """The stacked centralizer points of the drawn section points and
    stabilizer coefficients."""
    x = np.stack(sections)
    return ZPoint(g=stabilizer_elements(chev, x, np.array(coeffs)), x=x)


def _draw_z_flow(chev, rng, k):
    return (*_draw_z_point(chev, rng, k), int(rng.integers(1, chev.r + 1)),
            complex_uniform(rng, ()))


@_register("cent_flow_preserves_points", 1e-9, draw=_draw_z_flow)
def _check_flow_preserves(chev, drawn):
    sections, coeffs, labels, times = zip(*drawn)
    p = _z_points(chev, sections, coeffs)
    moved = flow_step(chev, times, p, np.array(labels))
    # the algebra part must be carried unchanged
    carried = 0.0 if moved.x is p.x else 1.0
    return (np.array([max(res, carried) for res in stabilizer_residual(moved.g, moved.x)]),
            [None] * len(drawn))


@_register("cent_moment_preimage")
def _check_moment_preimage(chev, rng, samples):
    points = []
    for _ in range(samples):
        x = random_section_point(chev, rng)
        points.append((random_stabilizer_element(chev, rng, x), x))
        points.append((random_group_element(chev, rng), x))
    report = moment_preimage_report(chev, points)
    dev = float(report.mismatches) + report.max_member_residual
    return dev, 1e-9 + 0.5, len(points)


def _draw_two_stabilizer_elements(chev, rng, k):
    return (random_section_point(chev, rng), stabilizer_coefficients(chev, rng),
            stabilizer_coefficients(chev, rng))


@_register("cent_invariants_group_independent", 1e-15, draw=_draw_two_stabilizer_elements)
def _check_invariants_group_independent(chev, drawn):
    sections, first, second = zip(*drawn)
    p1, p2 = _z_points(chev, sections, first), _z_points(chev, sections, second)
    values1, errors = z_invariants(chev, p1)
    values2, errors2 = z_invariants(chev, p2)
    return np.array(linalg.vector_norm(values1 - values2)), first_errors(errors, errors2)


@_register("cent_hamiltonian_isotropy", 1e-10, draw=_draw_z_point)
def _check_ham_isotropy(chev, drawn):
    p = _z_points(chev, *zip(*drawn))
    fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
    devs = []
    for k in range(len(drawn)):  # the Gram matrix is one point's einsum
        at_k = [Tangent(y=v.y[k], z=v.z[k]) for v in fields]
        devs.append(float(np.max(np.abs(symplectic_form(p.x[k], at_k, at_k)))))
    return np.array(devs), [None] * len(drawn)


@_register("cent_hamiltonian_duality_fd", 1e-6)
def _check_ham_duality(chev, rng, k):
    # Omega(H_i, (y, z)) = tr(grad_i z) + tr([s, grad_i] y), and grad_i
    # commutes with s, so every entry reduces to tr(grad_i z) up to rounding:
    # the row never reads a direction's y, and its flow half repeats
    # cent_hamiltonian_isotropy.
    c = random_cjl_point(chev, rng)
    p = cjl_chart(chev, c)
    dirs = chart_directions(chev, c)
    fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
    slopes = np.array([[pairing(ham.y, v.z) for v in dirs] for ham in fields])
    return float(np.max(np.abs(symplectic_form(p.x, fields, dirs) - slopes)))


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
    dirs = chart_directions(chev, random_cjl_point(chev, rng))
    jac = np.stack([np.concatenate([v.y.ravel(), v.z.ravel()]) for v in dirs], axis=1)
    sigma = np.linalg.svd(jac, compute_uv=False)
    return float(sigma[-1] <= 1e-6 * sigma[0])


def _draw_group_law(chev, rng, k):
    return (*_draw_z_point(chev, rng, k), int(rng.integers(1, chev.r + 1)),
            complex_uniform(rng, (), scale=0.7), complex_uniform(rng, (), scale=0.7))


@_register("cent_flow_group_law", 1e-10, draw=_draw_group_law)
def _check_flow_group_law(chev, drawn):
    sections, coeffs, labels, t, s = zip(*drawn)
    p, labels = _z_points(chev, sections, coeffs), np.array(labels)
    lhs = flow_step(chev, t, flow_step(chev, s, p, labels), labels)
    rhs = flow_step(chev, [a + b for a, b in zip(t, s)], p, labels)
    return _rel(lhs.g, rhs.g), [None] * len(drawn)


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

@_register("toda_conservation", 1e-8, draw=_flow_point)
def _check_toda_conservation(chev, points):
    p = stack(points)
    x0 = toda_matrix(chev, p)
    base = invariant_vector(chev, x0)
    (eig0, _), errors = linalg.eig(x0)
    eig0 = np.sort_complex(eig0)
    worst = [0.0] * len(eig0)
    for i in range(1, chev.r + 1):
        for t in (0.1, 0.7):
            q, flow_errors = toda_flow(chev, i, t, p)
            xt = toda_matrix(chev, q)
            dev_f = linalg.vector_norm(invariant_vector(chev, xt) - base)
            (eig_t, _), eig_errors = linalg.eig(xt)
            errors = first_errors(errors, flow_errors, eig_errors)
            dev_eig = np.max(np.abs(np.sort_complex(eig_t) - eig0), axis=-1)
            worst = [max(w, f / (1.0 + b), float(e)) for w, f, b, e in
                     zip(worst, dev_f, linalg.vector_norm(base), dev_eig)]
    return np.array(worst), errors


def _draw_semigroup(chev, rng, k):
    p, i = _flow_point_and_label(chev, rng, k)
    t = complex_uniform(rng, (), scale=0.5).real
    return p, i, t, complex_uniform(rng, (), scale=0.5).real


@_register("toda_flow_semigroup", 1e-8, draw=_draw_semigroup)
def _check_toda_semigroup(chev, drawn):
    points, labels, t, s = map(list, zip(*drawn))
    p, labels = stack(points), np.array(labels)
    mid, errors = toda_flow(chev, labels, t, p)
    lhs, errors2 = toda_flow(chev, labels, s, mid)
    rhs, errors3 = toda_flow(chev, labels, [a + b for a, b in zip(t, s)], p)
    return (_rel(toda_matrix(chev, lhs), toda_matrix(chev, rhs)),
            first_errors(errors, errors2, errors3))


@_register("toda_normal_forms_constant", 1e-7, draw=_flow_point_and_label)
def _check_normal_forms_constant(chev, drawn):
    points, labels = zip(*drawn)
    p = stack(points)
    q, errors = toda_flow(chev, np.array(labels), 0.5, p)
    x0, x1 = toda_matrix(chev, p), toda_matrix(chev, q)
    devs = []
    for fn in (chamber_form, section_form, chamber_to_section_conjugator):
        f1, errors1 = fn(chev, x1)
        f0, errors0 = fn(chev, x0)
        errors = first_errors(errors, errors1, errors0)
        devs.append(_rel(f1, f0))
    return np.array([max(d) for d in zip(*devs)]), errors


@_register("toda_embed_triangle", 1e-9, draw=_flow_point)
def _check_embed_triangle(chev, points):
    p = stack(points)
    zp, errors = embed(chev, p)
    values, errors2 = z_invariants(chev, zp)
    base = invariant_vector(chev, toda_matrix(chev, p))
    dev = np.divide(linalg.vector_norm(values - base), np.add(1.0, linalg.vector_norm(base)))
    _, errors3 = gstar_factor(chev, zp.g)  # image membership
    return dev, first_errors(errors, errors2, errors3)


@_register("toda_embed_injective")
def _check_embed_injective(chev, rng, samples):
    points = [sample_flow_domain(chev, rng) for _ in range(samples)]
    if not points:
        return 0.0, 0.5, 0
    images, errors = embed(chev, stack(points))
    for exc in errors:
        if exc is not None:
            raise exc
    bad = 0
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            input_gap = linalg.norm(toda_matrix(chev, points[a]) - toda_matrix(chev, points[b]))
            if input_gap < 1e-6:
                continue
            image_gap = max(scalar_aligned_distance(images.g[a], images.g[b]),
                            _rel(images.x[a], images.x[b]))
            bad += image_gap < 1e-10
    return float(bad), 0.5, samples


@_register("toda_embed_roundtrip", 1e-8, draw=_flow_point)
def _check_embed_roundtrip(chev, points):
    p = stack(points)
    zp, errors = embed(chev, p)
    back, errors2 = embed_inverse(chev, zp)
    again, errors3 = embed(chev, back)
    dev_p = _rel(toda_matrix(chev, back), toda_matrix(chev, p))
    dev_x = _rel(again.x, zp.x)
    return np.array([
        max(dp, scalar_aligned_distance(g1, g0), dx)
        for dp, g1, g0, dx in zip(dev_p, again.g, zp.g, dev_x)]), first_errors(
        errors, errors2, errors3)


# NotInGStar is a complex-time blow-up: both sides are undefined together.
@_register("toda_intertwine_flow", 1e-7, skips=(NotInGStar,), draw=_flow_point)
def _check_intertwine_flow(chev, points):
    ks = range(len(points))
    return intertwine_check(chev, [1 + k % chev.r for k in ks],
                            [(0.4, -0.8, 0.3 + 0.2j)[k % 3] for k in ks], stack(points))


@_register("toda_intertwine_infinitesimal", 1e-5, draw=_flow_point)
def _check_intertwine_infinitesimal(chev, points):
    return intertwine_infinitesimal(
        chev, [1 + k % chev.r for k in range(len(points))], stack(points))


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

def _outcomes(check: Check, chev, rng, samples: int):
    """Per sample, in order, its deviation or the exception it raised.

    A per-point check runs sample by sample.  A stacked check draws its
    samples one at a time first, in the order a per-point check would, and
    evaluates them in one stacked pass; a draw that raises ends the list,
    and so does a non-finite draw where the pass raises.
    """
    if check.draw is None:
        for k in range(samples):
            try:
                yield check.fn(chev, rng, k)
            except Exception as exc:
                yield exc
        return
    drawn, failure = [], None
    for k in range(samples):
        try:
            drawn.append(check.draw(chev, rng, k))
        except Exception as exc:
            failure = exc
            break
    if drawn:
        try:
            devs, errors = check.fn(chev, drawn)
        except Exception:
            bad = next((k for k, value in enumerate(drawn)
                        if not all(np.isfinite(a).all() for a in arrays(value))), None)
            if bad is None:
                raise
            drawn, failure = drawn[:bad], ValueError("matrix has non-finite entries")
            devs, errors = check.fn(chev, drawn) if drawn else ((), ())
        yield from (dev if exc is None else exc for dev, exc in zip(devs, errors))
    if failure is not None:
        yield failure


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
            for outcome in _outcomes(check, chev, rng, samples):
                if isinstance(outcome, Exception):
                    if not isinstance(outcome, check.skips):
                        raise outcome
                    skipped[type(outcome).__name__] += 1
                    continue
                worst = max(worst, outcome)
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
