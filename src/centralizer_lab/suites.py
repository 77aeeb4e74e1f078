"""Named verification suites behind the ``check`` command.

Every check is registered with its pinned bound: a float, or a function
of n.  A check is *sampled* or *plain*.  A sampled check is also
registered with the exception types that count as a skipped sample, and a
``draw(chev, rng, samples) -> (columns, failure)``: the samples' values
as stacked columns (Python scalars such as flow times and labels in
lists), and the exception (or None) that ended them.  Its function takes
the columns and returns ``(deviations, errors)`` from one pass over the
stack (see :mod:`stacks`), with ``errors`` None where no sample can fail.
A draw is built by the combinators of :mod:`sampling`: of fixed layout
when it takes only doubles and rejects nothing, judged when it rejects
candidates, else sample by sample.  No draw depends on another sample or
on the number of samples, and each consumes the stream as draws made one
at a time do, so ``run_check(name, n, seed, k + 1)`` replays sample ``k``.  A
plain check has no draw, and is a function ``(chev, rng, samples) ->
(deviation, used)``, for structure constants, rank-dependent cases and
checks over the whole sample set at once.

The driver, :func:`run_check`, folds the ordered per-sample outcomes, a
deviation or an exception, into the running maximum (NaN once a
deviation is NaN, which fails the check; a check combines the parts of a
deviation with ``np.maximum``, which keeps a NaN), the sample and skip
counts, and the first exception that is not a skip.  A draw that raises
ends the list with its exception.  Such an exception, or any other that
escapes a check, fails it with an infinite deviation, and the result
names the exception, keeps the registered bound and counts the samples
finished before it.  Each check draws from its own named random stream,
starts from an empty spectrum memo (see :func:`linalg.eigvals`), and the
checks run one after another in registry order, so reports are
deterministic for a fixed configuration.  No tolerance or bound can be
set from outside.
"""

from __future__ import annotations

import functools
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
    hamiltonian_fields,
    moment_preimage_report,
    symplectic_form,
    z_invariants,
)
from .errors import NotInGStar, SingularMinor
from .invariants import (
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
    centralizer_dimension,
    group_equal,
    pairing,
    scalar_aligned_distance,
    stabilizer_residual,
)
from .linalg import relative_distance
from .report import CheckResult, Report
from .sampling import (
    blocks,
    complex_uniform,
    domain_fraction,
    fixed,
    flow_candidate,
    flow_candidates,
    judged,
    one_by_one,
    random_cjl_point,
    random_section_point,
    random_traceless,
    sample_flow_domain,
    stabilizer_coefficients,
    stabilizer_elements,
    stabilizer_exponents,
    stream,
)
from .stacks import arrays, first_errors, map_arrays
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
    """A registered check: its function, bound and skip exceptions, and
    for a sampled check the draw of its samples."""

    fn: object
    bound: object  # a float or a function of n
    skips: tuple
    draw: object  # None for a plain check


CHECKS = {}


def _register(name, bound, skips=(), draw=None):
    """Register a check with its ``bound``, and a sampled one with its skip
    exceptions and ``draw(chev, rng, samples)``, which makes the draws of
    the samples that the function evaluates at once."""
    def deco(fn):
        CHECKS[name] = Check(fn, bound, skips, draw)
        return fn
    return deco


class SmallRootCoordinate(Exception):
    """A dressed point with a root coordinate below 1e-6 in modulus, too
    close to the wall for the lift to be compared: the sample is skipped."""


def _separated(values) -> list:
    """Per row of a stack of spectra, whether its eigenvalues lie pairwise
    more than 1e-2 apart."""
    a, b = np.triu_indices(values.shape[-1], 1)
    return (np.abs(values[:, a] - values[:, b]).min(axis=-1) > 1e-2).tolist()


def _random_regular(chev, rng):
    """Random traceless matrix with well-separated eigenvalues."""
    while True:
        x = random_traceless(chev, rng)
        if _separated(linalg.eigvals(x)[None])[0]:
            return x


def _judge_flow_points(chev, rows, *rest):
    """The Toda points of the proposed first candidates, the proposals'
    other columns, and per proposal whether its candidate lies in the flow
    domain."""
    p, verdicts = flow_candidates(chev, rows)
    return [p, *rest], [exc is None for exc in verdicts]


def _flow_points(sets):
    """The draw of all samples' flow-domain points, each followed by
    ``sets`` sets of r stabilizer coefficients."""
    def draw(chev, rng):
        return sample_flow_domain(chev, rng), *[stabilizer_coefficients(chev, rng)
                                                for _ in range(sets)]
    return judged(draw, fixed("candidate", *["coefficients"] * sets), _judge_flow_points)


def _flow_point_and_label(chev, rng, point=sample_flow_domain):
    return point(chev, rng), int(rng.integers(1, chev.r + 1))


def _flow_points_judged(draw):
    """:func:`sampling.judged` for a per-sample draw whose first value is a
    flow-domain point drawn by its ``point`` argument, and which takes
    integers: a sample's proposal takes that point's first candidate
    (:func:`sampling.flow_candidate`)."""
    return judged(draw, one_by_one(functools.partial(draw, point=flow_candidate)),
                  _judge_flow_points)


# ----------------------------- linalg ---------------------------------- #

def _conditioned(vectors) -> list:
    """Per matrix of a stack of eigenvectors, whether its condition number
    is below 1e6."""
    return (np.linalg.cond(vectors) < 1e6).tolist()


def _draw_well_conditioned(chev, rng):
    """A random matrix with well-conditioned eigenvectors, and its eigenpairs."""
    while True:
        a = complex_uniform(rng, (chev.n, chev.n))
        values, vectors = linalg.eig(a)
        if _conditioned(vectors[None])[0]:
            return a, values, vectors


def _judge_conditioned(chev, a):
    (values, vectors), errors = linalg.eig(a)
    return [a, values, vectors], [exc is None and ok
                                  for exc, ok in zip(errors, _conditioned(vectors))]


@_register("linalg_eig_reconstruct", 1e-9, draw=judged(
    _draw_well_conditioned, fixed("matrix"), _judge_conditioned))
def _check_eig_reconstruct(chev, a, values, vectors):
    # the eigenpairs are the draw's, which judged each matrix by them
    recon = vectors @ linalg.diag_matrix(values) @ linalg.inv(vectors)
    return np.divide(linalg.norm(recon - a), linalg.norm(a)), None


@_register("linalg_exp_inverse", 1e-12, draw=fixed("traceless", "length"))
def _check_exp_inverse(chev, a, length):
    a = a * (length / np.maximum(linalg.norm(a), 1e-12))[:, None, None]
    return linalg.norm(linalg.mat_exp(a) @ linalg.mat_exp(-a) - np.eye(chev.n)), None


@_register("linalg_exp_taylor_oracle", linalg.TOL_EXP, draw=fixed("traceless"))
def _check_exp_taylor(chev, a):
    # Independent oracle for the exponential contract: for small arguments
    # the truncated series is accurate to machine precision.
    a = a * (0.5 / np.maximum(linalg.norm(a), 1e-12))[:, None, None]
    series = term = linalg.identities(a.shape)
    for j in range(1, 26):
        term = term @ a / j
        series = series + term
    out = linalg.mat_exp(a)
    return np.divide(linalg.norm(out - series), linalg.norm(out)), None


@_register("linalg_exp_commuting", 1e-10, draw=fixed("traceless"))
def _check_exp_commuting(chev, a):
    a = a / np.maximum(linalg.norm(a), 1e-12)[:, None, None]
    p = a + 0.3 * (a @ a)
    q = 0.5 * a - 0.2 * (a @ a)
    commute = [gap < 1e-13 * (1 + size_p * size_q) for gap, size_p, size_q
               in zip(linalg.norm(bracket(p, q)), linalg.norm(p), linalg.norm(q))]
    return (relative_distance(linalg.mat_exp(p + q), linalg.mat_exp(p) @ linalg.mat_exp(q)),
            [None if ok else AssertionError() for ok in commute])


@_register("linalg_ldu_roundtrip", 1e-12, skips=(SingularMinor,), draw=fixed("matrix"))
def _check_ldu_roundtrip(chev, a):
    (lower, diag, upper), errors = linalg.gauss_ldu(a)
    return np.divide(linalg.norm(lower @ diag @ upper - a), linalg.norm(a)), errors


# ----------------------------- lie core -------------------------------- #

@_register("lie_sl2_triple", 1e-14)
def _check_sl2_triple(chev, rng, samples):
    parts = [linalg.norm(bracket(chev.h, chev.xi) - 2 * chev.xi),
             linalg.norm(bracket(chev.h, chev.eta) + 2 * chev.eta),
             linalg.norm(bracket(chev.xi, chev.eta) - chev.h)]
    for i in range(chev.r):
        alpha_h = chev.h[i, i] - chev.h[i + 1, i + 1]
        parts += [abs(alpha_h + 2.0), abs(pairing(chev.e_plus[i], chev.e_minus[i]) - 1.0)]
    return np.max(parts), 1


def _judge_regular(chev, x, s):
    values, errors = linalg.eigvals(x)
    return [x, s], [exc is None and ok for exc, ok in zip(errors, _separated(values))]


@_register("lie_centralizer_dimension", 0.5, draw=judged(
    lambda chev, rng: (_random_regular(chev, rng), random_section_point(chev, rng)),
    fixed("traceless", "section"), _judge_regular))
def _check_centralizer_dimension(chev, x, s):
    # Deviation is the number of the sample's two points whose centralizer
    # does not have dimension r.
    dims = centralizer_dimension(chev, np.concatenate([x, s])).reshape(2, len(x))
    return np.count_nonzero(dims != chev.r, axis=0).astype(float), None


@_register("lie_pairing_ad_invariance", 1e-10, draw=fixed("traceless", "traceless", "exponent"))
def _check_pairing_invariance(chev, x, y, exponent):
    g = linalg.mat_exp(exponent)
    base, moved = pairing(x, y).tolist(), pairing(adjoint(g, x), adjoint(g, y)).tolist()
    return [abs(b - a) / (1.0 + abs(a)) for a, b in zip(base, moved)], None


@_register("lie_torus_gram_nondegenerate", 0.5)
def _check_torus_gram(chev, rng, samples):
    # On the simple coroots the Gram matrix is the Cartan matrix, det = n.
    coroots = [bracket(e, f) for e, f in zip(chev.e_plus, chev.e_minus)]
    gram = np.array([[pairing(a, b) for b in coroots] for a in coroots])
    det = abs(np.linalg.det(gram))
    return (0.0 if det > 1e-8 else 1.0), 1


def _away_from_zero(scalars) -> list:
    """Per complex scalar of a stack, whether its modulus is at least 0.1."""
    return (np.abs(scalars) >= 0.1).tolist()


def _draw_scalar_quotient(chev, rng):
    width, exponents = blocks(chev)["exponent"]
    g = exponents(rng.random((1, width)))[0]  # the draws of random_group_element
    x = random_traceless(chev, rng)
    scalar = complex_uniform(rng, ())
    while not _away_from_zero(scalar[None])[0]:
        scalar = complex_uniform(rng, ())
    return g, x, scalar


def _judge_scalar_quotient(chev, exponent, x, scalars):
    return [exponent, x, scalars], _away_from_zero(scalars)


@_register("lie_group_scalar_quotient", 1e-12, draw=judged(
    _draw_scalar_quotient, fixed("exponent", "traceless", "scalar"), _judge_scalar_quotient))
def _check_scalar_quotient(chev, exponent, x, scalars):
    g = linalg.mat_exp(exponent)
    scaled = np.array(scalars)[:, None, None] * g
    apart = ~(group_equal(g, scaled) & group_equal(scaled, g))
    return np.maximum(relative_distance(adjoint(scaled, x), adjoint(g, x)), apart), None


# ----------------------------- invariants ------------------------------ #

@_register("inv_conjugation_invariance", 1e-9, draw=fixed("traceless", "exponent"))
def _check_inv_invariance(chev, x, exponent):
    moved = invariant_vector(chev, adjoint(linalg.mat_exp(exponent), x))
    return linalg.vector_relative_distance(moved, invariant_vector(chev, x)), None


@_register("inv_gradient_centralizes", 1e-12, draw=fixed("traceless"))
def _check_gradient_centralizes(chev, x):
    sizes = [max(size, 1e-12) for size in linalg.norm(x)]
    grads = invariant_gradients(chev, x)
    return np.max([[gap / size ** i for gap, size in zip(linalg.norm(bracket(x, grad)), sizes)]
                   for i, grad in enumerate(grads.swapaxes(0, 1), 1)], axis=0), None


@_register("inv_gradient_equivariance", 1e-9, draw=fixed("traceless", "exponent"))
def _check_gradient_equivariance(chev, x, exponent):
    g = linalg.mat_exp(exponent)
    grads, moved = invariant_gradients(chev, x), invariant_gradients(chev, adjoint(g, x))
    return np.max([relative_distance(adjoint(g, grads[:, i]), moved[:, i])
                   for i in range(chev.r)], axis=0), None


@_register("inv_gradient_independent_on_section", 0.5, draw=fixed("section"))
def _check_gradient_independence(chev, s):
    # Deviation is 1 when the gradients are dependent at the sample, else 0.
    grads = invariant_gradients(chev, s)
    gram = pairing(grads[:, :, None], grads[:, None])
    sizes = np.reshape(linalg.norm(grads.reshape(-1, chev.n, chev.n)), grads.shape[:2])
    scale = np.prod(np.maximum(sizes, 1e-12), axis=1)
    return [float(abs(det) <= 1e-10 * size) for det, size in zip(np.linalg.det(gram), scale)], None


@_register("inv_section_roundtrip", 1e-10, draw=fixed("invariants"))
def _check_section_roundtrip(chev, z):
    x, errors = section_from_invariants(chev, z)
    return linalg.vector_relative_distance(invariant_vector(chev, x), z), errors


@_register("inv_gradient_fd", 1e-6, draw=fixed("traceless", "traceless"))
def _check_gradient_fd(chev, x, z):
    h = 1e-6
    slopes = (invariant_vector(chev, x + h * z) - invariant_vector(chev, x - h * z)) / (2.0 * h)
    gaps = slopes - pairing(invariant_gradients(chev, x), z[:, None])
    return np.max([[abs(gap) for gap in row] for row in gaps], axis=1), None


# ----------------------------- kostant maps ---------------------------- #

@_register("kostant_longest_weyl_ad", 1e-14)
def _check_longest_weyl(chev, rng, samples):
    w0 = longest_weyl_lift(chev)
    return np.max([linalg.norm(adjoint(w0, chev.e_plus[i]) - chev.e_minus[chev.r - 1 - i])
                   for i in range(chev.r)]), 1


@_register("kostant_section_decomposition_roundtrip", 1e-10,
           draw=fixed("xi_plus_b", "unitriangular", "section"))
def _check_decomposition_roundtrip(chev, z, u, s):
    dec, errors = decompose_to_section(chev, z)
    moved, moved_errors = conjugate_section(chev, u, s)
    dec2, errors2 = decompose_to_section(chev, moved)
    return (np.maximum.reduce([relative_distance(adjoint(dec.u, dec.s), z),
                               relative_distance(dec2.u, u), relative_distance(dec2.s, s)]),
            first_errors(errors, moved_errors, errors2))


@_register("kostant_chamber_form", 1e-9, draw=_flow_points(0))
def _check_chamber_form(chev, p):
    x = toda_matrix(chev, p)
    form, errors = chamber_form(chev, x)
    dev = linalg.vector_norm(invariant_vector(chev, form) - invariant_vector(chev, x))
    again, errors2 = chamber_form(chev, form)
    return np.maximum(dev, relative_distance(again, form)), first_errors(errors, errors2)


@_register("kostant_chamber_conjugator", 1e-9, draw=_flow_points(0))
def _check_chamber_conjugator(chev, p):
    x = toda_matrix(chev, p)
    conj, errors = chamber_conjugator(chev, x)
    theta_x, errors2 = chamber_form(chev, x)
    return relative_distance(adjoint(conj, theta_x), x), first_errors(errors, errors2)


@_register("kostant_section_chamber_conjugator", 1e-9, draw=_flow_points(0))
def _check_section_chamber_conjugator(chev, p):
    x = toda_matrix(chev, p)
    conj, errors = chamber_to_section_conjugator(chev, x)
    theta_x, errors2 = chamber_form(chev, x)
    beta_x, errors3 = section_form(chev, x)
    return relative_distance(adjoint(conj, theta_x), beta_x), first_errors(errors, errors2, errors3)


@_register("kostant_stabilizer_lift", 1e-9, draw=_flow_points(0))
def _check_stabilizer_lift(chev, p):
    x = toda_matrix(chev, p)
    theta_x, errors = chamber_form(chev, x)
    lift, errors2 = stabilizer_lift(chev, x)
    dressed, errors3 = dress(chev, theta_x, lift)
    return (np.maximum(stabilizer_residual(lift, theta_x), relative_distance(dressed, x)),
            first_errors(errors, errors2, errors3))


@_register("kostant_lift_of_dressed_point", 1e-8, skips=(NotInGStar, SmallRootCoordinate),
           draw=_flow_points(1))
def _check_lift_of_dressed(chev, p, coeffs):
    theta_x, errors = chamber_form(chev, toda_matrix(chev, p))
    g = stabilizer_elements(chev, theta_x, coeffs)
    y, errors2 = dress(chev, theta_x, g)
    walls = (np.abs(np.diagonal(y, 1, -2, -1)).min(axis=-1) < 1e-6).tolist()
    lift, errors3 = stabilizer_lift(chev, y)
    return scalar_aligned_distance(lift, g), first_errors(
        errors, errors2, [SmallRootCoordinate() if wall else None for wall in walls], errors3)


@_register("kostant_open_stabilizer_conjugation", 1e-9, skips=(NotInGStar,),
           draw=_flow_points(2))
def _check_open_stabilizer(chev, p, g_coeffs, h_coeffs):
    x = toda_matrix(chev, p)
    theta_x, errors = chamber_form(chev, x)
    beta_x, errors2 = section_form(chev, x)
    conj = unipotent_conjugator(beta_x, theta_x)
    conj_inv = linalg.inv(conj)
    g = stabilizer_elements(chev, theta_x, g_coeffs)
    h = stabilizer_elements(chev, beta_x, h_coeffs)
    moved_g, moved_h = conj @ g @ conj_inv, conj_inv @ h @ conj
    # the conjugation is tested on the big cell only
    errors = first_errors(errors, errors2, *(gstar_factor(chev, element)[1]
                                             for element in (g, h, moved_g, moved_h)))
    return np.maximum(stabilizer_residual(moved_g, beta_x),
                      stabilizer_residual(moved_h, theta_x)), errors


@_register("kostant_gstar_refactor", 1e-10,
           draw=fixed("unitriangular", "unitriangular", "torus"))
def _check_gstar_refactor(chev, u_minus, u, torus):
    u_minus = u_minus.swapaxes(1, 2).copy()  # lower unitriangular
    factors, errors = gstar_factor(chev, longest_weyl_lift(chev) @ u_minus @ torus @ u)
    return np.maximum.reduce([relative_distance(factors.u_minus, u_minus),
                              relative_distance(factors.u, u),
                              scalar_aligned_distance(factors.torus, torus)]), errors


# ----------------------------- centralizer ----------------------------- #

def _draw_z_point(chev, rng):
    return random_section_point(chev, rng), stabilizer_coefficients(chev, rng)


def _z_points(chev, x, coeffs) -> ZPoint:
    """The centralizer points of a stack of section points and their rows
    of stabilizer coefficients."""
    return ZPoint(g=stabilizer_elements(chev, x, coeffs), x=x)


@_register("cent_flow_preserves_points", 1e-9, draw=one_by_one(lambda chev, rng: (
    *_draw_z_point(chev, rng), int(rng.integers(1, chev.r + 1)), complex_uniform(rng, ()))))
def _check_flow_preserves(chev, x, coeffs, labels, times):
    p = _z_points(chev, x, coeffs)
    moved = flow_step(chev, times, p, labels)
    # the algebra part must be carried unchanged
    carried = 0.0 if moved.x is p.x else 1.0
    return np.maximum(stabilizer_residual(moved.g, moved.x), carried), None


@_register("cent_moment_preimage", 1e-9 + 0.5)
def _check_moment_preimage(chev, rng, samples):
    # each sample: a section point, a stabilizer element of it, a group element
    (x, coeffs, exponents), _ = fixed("section", "coefficients", "exponent")(chev, rng, samples)
    g = np.concatenate([stabilizer_elements(chev, x, coeffs), linalg.mat_exp(exponents)])
    report = moment_preimage_report(chev, g, np.concatenate([x, x]))
    return float(report.mismatches) + report.max_member_residual, len(g)


@_register("cent_invariants_group_independent", 1e-15,
           draw=fixed("section", "coefficients", "coefficients"))
def _check_invariants_group_independent(chev, x, first, second):
    p1, p2 = _z_points(chev, x, first), _z_points(chev, x, second)
    values1, errors = z_invariants(chev, p1)
    values2, errors2 = z_invariants(chev, p2)
    return linalg.vector_norm(values1 - values2), first_errors(errors, errors2)


@_register("cent_hamiltonian_isotropy", 1e-10, draw=fixed("section", "coefficients"))
def _check_ham_isotropy(chev, x, coeffs):
    # the form reads only the algebra part of the drawn points
    fields = hamiltonian_fields(chev, x)
    return np.max(np.abs(symplectic_form(x, fields, fields)), axis=(1, 2)), None


def _cjl_points(chev, rng, samples):
    """The draw of all samples' chart points in one batch."""
    return [random_cjl_point(chev, rng, samples)], None


@_register("cent_hamiltonian_duality_fd", 1e-6, draw=_cjl_points)
def _check_ham_duality(chev, c):
    # Omega(H_i, (y, z)) = tr(grad_i z) + tr([s, grad_i] y), and grad_i
    # commutes with s, so every entry reduces to tr(grad_i z) up to rounding:
    # the row never reads a direction's y, and its flow half repeats
    # cent_hamiltonian_isotropy.  The fields are the flow half of the
    # directions, bit for bit hamiltonian_fields(chev, c.s), and no chart
    # is evaluated.
    dirs = chart_directions(chev, c)
    fields = Tangent(y=dirs.y[:, :chev.r], z=dirs.z[:, :chev.r])
    slopes = pairing(fields.y[:, :, None], dirs.z[:, None])
    return np.max(np.abs(symplectic_form(c.s, fields, dirs) - slopes), axis=(1, 2)), None


@_register("cent_cjl_surjectivity", 1e-8, draw=fixed("section", "coefficients"))
def _check_cjl_surjectivity(chev, x, coeffs):
    # recover the chart coordinates of a stabilizer element from its
    # exponent in the gradient basis, then rebuild it through the chart
    grads = invariant_gradients(chev, x)
    y = stabilizer_exponents(grads, coeffs)
    bases = grads.reshape(len(x), chev.r, -1).transpose(0, 2, 1)  # (m, n^2, r)
    recovered = [np.linalg.lstsq(basis, target, rcond=None)[0]
                 for basis, target in zip(bases, y.reshape(len(x), -1))]
    rebuilt = cjl_chart(chev, CJLPoint(lam=np.array(recovered), s=x))
    return scalar_aligned_distance(rebuilt.g, linalg.mat_exp(y)), None


@_register("cent_cjl_chart_rank", 0.5, draw=_cjl_points)
def _check_cjl_rank(chev, c):
    # Deviation is 1 when the chart Jacobian is rank-deficient, else 0.
    dirs = chart_directions(chev, c)
    m, count = dirs.y.shape[:2]
    jac = np.concatenate([dirs.y.reshape(m, count, -1), dirs.z.reshape(m, count, -1)], axis=2)
    sigma = np.linalg.svd(jac.transpose(0, 2, 1), compute_uv=False)
    return (sigma[:, -1] <= 1e-6 * sigma[:, 0]).astype(float), None


@_register("cent_flow_group_law", 1e-10, draw=one_by_one(lambda chev, rng: (
    *_draw_z_point(chev, rng), int(rng.integers(1, chev.r + 1)),
    complex_uniform(rng, (), scale=0.7), complex_uniform(rng, (), scale=0.7))))
def _check_flow_group_law(chev, x, coeffs, labels, t, s):
    p = _z_points(chev, x, coeffs)
    lhs = flow_step(chev, t, flow_step(chev, s, p, labels), labels)
    rhs = flow_step(chev, [a + b for a, b in zip(t, s)], p, labels)
    return relative_distance(lhs.g, rhs.g), None


@_register("cent_cjl_factor_order", 1e-10, draw=one_by_one(lambda chev, rng: (
    random_cjl_point(chev, rng), tuple(rng.permutation(chev.r).tolist()))))
def _check_cjl_factor_order(chev, c, orders):
    base = cjl_chart(chev, c)
    p = ZPoint(g=linalg.identities(c.s.shape), x=c.s)
    rows = np.arange(len(orders))
    for idx in orders.T:  # position by position, one flow per sample
        p = flow_step(chev, c.lam[rows, idx], p, idx + 1)
    return relative_distance(p.g, base.g), None


@_register("cent_cjl_pullback", cjl_pullback_tolerance, draw=_cjl_points)
def _check_cjl_pullback(chev, c):
    return cjl_pullback_deviation(chev, c).max_deviation, None


# ----------------------------- toda ------------------------------------ #

@_register("toda_conservation", 1e-8, draw=_flow_points(0))
def _check_toda_conservation(chev, p):
    x0 = toda_matrix(chev, p)
    base = invariant_vector(chev, x0)
    eig0, errors = linalg.eigvals(x0)
    eig0 = np.sort_complex(eig0)
    worst = np.zeros(len(eig0))
    for i in range(1, chev.r + 1):
        for t in (0.1, 0.7):
            q, flow_errors = toda_flow(chev, i, t, p)
            xt = toda_matrix(chev, q)
            dev_f = linalg.vector_relative_distance(invariant_vector(chev, xt), base)
            eig_t, eig_errors = linalg.eigvals(xt)
            errors = first_errors(errors, flow_errors, eig_errors)
            dev_eig = np.max(np.abs(np.sort_complex(eig_t) - eig0), axis=-1)
            worst = np.maximum.reduce([worst, dev_f, dev_eig])
    return worst, errors


def _draw_semigroup(chev, rng, point=sample_flow_domain):
    p, i = _flow_point_and_label(chev, rng, point)
    t = complex_uniform(rng, (), scale=0.5).real
    return p, i, t, complex_uniform(rng, (), scale=0.5).real


@_register("toda_flow_semigroup", 1e-8, draw=_flow_points_judged(_draw_semigroup))
def _check_toda_semigroup(chev, p, labels, t, s):
    mid, errors = toda_flow(chev, labels, t, p)
    lhs, errors2 = toda_flow(chev, labels, s, mid)
    rhs, errors3 = toda_flow(chev, labels, [a + b for a, b in zip(t, s)], p)
    return (relative_distance(toda_matrix(chev, lhs), toda_matrix(chev, rhs)),
            first_errors(errors, errors2, errors3))


@_register("toda_normal_forms_constant", 1e-7, draw=_flow_points_judged(_flow_point_and_label))
def _check_normal_forms_constant(chev, p, labels):
    q, errors = toda_flow(chev, labels, 0.5, p)
    x0, x1 = toda_matrix(chev, p), toda_matrix(chev, q)
    devs = []
    for fn in (chamber_form, section_form, chamber_to_section_conjugator):
        f1, errors1 = fn(chev, x1)
        f0, errors0 = fn(chev, x0)
        errors = first_errors(errors, errors1, errors0)
        devs.append(relative_distance(f1, f0))
    return np.maximum.reduce(devs), errors


@_register("toda_embed_triangle", 1e-9, draw=_flow_points(0))
def _check_embed_triangle(chev, p):
    zp, errors = embed(chev, p)
    values, errors2 = z_invariants(chev, zp)
    base = invariant_vector(chev, toda_matrix(chev, p))
    _, errors3 = gstar_factor(chev, zp.g)  # image membership
    return linalg.vector_relative_distance(values, base), first_errors(errors, errors2, errors3)


@_register("toda_embed_injective", 0.5)
def _check_embed_injective(chev, rng, samples):
    columns, failure = _flow_points(0)(chev, rng, samples)
    if failure is not None:
        raise failure
    if not columns:
        return 0.0, 0
    p = columns[0]
    images, errors = embed(chev, p)
    if any(errors):
        raise next(exc for exc in errors if exc)
    a, b = np.triu_indices(samples, 1)
    x = toda_matrix(chev, p)
    image_gap = np.maximum(scalar_aligned_distance(images.g[a], images.g[b]),
                           relative_distance(images.x[a], images.x[b]))
    distinct = np.array(linalg.norm(x[a] - x[b])) >= 1e-6
    return float(np.count_nonzero(distinct & (image_gap < 1e-10))), samples


@_register("toda_embed_roundtrip", 1e-8, draw=_flow_points(0))
def _check_embed_roundtrip(chev, p):
    zp, errors = embed(chev, p)
    back, errors2 = embed_inverse(chev, zp)
    again, errors3 = embed(chev, back)
    dev_p = relative_distance(toda_matrix(chev, back), toda_matrix(chev, p))
    dev_x = relative_distance(again.x, zp.x)
    dev_g = scalar_aligned_distance(again.g, zp.g)
    return np.maximum.reduce([dev_p, dev_g, dev_x]), first_errors(errors, errors2, errors3)


# NotInGStar is a complex-time blow-up: both sides are undefined together.
@_register("toda_intertwine_flow", 1e-7, skips=(NotInGStar,), draw=_flow_points(0))
def _check_intertwine_flow(chev, p):
    ks = range(len(p.diag))
    return intertwine_check(chev, [1 + k % chev.r for k in ks],
                            [(0.4, -0.8, 0.3 + 0.2j)[k % 3] for k in ks], p)


@_register("toda_intertwine_infinitesimal", 1e-5, draw=_flow_points(0))
def _check_intertwine_infinitesimal(chev, p):
    return intertwine_infinitesimal(chev, [1 + k % chev.r for k in range(len(p.diag))], p)


@_register("toda_domain_fraction", 1.0 - 1e-12)
def _check_domain_fraction(chev, rng, samples):
    # Deviation is 1 - fraction: the check records the sampled density of
    # the flow domain and fails only if no sample lands inside.
    frac = domain_fraction(chev, rng, max(samples, 20))
    return 1.0 - frac, max(samples, 20)


@_register("toda_rk4_cross_check", 1e-5)
def _check_rk4(chev, rng, samples):
    if chev.n != 2:
        return 0.0, 0  # golden initial point is rank-1 specific
    golden = make_toda_point([0.0, 0.0], [1.0])
    direct = toda_matrix(chev, toda_flow(chev, 1, 1.0, golden))
    integrated = toda_matrix(chev, rk4_toda(chev, 1, golden, 1.0, step=5e-3))
    return relative_distance(integrated, direct), 1


# ----------------------------- driver ----------------------------------- #

def _outcomes(check: Check, chev, rng, samples: int):
    """Per sample, in order, its deviation or the exception it raised.

    The check draws its samples' columns, then evaluates them in one pass.
    A failed draw ends the list after the samples before it, as does a
    sample with a non-finite entry (a stacked call raises for a whole
    stack with one)."""
    columns, failure = check.draw(chev, rng, samples)
    count = len(arrays(columns[0])[0]) if columns else 0
    finite = np.ones(count, dtype=bool)
    for part in arrays(tuple(columns)):  # each array of each column
        finite &= np.isfinite(part).all(axis=tuple(range(1, np.ndim(part))))
    if not finite.all():
        count, failure = int(np.argmin(finite)), ValueError("matrix has non-finite entries")
        columns = [map_arrays(lambda part: part[:count], column) for column in columns]
    if count:
        devs, errors = check.fn(chev, *columns)
        yield from (dev if exc is None else exc
                    for dev, exc in zip(devs, errors or [None] * count))
    if failure is not None:
        yield failure


def run_check(name: str, n: int, seed: int, samples: int,
              tols: Tolerances | None = None) -> CheckResult:
    """Run one named check; ``tols`` is accepted and ignored.  The check
    starts from an empty spectrum memo (see :func:`linalg.eigvals`), so no
    spectrum solved before it serves it."""
    linalg.forget_spectra()
    check = CHECKS[name]
    chev = build_chevalley(n)
    rng = stream(seed, name)
    bound = check.bound(n) if callable(check.bound) else check.bound
    worst, used, skipped, error = 0.0, 0, Counter(), None
    start = time.perf_counter()
    try:
        if check.draw is None:
            worst, used = check.fn(chev, rng, samples)
        else:
            for outcome in _outcomes(check, chev, rng, samples):
                if isinstance(outcome, Exception):
                    if not isinstance(outcome, check.skips):
                        raise outcome
                    skipped[type(outcome).__name__] += 1
                    continue
                worst = np.maximum(worst, outcome)
                used += 1
    except Exception as exc:  # a structural error inside a check is a failure, not a crash
        worst = float("inf")
        error = type(exc).__name__ + (f": {exc}" if str(exc) else "")
    elapsed = time.perf_counter() - start
    return CheckResult(name=name, max_deviation=float(worst), tolerance=float(bound),
                       passed=bool(worst <= bound), samples=int(used),
                       skipped=dict(sorted(skipped.items())), error=error,
                       seconds=elapsed)


def run_all(n: int, seed: int, samples: int) -> Report:
    """Run every registered check, one after another, in registry order."""
    results = [run_check(name, n, seed, samples) for name in CHECKS]
    return Report(config={"n": n, "seed": seed, "samples": samples},
                  checks=tuple(results))
