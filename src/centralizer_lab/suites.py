"""Named verification suites behind the ``check`` command.

Every check is a pure function of (structure data, named random stream,
sample count) and returns (max deviation, pinned bound, samples used); the
driver runs the checks one after another in registry order, each on its own
named random stream, so reports are deterministic for a fixed
configuration.  No tolerance or bound can be set from outside.
"""

from __future__ import annotations

import itertools
import time
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


CHECKS = {}


def _register(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


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

@_register("linalg_eig_reconstruct")
def _check_eig_reconstruct(chev, rng, samples):
    worst, used = 0.0, 0
    while used < samples:
        a = complex_uniform(rng, (chev.n, chev.n))
        values, vectors = linalg.eig(a)
        if np.linalg.cond(vectors) >= 1e6:
            continue
        used += 1
        recon = vectors @ np.diag(values) @ linalg.inv(vectors)
        worst = max(worst, linalg.norm(recon - a) / linalg.norm(a))
    return worst, 1e-9, used


@_register("linalg_exp_inverse")
def _check_exp_inverse(chev, rng, samples):
    worst = 0.0
    eye = np.eye(chev.n)
    for _ in range(samples):
        a = random_traceless(chev, rng)
        a *= rng.uniform(0.0, 5.0) / max(linalg.norm(a), 1e-12)
        worst = max(worst, linalg.norm(linalg.mat_exp(a) @ linalg.mat_exp(-a) - eye))
    return worst, 1e-12, samples


@_register("linalg_exp_taylor_oracle")
def _check_exp_taylor(chev, rng, samples):
    # Independent oracle for the exponential contract: for small arguments
    # the truncated series is accurate to machine precision.
    worst = 0.0
    for _ in range(samples):
        a = random_traceless(chev, rng)
        a *= 0.5 / max(linalg.norm(a), 1e-12)
        series = np.eye(chev.n, dtype=complex)
        term = np.eye(chev.n, dtype=complex)
        for k in range(1, 26):
            term = term @ a / k
            series = series + term
        out = linalg.mat_exp(a)
        worst = max(worst, linalg.norm(out - series) / linalg.norm(out))
    return worst, linalg.TOL_EXP, samples


@_register("linalg_exp_commuting")
def _check_exp_commuting(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        a = random_traceless(chev, rng)
        a /= max(linalg.norm(a), 1e-12)
        p = a + 0.3 * (a @ a)
        q = 0.5 * a - 0.2 * (a @ a)
        assert linalg.norm(bracket(p, q)) < 1e-13 * (1 + linalg.norm(p) * linalg.norm(q))
        lhs = linalg.mat_exp(p + q)
        rhs = linalg.mat_exp(p) @ linalg.mat_exp(q)
        worst = max(worst, _rel(lhs, rhs))
    return worst, 1e-10, samples


@_register("linalg_ldu_roundtrip")
def _check_ldu_roundtrip(chev, rng, samples):
    worst, used = 0.0, 0
    for _ in range(samples):
        a = complex_uniform(rng, (chev.n, chev.n))
        try:
            lower, diag, upper = linalg.gauss_ldu(a)
        except SingularMinor:
            continue
        used += 1
        worst = max(worst, linalg.norm(lower @ diag @ upper - a) / linalg.norm(a))
    return worst, 1e-12, used


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


@_register("lie_centralizer_dimension")
def _check_centralizer_dimension(chev, rng, samples):
    bad = 0
    for _ in range(samples):
        x = _random_regular(chev, rng)
        bad += len(centralizer_basis(chev, x)) != chev.r
        s = random_section_point(chev, rng)
        bad += len(centralizer_basis(chev, s)) != chev.r
    return float(bad), 0.5, samples


@_register("lie_pairing_ad_invariance")
def _check_pairing_invariance(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_traceless(chev, rng)
        y = random_traceless(chev, rng)
        g = random_group_element(chev, rng)
        base = pairing(x, y)
        moved = pairing(adjoint(g, x), adjoint(g, y))
        worst = max(worst, abs(moved - base) / (1.0 + abs(base)))
    return worst, 1e-10, samples


@_register("lie_torus_gram_nondegenerate")
def _check_torus_gram(chev, rng, samples):
    diag_basis = [b for b in chev.basis if linalg.norm(b - np.diag(np.diag(b))) == 0.0]
    gram = np.array([[pairing(a, b) for b in diag_basis] for a in diag_basis])
    det = abs(np.linalg.det(gram))
    return (0.0 if det > 1e-8 else 1.0), 0.5, 1


@_register("lie_group_scalar_quotient")
def _check_scalar_quotient(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        g = random_group_element(chev, rng)
        x = random_traceless(chev, rng)
        scalar = complex_uniform(rng, ())
        while abs(scalar) < 0.1:
            scalar = complex_uniform(rng, ())
        worst = max(worst, _rel(adjoint(scalar * g, x), adjoint(g, x)))
        if not (group_equal(g, scalar * g) and group_equal(scalar * g, g)):
            worst = max(worst, 1.0)
    return worst, 1e-12, samples


# ----------------------------- invariants ------------------------------ #

@_register("inv_conjugation_invariance")
def _check_inv_invariance(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_traceless(chev, rng)
        g = random_group_element(chev, rng)
        base = invariant_vector(chev, x)
        moved = invariant_vector(chev, adjoint(g, x))
        worst = max(worst, float(np.linalg.norm(moved - base)) / (1.0 + float(np.linalg.norm(base))))
    return worst, 1e-9, samples


@_register("inv_gradient_centralizes")
def _check_gradient_centralizes(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_traceless(chev, rng)
        size = max(linalg.norm(x), 1e-12)
        for i in range(1, chev.r + 1):
            res = linalg.norm(bracket(x, invariant_gradient(chev, x, i)))
            worst = max(worst, res / size ** i)
    return worst, 1e-12, samples


@_register("inv_gradient_equivariance")
def _check_gradient_equivariance(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_traceless(chev, rng)
        g = random_group_element(chev, rng)
        y = adjoint(g, x)
        for i in range(1, chev.r + 1):
            lhs = adjoint(g, invariant_gradient(chev, x, i))
            rhs = invariant_gradient(chev, y, i)
            worst = max(worst, _rel(lhs, rhs))
    return worst, 1e-9, samples


@_register("inv_gradient_independent_on_section")
def _check_gradient_independence(chev, rng, samples):
    bad = 0
    for _ in range(samples):
        s = random_section_point(chev, rng)
        grads = invariant_gradients(chev, s)
        gram = np.array([[pairing(a, b) for b in grads] for a in grads])
        scale = np.prod([max(linalg.norm(g), 1e-12) for g in grads])
        bad += abs(np.linalg.det(gram)) <= 1e-10 * scale
    return float(bad), 0.5, samples


@_register("inv_section_roundtrip")
def _check_section_roundtrip(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        z = complex_uniform(rng, (chev.r,), scale=1.5)
        x = section_from_invariants(chev, z)
        dev = float(np.linalg.norm(invariant_vector(chev, x) - z))
        worst = max(worst, dev / (1.0 + float(np.linalg.norm(z))))
    return worst, 1e-10, samples


@_register("inv_gradient_fd")
def _check_gradient_fd(chev, rng, samples):
    worst = 0.0
    h = 1e-6
    for _ in range(samples):
        x = random_traceless(chev, rng)
        z = random_traceless(chev, rng)
        for i in range(1, chev.r + 1):
            f_p = invariant_vector(chev, x + h * z)[i - 1]
            f_m = invariant_vector(chev, x - h * z)[i - 1]
            fd = (f_p - f_m) / (2.0 * h)
            exact = pairing(invariant_gradient(chev, x, i), z)
            worst = max(worst, abs(fd - exact))
    return worst, 1e-6, samples


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


@_register("kostant_section_decomposition_roundtrip")
def _check_decomposition_roundtrip(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        z = _random_xi_plus_b(chev, rng)
        dec = decompose_to_section(chev, z)
        worst = max(worst, _rel(adjoint(dec.u, dec.s), z))
        u = _random_unitriangular(chev, rng)
        s = random_section_point(chev, rng)
        dec2 = decompose_to_section(chev, conjugate_section(chev, u, s))
        worst = max(worst, _rel(dec2.u, u), _rel(dec2.s, s))
    return worst, 1e-10, samples


@_register("kostant_chamber_form")
def _check_chamber_form(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        form = chamber_form(chev, x)
        worst = max(worst, float(np.linalg.norm(
            invariant_vector(chev, form) - invariant_vector(chev, x))))
        worst = max(worst, _rel(chamber_form(chev, form), form))
    return worst, 1e-9, samples


@_register("kostant_chamber_conjugator")
def _check_chamber_conjugator(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        u = chamber_conjugator(chev, x)
        worst = max(worst, _rel(adjoint(u, chamber_form(chev, x)), x))
    return worst, 1e-9, samples


@_register("kostant_section_chamber_conjugator")
def _check_section_chamber_conjugator(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        conj = chamber_to_section_conjugator(chev, x)
        lhs = adjoint(conj, chamber_form(chev, x))
        worst = max(worst, _rel(lhs, section_form(chev, x)))
    return worst, 1e-9, samples


@_register("kostant_stabilizer_lift")
def _check_stabilizer_lift(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = toda_matrix(chev, sample_flow_domain(chev, rng))
        theta_x = chamber_form(chev, x)
        lift = stabilizer_lift(chev, x)
        worst = max(worst, _rel(adjoint(lift, theta_x), theta_x))
        worst = max(worst, _rel(dress(chev, theta_x, lift), x))
    return worst, 1e-9, samples


@_register("kostant_lift_of_dressed_point")
def _check_lift_of_dressed(chev, rng, samples):
    worst, used = 0.0, 0
    for _ in range(samples):
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
        used += 1
        worst = max(worst, scalar_aligned_distance(lift, g))
    return worst, 1e-8, used


@_register("kostant_open_stabilizer_conjugation")
def _check_open_stabilizer(chev, rng, samples):
    worst, used = 0.0, 0
    for _ in range(samples):
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
        used += 1
        worst = max(worst, stabilizer_residual(moved_g, beta_x))
        worst = max(worst, stabilizer_residual(moved_h, theta_x))
    return worst, 1e-9, used


@_register("kostant_gstar_refactor")
def _check_gstar_refactor(chev, rng, samples):
    worst = 0.0
    w0 = longest_weyl_lift(chev)
    for _ in range(samples):
        u_minus = _random_unitriangular(chev, rng).T.copy()
        u = _random_unitriangular(chev, rng)
        t_diag = complex_uniform(rng, (chev.n,))
        t_diag += np.sign(t_diag.real + 1e-12) * 0.5  # keep away from zero
        torus = np.diag(t_diag)
        g = w0 @ u_minus @ torus @ u
        factors = gstar_factor(chev, g)
        worst = max(worst, _rel(factors.u_minus, u_minus), _rel(factors.u, u),
                    scalar_aligned_distance(factors.torus, torus))
    return worst, 1e-10, samples


# ----------------------------- centralizer ----------------------------- #

def _random_z_point(chev, rng) -> ZPoint:
    x = random_section_point(chev, rng)
    return ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)


@_register("cent_flow_preserves_points")
def _check_flow_preserves(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = _random_z_point(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        t = complex_uniform(rng, ())
        moved = flow_step(chev, t, p, i)
        worst = max(worst, stabilizer_residual(moved.g, moved.x))
        if moved.x is not p.x:
            worst = max(worst, 1.0)  # algebra part must be carried unchanged
    return worst, 1e-9, samples


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


@_register("cent_invariants_group_independent")
def _check_invariants_group_independent(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_section_point(chev, rng)
        p1 = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
        p2 = ZPoint(g=random_stabilizer_element(chev, rng, x), x=x)
        dev = float(np.linalg.norm(z_invariants(chev, p1) - z_invariants(chev, p2)))
        worst = max(worst, dev)
    return worst, 1e-15, samples


@_register("cent_hamiltonian_isotropy")
def _check_ham_isotropy(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = _random_z_point(chev, rng)
        fields = [hamiltonian_field(chev, p, i) for i in range(1, chev.r + 1)]
        for vi in fields:
            for vj in fields:
                worst = max(worst, abs(symplectic_form(chev, p.x, vi, vj)))
    return worst, 1e-10, samples


@_register("cent_hamiltonian_duality_fd")
def _check_ham_duality(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        c = random_cjl_point(chev, rng)
        p = cjl_chart(chev, c)
        dirs = [chart_pushforward_lambda(chev, c, i) for i in range(1, chev.r + 1)]
        dirs += [chart_pushforward_section(chev, c, j) for j in range(1, chev.r + 1)]
        for i in range(1, chev.r + 1):
            ham = hamiltonian_field(chev, p, i)
            grad = invariant_gradient(chev, p.x, i)
            for v in dirs:
                lhs = symplectic_form(chev, p.x, ham, v)
                rhs = pairing(grad, v.z)
                worst = max(worst, abs(lhs - rhs))
    return worst, 1e-6, samples


@_register("cent_cjl_surjectivity")
def _check_cjl_surjectivity(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = random_section_point(chev, rng)
        grads = invariant_gradients(chev, x)
        coeffs = np.array([complex_uniform(rng, ()) * (0.5 / max(1.0, linalg.norm(g)))
                           for g in grads])
        y = sum(ci * gi for ci, gi in zip(coeffs, grads))
        g = linalg.mat_exp(y)
        basis = np.stack([gi.ravel() for gi in grads], axis=1)
        recovered, *_ = np.linalg.lstsq(basis, y.ravel(), rcond=None)
        rebuilt = cjl_chart(chev, CJLPoint(lam=recovered, s=x))
        worst = max(worst, scalar_aligned_distance(rebuilt.g, g))
    return worst, 1e-8, samples


@_register("cent_cjl_chart_rank")
def _check_cjl_rank(chev, rng, samples):
    bad = 0
    for _ in range(samples):
        c = random_cjl_point(chev, rng)
        cols = []
        for i in range(1, chev.r + 1):
            v = chart_pushforward_lambda(chev, c, i)
            cols.append(np.concatenate([v.y.ravel(), v.z.ravel()]))
        for j in range(1, chev.r + 1):
            v = chart_pushforward_section(chev, c, j)
            cols.append(np.concatenate([v.y.ravel(), v.z.ravel()]))
        jac = np.stack(cols, axis=1)
        sigma = np.linalg.svd(jac, compute_uv=False)
        bad += sigma[-1] <= 1e-6 * sigma[0]
    return float(bad), 0.5, samples


@_register("cent_flow_group_law")
def _check_flow_group_law(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = _random_z_point(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        t = complex_uniform(rng, (), scale=0.7)
        s = complex_uniform(rng, (), scale=0.7)
        lhs = flow_step(chev, t, flow_step(chev, s, p, i), i)
        rhs = flow_step(chev, t + s, p, i)
        worst = max(worst, _rel(lhs.g, rhs.g))
    return worst, 1e-10, samples


@_register("cent_cjl_factor_order")
def _check_cjl_factor_order(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        c = random_cjl_point(chev, rng)
        base = cjl_chart(chev, c)
        order = rng.permutation(chev.r)
        p = ZPoint(g=np.eye(chev.n, dtype=complex), x=np.asarray(c.s))
        for idx in order:
            p = flow_step(chev, c.lam[idx], p, int(idx) + 1)
        worst = max(worst, _rel(p.g, base.g))
    return worst, 1e-10, samples


@_register("cent_cjl_pullback")
def _check_cjl_pullback(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        res = cjl_pullback_deviation(chev, random_cjl_point(chev, rng))
        worst = max(worst, res.max_deviation)
    return worst, cjl_pullback_tolerance(chev.n), samples


# ----------------------------- toda ------------------------------------ #

@_register("toda_conservation")
def _check_toda_conservation(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = sample_flow_domain(chev, rng)
        x0 = toda_matrix(chev, p)
        base = invariant_vector(chev, x0)
        eig0 = np.sort_complex(linalg.eig(x0)[0])
        for i in range(1, chev.r + 1):
            for t in (0.1, 0.7):
                moved = toda_flow(chev, i, t, p)
                xt = toda_matrix(chev, moved)
                dev_f = float(np.linalg.norm(invariant_vector(chev, xt) - base))
                worst = max(worst, dev_f / (1.0 + float(np.linalg.norm(base))))
                eig_t = np.sort_complex(linalg.eig(xt)[0])
                worst = max(worst, float(np.max(np.abs(eig_t - eig0))))
    return worst, 1e-8, samples


@_register("toda_flow_semigroup")
def _check_toda_semigroup(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = sample_flow_domain(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        t = complex_uniform(rng, (), scale=0.5).real
        s = complex_uniform(rng, (), scale=0.5).real
        lhs = toda_matrix(chev, toda_flow(chev, i, s, toda_flow(chev, i, t, p)))
        rhs = toda_matrix(chev, toda_flow(chev, i, t + s, p))
        worst = max(worst, _rel(lhs, rhs))
    return worst, 1e-8, samples


@_register("toda_normal_forms_constant")
def _check_normal_forms_constant(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = sample_flow_domain(chev, rng)
        i = int(rng.integers(1, chev.r + 1))
        x0 = toda_matrix(chev, p)
        x1 = toda_matrix(chev, toda_flow(chev, i, 0.5, p))
        for fn in (chamber_form, section_form):
            worst = max(worst, _rel(fn(chev, x1), fn(chev, x0)))
        worst = max(worst, _rel(chamber_to_section_conjugator(chev, x1),
                                chamber_to_section_conjugator(chev, x0)))
    return worst, 1e-7, samples


@_register("toda_embed_triangle")
def _check_embed_triangle(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = sample_flow_domain(chev, rng)
        zp = embed(chev, p)
        base = invariant_vector(chev, toda_matrix(chev, p))
        dev = float(np.linalg.norm(z_invariants(chev, zp) - base))
        worst = max(worst, dev / (1.0 + float(np.linalg.norm(base))))
        gstar_factor(chev, zp.g)  # image membership
    return worst, 1e-9, samples


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


@_register("toda_embed_roundtrip")
def _check_embed_roundtrip(chev, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = sample_flow_domain(chev, rng)
        zp = embed(chev, p)
        back = embed_inverse(chev, zp)
        worst = max(worst, _rel(toda_matrix(chev, back), toda_matrix(chev, p)))
        again = embed(chev, back)
        worst = max(worst, scalar_aligned_distance(again.g, zp.g), _rel(again.x, zp.x))
    return worst, 1e-8, samples


@_register("toda_intertwine_flow")
def _check_intertwine_flow(chev, rng, samples):
    worst, used = 0.0, 0
    times = [0.4, -0.8, 0.3 + 0.2j]
    for k in range(samples):
        p = sample_flow_domain(chev, rng)
        i = 1 + (k % chev.r)
        t = times[k % len(times)]
        try:
            worst = max(worst, intertwine_check(chev, i, t, p))
            used += 1
        except NotInGStar:
            continue  # complex-time blow-up: both sides undefined together
    return worst, 1e-7, used


@_register("toda_intertwine_infinitesimal")
def _check_intertwine_infinitesimal(chev, rng, samples):
    worst = 0.0
    for k in range(samples):
        p = sample_flow_domain(chev, rng)
        i = 1 + (k % chev.r)
        worst = max(worst, intertwine_infinitesimal(chev, i, p))
    return worst, 1e-5, samples


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
    chev = build_chevalley(n)
    rng = stream(seed, name)
    start = time.perf_counter()
    try:
        max_dev, tol, used = CHECKS[name](chev, rng, samples)
    except Exception:  # a structural error inside a check is a failure, not a crash
        elapsed = time.perf_counter() - start
        return CheckResult(name=name, max_deviation=float("inf"), tolerance=0.0,
                           passed=False, samples=0, seconds=elapsed)
    elapsed = time.perf_counter() - start
    return CheckResult(name=name, max_deviation=float(max_dev), tolerance=float(tol),
                       passed=bool(max_dev <= tol), samples=int(used),
                       seconds=elapsed)


def run_all(n: int, seed: int, samples: int) -> Report:
    """Run every registered check, one after another, in registry order."""
    results = [run_check(name, n, seed, samples) for name in CHECKS]
    return Report(config={"n": n, "seed": seed, "samples": samples},
                  checks=tuple(results))
