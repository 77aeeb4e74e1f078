"""The universal centralizer of sl_n and its integrable system.

Points are pairs (g, x) with x on the Kostant section and g in the
PGL_n-stabilizer of x.  Tangent vectors at (g, x) are always carried in
left-trivialized form (y, z): the pair represents (d_e L_g (y), z) with
y, z traceless matrices.  In these terms the ambient symplectic form reads

    Omega((y1, z1), (y2, z2)) = <y1, z2> - <y2, z1> + <x, [y1, y2]>

with the trace-form pairing; the universal centralizer sits inside as a
symplectic subvariety, so the same formula evaluates its form on tangent
vectors of the centralizer.

The invariant system assigns to (g, x) the invariant vector of x.  Its
Hamiltonian fields are the left-invariant fields of the invariant
gradients, so flows act by right translation of g with x frozen, and
composing the r flows from the identity fiber gives an explicit chart
(Caratheodory-Jacobi-Lie coordinates) whose pullback of the symplectic
form is checked against sum(dz_i ^ df_i) by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidZPoint
from .invariants import invariant_gradient, invariant_gradients, invariant_vector, section_from_invariants
from .lie_core import ChevalleyData, adjoint, bracket, pairing

STABILIZER_TOL = 1e-9
SECTION_TOL = 1e-10


@dataclass(frozen=True)
class Tangent:
    """Left-trivialized tangent vector (y, z) at a point (g, x)."""

    y: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ZPoint:
    """A point (g, x) of the universal centralizer."""

    g: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class CJLPoint:
    """Chart coordinates: flow times lam in C^r and a section point s."""

    lam: np.ndarray
    s: np.ndarray


def symplectic_form(chev: ChevalleyData, x: np.ndarray,
                    v1: Tangent, v2: Tangent) -> complex:
    """Ambient symplectic form at base algebra part x, left-trivialized."""
    return (pairing(v1.y, v2.z) - pairing(v2.y, v1.z)
            + pairing(x, bracket(v1.y, v2.y)))


def moment_left(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return adjoint(g, x)


def moment_right(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return -linalg.as_matrix(x)


def moment_pair(g: np.ndarray, x: np.ndarray):
    return moment_left(g, x), moment_right(g, x)


def stabilizer_residual(g: np.ndarray, x: np.ndarray) -> float:
    x = linalg.as_matrix(x)
    return linalg.norm(adjoint(g, x) - x) / max(linalg.norm(x), 1e-300)


def is_z_point(chev: ChevalleyData, g: np.ndarray, x: np.ndarray,
               tol: float = STABILIZER_TOL, tol_section: float = SECTION_TOL) -> bool:
    """Both centralizer invariants: x on the section, g stabilizing x."""
    try:
        g = linalg.as_matrix(g)
        x = linalg.as_matrix(x)
    except ValueError:
        return False
    if abs(np.linalg.det(g)) == 0.0:
        return False
    if not chev.on_section(x, tol=tol_section):
        return False
    return stabilizer_residual(g, x) <= tol


def check_z_point(chev: ChevalleyData, p: ZPoint,
                  tol: float = STABILIZER_TOL, tol_section: float = SECTION_TOL) -> ZPoint:
    if not chev.on_section(p.x, tol=tol_section):
        _, residual = chev.section_coords(p.x)
        raise InvalidZPoint(f"algebra part misses the section by {residual:.3e}")
    moved = stabilizer_residual(p.g, p.x)
    if moved > tol:
        raise InvalidZPoint(f"group part moves x by relative {moved:.3e}")
    return p


@dataclass(frozen=True)
class MomentPreimageReport:
    """Sampled verification that the centralizer equals the moment-map
    preimage of (section) x (-section)."""

    total: int
    centralizer_members: int
    preimage_members: int
    mismatches: int
    max_member_residual: float

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


def moment_preimage_report(chev: ChevalleyData, points,
                           tol: float = STABILIZER_TOL) -> MomentPreimageReport:
    """Check both inclusions on a sample of (g, x) pairs.

    Membership in the centralizer is the stabilizer condition; membership
    in the preimage asks that both moment values land in (a sign flip of)
    the section.  The two predicates must agree on every sample.
    """
    total = z_members = pre_members = mismatches = 0
    max_res = 0.0
    for g, x in points:
        total += 1
        mu_l, mu_r = moment_pair(g, x)
        on_sec = chev.on_section(x, tol=tol)
        in_z = on_sec and stabilizer_residual(g, x) <= tol
        in_pre = on_sec and chev.on_section(mu_l, tol=tol) and chev.on_section(-mu_r, tol=tol)
        z_members += in_z
        pre_members += in_pre
        if in_z != in_pre:
            mismatches += 1
        if in_z:
            max_res = max(max_res, stabilizer_residual(g, x),
                          chev.section_coords(mu_l)[1] / max(linalg.norm(mu_l), 1e-300))
    return MomentPreimageReport(total=total, centralizer_members=z_members,
                                preimage_members=pre_members, mismatches=mismatches,
                                max_member_residual=max_res)


def z_invariants(chev: ChevalleyData, p: ZPoint,
                 tol: float = STABILIZER_TOL) -> np.ndarray:
    """The invariant system on the centralizer: invariants of the algebra
    part, independent of the group part."""
    check_z_point(chev, p, tol=tol)
    return invariant_vector(chev, p.x)


def hamiltonian_field(chev: ChevalleyData, p: ZPoint, i: int) -> Tangent:
    """Left-trivialized Hamiltonian field of the i-th invariant:
    (invariant gradient of x, 0)."""
    zero = np.zeros((chev.n, chev.n), dtype=complex)
    return Tangent(y=invariant_gradient(chev, p.x, i), z=zero)


def flow_step(chev: ChevalleyData, t: complex, p: ZPoint, i: int) -> ZPoint:
    """Time-t flow of the i-th invariant: right-translate the group part by
    exp(t * gradient), keep the algebra part."""
    v = invariant_gradient(chev, p.x, i)
    return ZPoint(g=p.g @ linalg.mat_exp(t * v), x=p.x)


def cjl_chart(chev: ChevalleyData, c: CJLPoint) -> ZPoint:
    """Compose the r flows starting from the identity fiber:
    (exp(sum_i lam_i * gradient_i(s)), s)."""
    lam = np.asarray(c.lam, dtype=complex)
    if lam.shape != (chev.r,):
        raise ValueError(f"expected {chev.r} flow times, got shape {lam.shape}")
    total = np.zeros((chev.n, chev.n), dtype=complex)
    for li, grad in zip(lam, invariant_gradients(chev, c.s)):
        total += li * grad
    return ZPoint(g=linalg.mat_exp(total), x=np.asarray(c.s, dtype=complex))


def coordinate_fields(chev: ChevalleyData, x: np.ndarray):
    """Coordinate vector fields of the invariant coordinates on the section.

    Returns matrices df_1, ..., df_r in the centralizer of eta satisfying
    d f_i (df_j) = delta_ij at the section point x.
    """
    gram = np.zeros((chev.r, chev.r), dtype=complex)
    grads = invariant_gradients(chev, x)
    for i in range(chev.r):
        for j in range(chev.r):
            gram[i, j] = pairing(grads[i], chev.centralizer_eta[j])
    inv_gram = np.linalg.inv(gram)
    fields = []
    for j in range(chev.r):
        m = np.zeros((chev.n, chev.n), dtype=complex)
        for k in range(chev.r):
            m += inv_gram[k, j] * chev.centralizer_eta[k]
        fields.append(m)
    return fields


def chart_pushforward_lambda(chev: ChevalleyData, c: CJLPoint, i: int,
                             step: float = 1e-6) -> Tangent:
    """Central-difference pushforward of the i-th flow-time direction."""
    base = cjl_chart(chev, c)
    lam_p, lam_m = c.lam.copy(), c.lam.copy()
    lam_p[i - 1] += step
    lam_m[i - 1] -= step
    g_p = cjl_chart(chev, CJLPoint(lam_p, c.s)).g
    g_m = cjl_chart(chev, CJLPoint(lam_m, c.s)).g
    y = linalg.solve(base.g, (g_p - g_m) / (2.0 * step))
    return Tangent(y=y, z=np.zeros((chev.n, chev.n), dtype=complex))


def chart_pushforward_section(chev: ChevalleyData, c: CJLPoint, j: int,
                              step: float = 1e-6) -> Tangent:
    """Central-difference pushforward of the j-th invariant-coordinate
    direction on the section, moving along the coordinate line through the
    section inverse."""
    base = cjl_chart(chev, c)
    z0 = invariant_vector(chev, c.s)
    bump = np.zeros(chev.r, dtype=complex)
    bump[j - 1] = step
    x_p = section_from_invariants(chev, z0 + bump)
    x_m = section_from_invariants(chev, z0 - bump)
    g_p = cjl_chart(chev, CJLPoint(c.lam, x_p)).g
    g_m = cjl_chart(chev, CJLPoint(c.lam, x_m)).g
    y = linalg.solve(base.g, (g_p - g_m) / (2.0 * step))
    z = (x_p - x_m) / (2.0 * step)
    return Tangent(y=y, z=z)


@dataclass(frozen=True)
class CJLPullbackResult:
    """Deviations of the chart pullback of the symplectic form from
    sum(dz_i ^ df_i), block by block."""

    flow_flow: float
    flow_section: float
    section_section: float

    @property
    def max_deviation(self) -> float:
        return max(self.flow_flow, self.flow_section, self.section_section)


def cjl_pullback_deviation(chev: ChevalleyData, c: CJLPoint,
                           fd_step: float = 1e-6) -> CJLPullbackResult:
    """Push the chart-coordinate basis through the chart and evaluate the
    symplectic form on all pairs.

    The three exact blocks are 0, delta_ij, 0; the returned result holds the
    maximal absolute deviation per block.  ``fd_step`` must lie in
    [1e-8, 1e-4].
    """
    if not 1e-8 <= fd_step <= 1e-4:
        raise ValueError(f"fd_step {fd_step:g} outside [1e-8, 1e-4]")
    r = chev.r
    x0 = np.asarray(c.s, dtype=complex)
    flow_dirs = [chart_pushforward_lambda(chev, c, i, step=fd_step)
                 for i in range(1, r + 1)]
    section_dirs = [chart_pushforward_section(chev, c, j, step=fd_step)
                    for j in range(1, r + 1)]

    dev_ff = dev_fs = dev_ss = 0.0
    for i in range(r):
        for j in range(r):
            val_ff = symplectic_form(chev, x0, flow_dirs[i], flow_dirs[j])
            dev_ff = max(dev_ff, abs(val_ff))
            val_fs = symplectic_form(chev, x0, flow_dirs[i], section_dirs[j])
            expected = 1.0 if i == j else 0.0
            dev_fs = max(dev_fs, abs(val_fs - expected))
            val_ss = symplectic_form(chev, x0, section_dirs[i], section_dirs[j])
            dev_ss = max(dev_ss, abs(val_ss))
    return CJLPullbackResult(flow_flow=dev_ff, flow_section=dev_fs,
                             section_section=dev_ss)


def cjl_pullback_tolerance(n: int) -> float:
    """Pinned bound on the chart pullback deviation at rank n, shared by
    the ``cjl`` command and the ``cent_cjl_pullback`` check."""
    return 1e-5 if n <= 3 else 1e-4
