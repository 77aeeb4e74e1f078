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
form is checked against sum(dz_i ^ df_i).  The chart's exponents are
polynomials in s, so they commute, and its i-th flow-time direction is
exactly the Hamiltonian field (gradient_i(s), 0).  Its section directions
run along the coordinate fields df_j of the invariants on the section,
which is affine, so the z part of the j-th section direction is df_j
exactly.  Their y parts are exact too: the derivative of exp at A along
dA is the upper-right block of exp([[A, dA], [0, A]]) (Higham, Functions
of Matrices, 2008, section 3.2; Najfeld and Havel, 1995), so one
exponential of an (r, 2n, 2n) stack gives all r of them.  The form is
evaluated on all pairs of the 2r directions at once, as one Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import InvalidZPoint
from .invariants import invariant_gradient, invariant_gradients, invariant_vector
from .lie_core import ChevalleyData, adjoint, stabilizer_residual
from .stacks import per_sample, stacked

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


def symplectic_form(x: np.ndarray, left, right) -> np.ndarray:
    """Gram matrix of the ambient symplectic form at base algebra part x:
    entry (a, b) is Omega(left[a], right[b]) on left-trivialized tangents,

        tr(y_a z_b) - tr(z_a y_b) + tr((x y_a - y_a x) y_b).
    """
    x = linalg.as_matrix(x)
    left_y = np.stack([v.y for v in left])
    left_z = np.stack([v.z for v in left])
    right_y = np.stack([v.y for v in right])
    right_z = np.stack([v.z for v in right])
    moved = x @ left_y - left_y @ x
    return (np.einsum("aij,bji->ab", left_y, right_z)
            - np.einsum("aij,bji->ab", left_z, right_y)
            + np.einsum("aij,bji->ab", moved, right_y))


@stacked(2)
def check_z_point(chev: ChevalleyData, p: ZPoint) -> ZPoint:
    """Return p if x is on the section to ``SECTION_TOL`` and g stabilizes
    it to ``STABILIZER_TOL``; raise :class:`InvalidZPoint` otherwise."""
    _, missed = chev.section_coords(p.x)  # on the section: chev.on_section's test
    return p, [
        InvalidZPoint(f"algebra part misses the section by {off:.3e}")
        if not off <= SECTION_TOL * (1.0 + size) else
        InvalidZPoint(f"group part moves x by relative {moved:.3e}")
        if moved > STABILIZER_TOL else None
        for off, size, moved in zip(missed, linalg.norm(p.x), stabilizer_residual(p.g, p.x))]


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


def moment_preimage_report(chev: ChevalleyData, points) -> MomentPreimageReport:
    """Check both inclusions on a sample of (g, x) pairs.

    Membership in the centralizer is the stabilizer condition; membership
    in the preimage asks that both moment values land in (a sign flip of)
    the section.  Both are decided at ``STABILIZER_TOL``.  The two
    predicates must agree on every sample.
    """
    tol = STABILIZER_TOL
    total = z_members = pre_members = mismatches = 0
    max_res = 0.0
    for g, x in points:
        total += 1
        mu_l, mu_r = adjoint(g, x), -x
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


@stacked(2)
def z_invariants(chev: ChevalleyData, p: ZPoint) -> np.ndarray:
    """The invariant system on the centralizer: invariants of the algebra
    part, independent of the group part."""
    _, errors = check_z_point(chev, p)
    return invariant_vector(chev, p.x), errors


def hamiltonian_field(chev: ChevalleyData, p: ZPoint, i) -> Tangent:
    """Left-trivialized Hamiltonian field of the i-th invariant:
    (invariant gradient of x, 0); i may be given per sample of a stack."""
    y = invariant_gradient(chev, p.x, i)
    return Tangent(y=y, z=np.zeros_like(y))


def flow_step(chev: ChevalleyData, t, p: ZPoint, i) -> ZPoint:
    """Time-t flow of the i-th invariant: right-translate the group part by
    exp(t * gradient), keep the algebra part.  For a stacked p, t and i
    are shared or given per sample."""
    v = invariant_gradient(chev, p.x, i)
    if per_sample(t):
        t = np.asarray(t, dtype=complex)[:, None, None]
    return ZPoint(g=p.g @ linalg.mat_exp(t * v), x=p.x)


def _flow_times(chev: ChevalleyData, c: CJLPoint) -> np.ndarray:
    lam = np.asarray(c.lam, dtype=complex)
    if lam.shape != (chev.r,):
        raise ValueError(f"expected {chev.r} flow times, got shape {lam.shape}")
    return lam


def cjl_chart(chev: ChevalleyData, c: CJLPoint) -> ZPoint:
    """Compose the r flows starting from the identity fiber:
    (exp(sum_i lam_i * gradient_i(s)), s)."""
    lam = _flow_times(chev, c)
    total = (lam[:, None, None] * np.stack(invariant_gradients(chev, c.s))).sum(axis=0)
    return ZPoint(g=linalg.mat_exp(total), x=np.asarray(c.s, dtype=complex))


def coordinate_fields(chev: ChevalleyData, x: np.ndarray):
    """Coordinate vector fields of the invariant coordinates on the section.

    Returns matrices df_1, ..., df_r in the centralizer of eta satisfying
    d f_i (df_j) = delta_ij at the section point x.
    """
    return _dual_fields(chev, np.stack(invariant_gradients(chev, x)))


def _dual_fields(chev: ChevalleyData, grads: np.ndarray):
    """The combinations df_j of eta, ..., eta^r with tr(grads[i] df_j) = delta_ij."""
    eta = np.stack(chev.centralizer_eta)
    gram = np.einsum("iab,jba->ij", grads, eta)
    return list(np.einsum("kj,kab->jab", np.linalg.inv(gram), eta))


def _traceless(m: np.ndarray) -> np.ndarray:
    n = m.shape[-1]
    return m - (np.trace(m, axis1=-2, axis2=-1) / n)[..., None, None] * linalg.eye(n)


def chart_pushforward_section(chev: ChevalleyData, c: CJLPoint, fields) -> list:
    """Exact pushforwards of the section directions ``fields`` (the
    coordinate fields df_j) at c, left-trivialized.

    Moving s along v moves the exponent A = sum_i lam_i gradient_i(s) by
    dA = sum_i lam_i sum_{a+b=i-1} s^a v s^b, less its trace part, and the
    group part exp(A) by the Frechet derivative L_exp(A, dA), the
    upper-right block of exp([[A, dA], [0, A]]).  The powers s^0 .. s^r
    are built once, every dA with stacked products, and one exponential
    of the stack of block matrices gives every direction: its y part is
    E11^-1 E12 of its block, its z part v itself.
    """
    lam = _flow_times(chev, c)
    n, r = chev.n, chev.r
    s = linalg.as_matrix(c.s)
    powers = np.empty((r + 1, n, n), dtype=complex)
    powers[0] = linalg.eye(n)
    for i in range(1, r + 1):
        powers[i] = powers[i - 1] @ s
    v = np.stack(fields)
    # sum_{a+b<r} lam_{a+b+1} s^a v s^b = sum_a s^a v q_a, q_a = sum_b lam_{a+b+1} s^b
    q = np.einsum("ab,bxy->axy", scipy.linalg.hankel(lam), powers[:r])
    block = np.zeros((r, 2 * n, 2 * n), dtype=complex)
    block[:, :n, :n] = block[:, n:, n:] = np.einsum("i,iab->ab", lam, _traceless(powers[1:]))
    block[:, :n, n:] = _traceless((powers[:r, None] @ v @ q[:, None]).sum(axis=0))
    e = linalg.mat_exp(block)
    y = linalg.solve(e[:, :n, :n], e[:, :n, n:])
    return [Tangent(y=yj, z=vj) for yj, vj in zip(y, v)]


def chart_directions(chev: ChevalleyData, c: CJLPoint) -> list:
    """Pushforwards of the 2r chart coordinate directions at c: the r flow
    times, then the r invariant coordinates on the section.

    The chart's exponents commute, so the i-th flow-time direction is the
    Hamiltonian field (gradient_i(s), 0).  The section directions run along
    the coordinate fields df_j, so d f (z) of the j-th is the j-th unit
    vector; they are exact, from one block exponential (see
    :func:`chart_pushforward_section`), and no chart is evaluated.
    """
    # the flows and the fields read the gradients that hamiltonian_field and
    # coordinate_fields read, bit for bit
    grads = invariant_gradients(chev, c.s)
    flows = [Tangent(y=y, z=np.zeros_like(y)) for y in grads]
    return flows + chart_pushforward_section(chev, c, _dual_fields(chev, np.stack(grads)))


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
                           fd_step=None) -> CJLPullbackResult:
    """Push the chart-coordinate basis through the chart and evaluate the
    symplectic form on all pairs, as one Gram matrix.

    The three exact blocks are 0, delta_ij, 0; the returned result holds the
    maximal absolute deviation per block.  Every direction is exact (see
    :func:`chart_directions`), so each block reads rounding only.
    ``fd_step`` is accepted and ignored: it exists only because the
    benchmark in ``perfbench/`` still passes the finite-difference step
    that the section directions no longer take.
    """
    r = chev.r
    dirs = chart_directions(chev, c)
    gram = symplectic_form(c.s, dirs, dirs)
    return CJLPullbackResult(
        flow_flow=float(np.max(np.abs(gram[:r, :r]))),
        flow_section=float(np.max(np.abs(gram[:r, r:] - np.eye(r)))),
        section_section=float(np.max(np.abs(gram[r:, r:]))))


def cjl_pullback_tolerance(n: int) -> float:
    """Pinned bound on the chart pullback deviation at rank n, shared by
    the ``cjl`` command and the ``cent_cjl_pullback`` check."""
    return 1e-5 if n <= 3 else 1e-4
