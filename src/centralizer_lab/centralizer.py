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
Hamiltonian fields are the left-invariant fields of the invariant gradients,
so flows act by right translation of g with x frozen, and composing the r
flows from the identity fiber gives an explicit chart (Caratheodory-Jacobi-Lie
coordinates) whose pullback of the symplectic form is checked against
sum(dz_i ^ df_i).  The chart's exponents are polynomials in s, so they
commute, and its i-th flow-time direction is exactly the Hamiltonian field
(gradient_i(s), 0).  Its section directions run along the coordinate fields
df_j of the invariants on the section, which is affine, so the z part of the
j-th section direction is df_j exactly.  Their y parts are exact too: the
derivative of exp at A along dA is the upper-right block of
exp([[A, dA], [0, A]]) (Higham, Functions of Matrices, 2008, section 3.2;
Najfeld and Havel, 1995), so one exponential of an (r, 2n, 2n) stack gives
all r of them.  One ladder s^0 .. s^r per chart point gives the gradients,
the fields and the exponents.  The form is evaluated on all pairs of the 2r
directions at once, as one Gram matrix of two matrix products.

The chart functions broadcast over a leading sample axis: m chart points
take one exponential of an (m r, 2n, 2n) stack and one Gram matrix call,
and a per-point call is the no-axis case of the same body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidZPoint
from .invariants import invariant_gradient, invariant_gradients, invariant_vector
from .lie_core import ChevalleyData, adjoint, stabilizer_residual, traceless_part
from .stacks import stacked

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


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a_i b_j) of (..., i, n, n) and (..., j, n, n), as vec(a_i) . vec(b_j^T)."""
    rows, cols = (m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,)) for m in (a, b.swapaxes(-1, -2)))
    return rows @ cols.swapaxes(-1, -2)


def symplectic_form(x: np.ndarray, left: Tangent, right: Tangent) -> np.ndarray:
    """Gram matrix of the ambient symplectic form at base algebra part x
    (..., n, n) on left-trivialized tangents along a direction axis,
    (..., a, n, n) and (..., b, n, n): entry (..., a, b) is
    Omega(left[a], right[b]),

        tr(y_a z_b) + tr((x y_a - y_a x - z_a) y_b).
    """
    x = linalg.as_matrix(x)[..., None, :, :]
    moved = x @ left.y - left.y @ x
    return _pair(left.y, right.z) + _pair(moved - left.z, right.y)


@stacked(2)
def check_z_point(chev: ChevalleyData, p: ZPoint) -> ZPoint:
    """Return p if x is on the section to ``SECTION_TOL`` and g stabilizes
    it to ``STABILIZER_TOL``; raise :class:`InvalidZPoint` otherwise."""
    return p, [
        InvalidZPoint(f"algebra part misses the section by relative {off:.3e}")
        if not off <= SECTION_TOL else
        InvalidZPoint(f"group part moves x by relative {moved:.3e}")
        if moved > STABILIZER_TOL else None
        for off, moved in zip(chev.section_residual(p.x), stabilizer_residual(p.g, p.x))]


@dataclass(frozen=True)
class MomentPreimageReport:
    """Sampled verification that the centralizer equals the moment-map
    preimage of (section) x (-section)."""

    total: int
    centralizer_members: int
    preimage_members: int
    mismatches: int
    max_member_residual: float


def moment_preimage_report(chev: ChevalleyData, g, x) -> MomentPreimageReport:
    """Check both inclusions on a sample of (g, x) pairs, stacks (m, n, n).

    Membership in the centralizer is the stabilizer condition; membership
    in the preimage asks that both moment values, Ad_g(x) and -x, land in
    (a sign flip of) the section, as -x does when x is on it.  Both are
    decided at ``STABILIZER_TOL``, and must agree on every sample.
    """
    tol, g, x = STABILIZER_TOL, linalg.as_matrix(g), linalg.as_matrix(x)
    mu_l, residual = adjoint(g, x), np.array(stabilizer_residual(g, x))
    on_sec = chev.section_residual(x) <= tol
    in_z, in_pre = on_sec & (residual <= tol), on_sec & (chev.section_residual(mu_l) <= tol)
    # the reported miss of Ad_g(x) is scale-free, over ||Ad_g(x)|| alone
    member_res = np.maximum(residual, np.divide(chev.section_coords(mu_l)[1],
                                                np.maximum(linalg.norm(mu_l), 1e-300)))
    return MomentPreimageReport(total=len(x), centralizer_members=int(in_z.sum()),
                                preimage_members=int(in_pre.sum()),
                                mismatches=int(np.count_nonzero(in_z != in_pre)),
                                max_member_residual=float(np.max(member_res[in_z], initial=0.0)))


@stacked(2)
def z_invariants(chev: ChevalleyData, p: ZPoint) -> np.ndarray:
    """The invariant system on the centralizer: invariants of the algebra
    part, independent of the group part."""
    _, errors = check_z_point(chev, p)
    return invariant_vector(chev, p.x), errors


def flow_step(chev: ChevalleyData, t, p: ZPoint, i) -> ZPoint:
    """Time-t flow of the i-th invariant: right-translate the group part by
    exp(t * gradient), keep the algebra part.  For a stacked p, t and i
    are shared or given per sample."""
    t = np.asarray(t, dtype=complex)[..., None, None]
    return ZPoint(g=p.g @ linalg.mat_exp(t * invariant_gradient(chev, p.x, i)), x=p.x)


def _flow_times(chev: ChevalleyData, c: CJLPoint) -> np.ndarray:
    lam = np.asarray(c.lam, dtype=complex)
    if lam.shape != np.shape(c.s)[:-2] + (chev.r,):
        raise ValueError(f"expected {chev.r} flow times, got shape {lam.shape}")
    return lam


def cjl_chart(chev: ChevalleyData, c: CJLPoint) -> ZPoint:
    """Compose the r flows starting from the identity fiber:
    (exp(sum_i lam_i * gradient_i(s)), s)."""
    lam = _flow_times(chev, c)
    total = (lam[..., None, None] * invariant_gradients(chev, c.s)).sum(axis=-3)
    return ZPoint(g=linalg.mat_exp(total), x=np.asarray(c.s, dtype=complex))


def hamiltonian_fields(chev: ChevalleyData, x: np.ndarray) -> Tangent:
    """The r Hamiltonian fields at algebra part x, along a direction axis."""
    grads = invariant_gradients(chev, x)
    return Tangent(y=grads, z=np.zeros_like(grads))


def coordinate_fields(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """Coordinate vector fields of the invariant coordinates on the section.

    Returns matrices df_1, ..., df_r (..., r, n, n) in the centralizer of
    eta satisfying d f_i (df_j) = delta_ij at the section point x.
    """
    return _dual_fields(chev, invariant_gradients(chev, x))


def _dual_fields(chev: ChevalleyData, grads: np.ndarray) -> np.ndarray:
    """The combinations df_j of eta, ..., eta^r with tr(grads[i] df_j) = delta_ij."""
    gram = _pair(grads, chev.centralizer_eta)
    return np.einsum("...kj,kab->...jab", np.linalg.inv(gram), chev.centralizer_eta)


def chart_pushforward_section(chev: ChevalleyData, c: CJLPoint, fields: np.ndarray,
                              powers: np.ndarray) -> Tangent:
    """Exact pushforwards of the section directions ``fields`` (the
    coordinate fields df_j, (..., r, n, n)) at c, left-trivialized.

    Moving s along v moves the exponent A = sum_i lam_i gradient_i(s) by
    dA = sum_i lam_i sum_{a+b=i-1} s^a v s^b, less its trace part, and the
    group part exp(A) by the Frechet derivative L_exp(A, dA), the
    upper-right block of exp([[A, dA], [0, A]]).  A and every dA come from
    the ladder ``powers`` s^0 .. s^r of :func:`linalg.matrix_powers`, and one
    exponential of the stack of all block matrices, r per chart point, gives
    every direction: its y part is E11^-1 E12 of its block, its z part v.
    """
    lam = _flow_times(chev, c)
    n, r = chev.n, chev.r
    # sum_{a+b<r} lam_{a+b+1} s^a v s^b = sum_a s^a v q_a, q_a = sum_b lam_{a+b+1} s^b
    padded = np.concatenate([lam, np.zeros_like(lam)], axis=-1)
    hankel = padded[..., np.add.outer(range(r), range(r))]  # lam_{a+b+1}, or 0
    q = np.einsum("...ab,...bxy->...axy", hankel, powers[..., :r, :, :])
    block = np.zeros(powers.shape[:-3] + (r, 2 * n, 2 * n), dtype=complex)
    exponent = traceless_part(np.einsum("...i,...iab->...ab", lam, powers[..., 1:, :, :]))
    block[..., :n, :n] = block[..., n:, n:] = exponent[..., None, :, :]
    block[..., :n, n:] = traceless_part((powers[..., :r, None, :, :] @ fields[..., None, :, :, :]
                                         @ q[..., :, None, :, :]).sum(axis=-4))
    e = linalg.mat_exp(block.reshape(-1, 2 * n, 2 * n)).reshape(block.shape)
    return Tangent(y=linalg.solve(e[..., :n, :n], e[..., :n, n:]), z=fields)


def chart_directions(chev: ChevalleyData, c: CJLPoint) -> Tangent:
    """Pushforwards of the 2r chart coordinate directions at c, along a
    direction axis (..., 2r, n, n): the r flow times, then the r invariant
    coordinates on the section.

    The chart's exponents commute, so the i-th flow-time direction is the
    Hamiltonian field (gradient_i(s), 0).  The section directions run along
    the coordinate fields df_j, so d f (z) of the j-th is the j-th unit
    vector; they are exact, from one block exponential on the gradients' ladder
    s^0 .. s^r (see :func:`chart_pushforward_section`); no chart is evaluated.
    """
    powers = linalg.matrix_powers(linalg.as_matrix(c.s), chev.r)
    grads = traceless_part(powers[..., 1:, :, :])
    section = chart_pushforward_section(chev, c, _dual_fields(chev, grads), powers)
    return Tangent(y=np.concatenate([grads, section.y], axis=-3),
                   z=np.concatenate([np.zeros_like(grads), section.z], axis=-3))


@dataclass(frozen=True)
class CJLPullbackResult:
    """Deviations of the chart pullback of the symplectic form from
    sum(dz_i ^ df_i), block by block: floats, or lists of them, one per
    chart point of a stack."""

    flow_flow: float
    flow_section: float
    section_section: float

    @property
    def max_deviation(self):
        return np.maximum(np.maximum(self.flow_flow, self.flow_section),
                          self.section_section).tolist()


def cjl_pullback_deviation(chev: ChevalleyData, c: CJLPoint,
                           fd_step=None) -> CJLPullbackResult:
    """Push the chart-coordinate basis through the chart and evaluate the
    symplectic form on all pairs, as one Gram matrix per chart point.

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
    return CJLPullbackResult(*(np.max(np.abs(block), axis=(-2, -1)).tolist() for block in (
        gram[..., :r, :r], gram[..., :r, r:] - np.eye(r), gram[..., r:, r:])))


def cjl_pullback_tolerance(n: int) -> float:
    """Pinned bound on the chart pullback deviation at rank n, shared by
    the ``cjl`` command and the ``cent_cjl_pullback`` check."""
    return 1e-5 if n <= 3 else 1e-4
