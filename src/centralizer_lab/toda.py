"""The Kostant-Toda lattice, solved by factorization, and its embedding
into the universal centralizer.

Phase-space points are tridiagonal: unit subdiagonal, traceless diagonal,
nonzero superdiagonal.  The flows are *defined* by factorization rather
than by an ODE: the time-t image of x under the i-th flow is obtained by
right-translating the stabilizer lift of x by exp(t * gradient) and
dressing the chamber form with the result.  Conservation of the invariants
is then structural, and the vector field is recovered from the flow by
central differences when needed.

The embedding sends x to (d * lift * d^{-1}, section form of x) where d
conjugates the chamber form to the section form; its image is the open
subset of the centralizer with regular-real-part spectrum and group part
in the translated big cell, and the inverse is constructive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .centralizer import ZPoint, check_z_point, flow_step, hamiltonian_field
from .errors import NoConvergence, NotInGStar, NotInV, NotInW
from .invariants import CHAMBER_GAP, invariant_gradient, real_part_gap
from .kostant_maps import (MIN_ROOT_COORD, NormalForms, chamber_form, decompose_to_section,
                           dress, normal_forms)
from .lie_core import ChevalleyData, build_chevalley, scalar_aligned_distance, traceless_part

# Largest LRU reuse distance measured is 1 (`check`; the Toda pipeline and
# `flow` reuse at 0), so 2 points keep every hit a bounded cache can get.
NORMAL_FORMS_CACHE_SIZE = 2


@dataclass(frozen=True)
class TodaPoint:
    """diag: the n diagonal entries (traceless); root_coords: the r nonzero
    superdiagonal entries."""

    diag: np.ndarray
    root_coords: np.ndarray


def make_toda_point(diag, root_coords) -> TodaPoint:
    diag = np.asarray(diag, dtype=complex)
    root_coords = np.asarray(root_coords, dtype=complex)
    if diag.ndim != 1 or root_coords.shape != (diag.size - 1,):
        raise ValueError("need n diagonal entries and n-1 superdiagonal entries")
    if abs(np.sum(diag)) > 1e-12 * (1.0 + float(np.linalg.norm(diag))):
        raise ValueError(f"diagonal part has trace {np.sum(diag):.3e}")
    if np.any(np.abs(root_coords) <= MIN_ROOT_COORD):
        raise ValueError("superdiagonal coordinates must be nonzero")
    return TodaPoint(diag=diag, root_coords=root_coords)


def toda_matrix(chev: ChevalleyData, p: TodaPoint) -> np.ndarray:
    """xi + diag + superdiagonal, the matrix of a phase-space point."""
    m = chev.xi + np.diag(p.diag.astype(complex))
    m += np.diag(p.root_coords.astype(complex), k=1)
    return m


def toda_point_from_matrix(chev: ChevalleyData, m: np.ndarray) -> TodaPoint:
    """Read a phase-space point off a matrix, verifying the tridiagonal
    shape (unit subdiagonal, nothing else off the three diagonals)."""
    m = linalg.as_matrix(m)
    scale = 1.0 + linalg.norm(m)
    structure = chev.xi + np.diag(np.diag(m)) + np.diag(np.diagonal(m, 1), k=1)
    off = linalg.norm(m - structure)
    if off > 1e-8 * scale:
        raise ValueError(f"matrix is {off:.3e} away from the Toda phase space")
    return make_toda_point(np.diag(m).copy(), np.diagonal(m, 1).copy())


def in_flow_domain(chev: ChevalleyData, p: TodaPoint) -> bool:
    """Whether the spectrum of p has real parts pairwise separated by more
    than ``CHAMBER_GAP``, i.e. whether the chamber normal form (and hence the
    factorization solution) exists at p."""
    values, _ = linalg.eig(toda_matrix(chev, p))
    return real_part_gap(values) > CHAMBER_GAP


@functools.lru_cache(maxsize=NORMAL_FORMS_CACHE_SIZE)
def _normal_forms_of(n: int, x: bytes) -> NormalForms:
    """Normal forms of the n x n Toda matrix with entries x (never stale)."""
    return normal_forms(build_chevalley(n), np.frombuffer(x, dtype=complex).reshape(n, n))


def toda_flow(chev: ChevalleyData, i: int, t: complex, p: TodaPoint) -> TodaPoint:
    """Time-t image of p under the i-th flow, by factorization.

    Raises :class:`NotInV` off the flow domain, :class:`NotInGStar`
    when the group trajectory leaves the translated big cell (the expected
    blow-up mode at complex time; the offending minor index is attached),
    and :class:`NoConvergence` when the dressed result misses the Toda
    phase space.
    """
    forms = _normal_forms_of(chev.n, toda_matrix(chev, p).tobytes())
    moved = forms.lift @ linalg.mat_exp(t * invariant_gradient(chev, forms.theta, i))
    result = dress(chev, forms.theta, moved)
    try:
        return toda_point_from_matrix(chev, result)
    except ValueError as exc:
        raise NoConvergence(f"dressed flow point left the phase space: {exc}") from exc


def toda_vector_field(chev: ChevalleyData, i: int, p: TodaPoint,
                      step: float = 1e-6) -> np.ndarray:
    """Central difference of the factorization flow at t = 0.

    The result is tangent to the phase space: diagonal plus superdiagonal,
    zero subdiagonal.  Residual mass outside that shape is checked and
    truncated.
    """
    m_plus = toda_matrix(chev, toda_flow(chev, i, step, p))
    m_minus = toda_matrix(chev, toda_flow(chev, i, -step, p))
    w = (m_plus - m_minus) / (2.0 * step)
    shaped = np.diag(np.diag(w)) + np.diag(np.diagonal(w, 1), k=1)
    off = linalg.norm(w - shaped)
    if off > 1e-5 * (1.0 + linalg.norm(w)):
        raise ValueError(f"flow derivative has off-shape mass {off:.3e}")
    return shaped


def embed(chev: ChevalleyData, p: TodaPoint) -> ZPoint:
    """The canonical centralizer point of p:
    (conjugated stabilizer lift, section form)."""
    forms = _normal_forms_of(chev.n, toda_matrix(chev, p).tobytes())
    g = forms.conj @ forms.lift @ linalg.inv(forms.conj)
    zp = ZPoint(g=g, x=forms.s.copy())
    # validation threshold follows the conditioning of the conjugated lift,
    # which only matters near the top of the supported rank range
    cond_g = linalg.norm(g) * linalg.norm(linalg.inv(g))
    return check_z_point(chev, zp, tol=1e-9 * (1.0 + cond_g),
                         tol_section=1e-10 * (1.0 + cond_g))


def embed_inverse(chev: ChevalleyData, zp: ZPoint) -> TodaPoint:
    """Constructive inverse of :func:`embed` on its image.

    Raises :class:`NotInW` when the spectrum has collided real parts or the
    (conjugated) group part falls outside the translated big cell.
    """
    cond_g = linalg.norm(zp.g) * linalg.norm(linalg.inv(zp.g))
    check_z_point(chev, zp, tol=1e-9 * (1.0 + cond_g),
                  tol_section=1e-10 * (1.0 + cond_g))
    try:
        z = chamber_form(chev, zp.x)
    except NotInV as exc:
        raise NotInW(str(exc)) from exc
    u_z = decompose_to_section(chev, z).u
    h = u_z @ zp.g @ linalg.inv(u_z)
    try:
        v = dress(chev, z, h)
    except NotInGStar as exc:
        raise NotInW(f"group part outside the embedding image: {exc}") from exc
    return toda_point_from_matrix(chev, v)


def rk4_toda(chev: ChevalleyData, i: int, p: TodaPoint, t_end: float,
             step: float = 1e-3, fd_step: float = 1e-6) -> TodaPoint:
    """Integrate the i-th vector field with classical RK4.

    This is a deliberately independent route to the time-t point: the field
    is itself a finite difference of the factorization flow, so agreement
    with :func:`toda_flow` at t_end is a local-to-global consistency check,
    not a tautology.
    """
    steps = max(1, round(abs(t_end) / step))
    h = t_end / steps
    m = toda_matrix(chev, p)

    def field(mat):
        return toda_vector_field(chev, i, toda_point_from_matrix(chev, mat),
                                 step=fd_step)

    for _ in range(steps):
        k1 = field(m)
        k2 = field(m + 0.5 * h * k1)
        k3 = field(m + 0.5 * h * k2)
        k4 = field(m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return toda_point_from_matrix(chev, m)


def intertwine_check(chev: ChevalleyData, i: int, t: complex, p: TodaPoint) -> float:
    """Deviation between flowing then embedding and embedding then flowing.

    Group parts are compared modulo scalar; both sides must be defined
    (the Toda side can raise :class:`NotInGStar` at complex time).
    """
    left = embed(chev, toda_flow(chev, i, t, p))
    right = flow_step(chev, t, embed(chev, p), i)
    dev_g = scalar_aligned_distance(left.g, right.g)
    dev_x = linalg.norm(left.x - right.x) / (1.0 + linalg.norm(right.x))
    return max(dev_g, dev_x)


def intertwine_infinitesimal(chev: ChevalleyData, i: int, p: TodaPoint,
                             step: float = 1e-6) -> float:
    """Deviation between the Hamiltonian field at the embedded point and the
    finite-difference pushforward of the Toda vector field.

    The group-direction derivative is compared in the scalar quotient, so
    its traceless part is the meaningful representative.
    """
    base = embed(chev, p)
    target = hamiltonian_field(chev, base, i)
    w = toda_vector_field(chev, i, p, step=step)
    m = toda_matrix(chev, p)
    plus = embed(chev, toda_point_from_matrix(chev, m + step * w))
    minus = embed(chev, toda_point_from_matrix(chev, m - step * w))
    y_fd = traceless_part(linalg.solve(base.g, (plus.g - minus.g) / (2.0 * step)))
    z_fd = (plus.x - minus.x) / (2.0 * step)
    dev_y = linalg.norm(y_fd - target.y) / (1.0 + linalg.norm(target.y))
    dev_z = linalg.norm(z_fd - target.z)
    return max(dev_y, dev_z)
