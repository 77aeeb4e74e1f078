"""The Kostant-Toda lattice, solved by factorization, and its embedding
into the universal centralizer.

Phase-space points are tridiagonal: unit subdiagonal, traceless diagonal,
nonzero superdiagonal.  The i-th flow is the Lax equation
dx/dt = [(gradient f_i(x))_{>0}, x], solved by Symes' factorization: if
exp(t * gradient f_i(x)) = l d u (unit lower, diagonal, unit upper, no
pivoting), the time-t point is u x u^{-1}, and a vanishing leading minor
(tau-function) of the exponential is the blow-up of the flow.

The embedding sends x to (d * lift * d^{-1}, section form of x) where d
conjugates the chamber form to the section form; its image is the open
subset of the centralizer with regular-real-part spectrum and group part
in the translated big cell.  The inverse dresses the chamber form by the
group part, Kostant's route to the same flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .centralizer import ZPoint, check_z_point, flow_step, hamiltonian_field
from .errors import NoConvergence, NotInGStar, NotInV, NotInW, SingularMinor
from .invariants import invariant_gradient
from .kostant_maps import chamber_form, dress, normal_forms, unipotent_conjugator
from .lie_core import ChevalleyData, adjoint, bracket, scalar_aligned_distance, traceless_part


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
    if np.any(root_coords == 0):
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
    """Whether the chamber normal form (and hence the factorization
    solution) exists at p, i.e. whether :func:`chamber_form` accepts it."""
    try:
        chamber_form(chev, toda_matrix(chev, p))
    except NotInV:
        return False
    return True


def toda_flow(chev: ChevalleyData, i: int, t: complex, p: TodaPoint) -> TodaPoint:
    """Time-t image of p under the i-th flow, by Symes' factorization, in
    substeps over which Re(t * eigenvalue^i) spreads by at most 8.

    Raises :class:`NotInV` off the flow domain, :class:`NotInGStar` when a
    tau-function (a leading minor of the exponential) vanishes, the
    blow-up mode at complex time, with the minor index attached, and
    :class:`NoConvergence` when a substep misses the Toda phase space.
    """
    x = toda_matrix(chev, p)
    values = np.diag(chamber_form(chev, x))
    exponents = (t * values ** i).real
    steps = max(1, math.ceil((exponents.max() - exponents.min()) / 8.0))
    for _ in range(steps):
        g = linalg.mat_exp((t / steps) * invariant_gradient(chev, x, i))
        try:
            _, _, u = linalg.gauss_ldu(g)
        except SingularMinor as exc:
            raise NotInGStar(f"tau-function {exc.index} of the flow vanishes",
                             minor_index=exc.index) from exc
        try:
            p = toda_point_from_matrix(chev, adjoint(u, x))
        except ValueError as exc:
            raise NoConvergence(f"flow point left the phase space: {exc}") from exc
        x = toda_matrix(chev, p)
    return p


def toda_vector_field(chev: ChevalleyData, i: int, p: TodaPoint) -> np.ndarray:
    """The i-th Toda vector field in Lax form, [(gradient f_i(x))_{>0}, x].

    The result is tangent to the phase space: diagonal plus superdiagonal,
    zero subdiagonal.  Residual mass outside that shape is checked and
    truncated.
    """
    x = toda_matrix(chev, p)
    w = bracket(np.triu(invariant_gradient(chev, x, i), 1), x)
    shaped = np.diag(np.diag(w)) + np.diag(np.diagonal(w, 1), k=1)
    off = linalg.norm(w - shaped)
    if off > 1e-5 * (1.0 + linalg.norm(w)):
        raise ValueError(f"Lax field has off-shape mass {off:.3e}")
    return shaped


def embed(chev: ChevalleyData, p: TodaPoint) -> ZPoint:
    """The canonical centralizer point of p:
    (conjugated stabilizer lift, section form)."""
    forms = normal_forms(chev, toda_matrix(chev, p))
    return check_z_point(chev, ZPoint(g=forms.g, x=forms.s))


def embed_inverse(chev: ChevalleyData, zp: ZPoint) -> TodaPoint:
    """Constructive inverse of :func:`embed` on its image.

    Raises :class:`NotInW` when the spectrum has collided real parts or the
    (conjugated) group part falls outside the translated big cell.
    """
    check_z_point(chev, zp)
    try:
        z = chamber_form(chev, zp.x)
    except NotInV as exc:
        raise NotInW(str(exc)) from exc
    k_s = unipotent_conjugator(zp.x, z)
    try:
        v = dress(chev, z, linalg.solve(k_s, zp.g @ k_s))
    except NotInGStar as exc:
        raise NotInW(f"group part outside the embedding image: {exc}") from exc
    return toda_point_from_matrix(chev, v)


def rk4_toda(chev: ChevalleyData, i: int, p: TodaPoint, t_end: float,
             step: float = 1e-3) -> TodaPoint:
    """Integrate the i-th vector field with classical RK4.

    This is an independent route to the time-t point: the Lax field is
    evaluated in closed form, so agreement with :func:`toda_flow` at t_end
    checks the factorization against the ODE it solves.
    """
    steps = max(1, round(abs(t_end) / step))
    h = t_end / steps
    m = toda_matrix(chev, p)

    def field(mat):
        return toda_vector_field(chev, i, toda_point_from_matrix(chev, mat))

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


def intertwine_infinitesimal(chev: ChevalleyData, i: int, p: TodaPoint) -> float:
    """Deviation between the Hamiltonian field at the embedded point and the
    central-difference pushforward, with step 1e-6, of the Toda vector field.

    The group-direction derivative is compared in the scalar quotient, so
    its traceless part is the meaningful representative.
    """
    step = 1e-6
    base = embed(chev, p)
    target = hamiltonian_field(chev, base, i)
    w = toda_vector_field(chev, i, p)
    m = toda_matrix(chev, p)
    plus = embed(chev, toda_point_from_matrix(chev, m + step * w))
    minus = embed(chev, toda_point_from_matrix(chev, m - step * w))
    y_fd = traceless_part(linalg.solve(base.g, (plus.g - minus.g) / (2.0 * step)))
    z_fd = (plus.x - minus.x) / (2.0 * step)
    dev_y = linalg.norm(y_fd - target.y) / (1.0 + linalg.norm(target.y))
    dev_z = linalg.norm(z_fd - target.z)
    return max(dev_y, dev_z)
