"""The Kostant-Toda lattice, solved by factorization, and its embedding
into the universal centralizer.

Phase-space points are tridiagonal: unit subdiagonal, traceless diagonal,
nonzero superdiagonal.  The i-th flow is the Lax equation
dx/dt = [(gradient f_i(x))_{>0}, x], solved by Symes' factorization: if
exp(t * gradient f_i(x)) = l d u (unit lower, diagonal, unit upper, no
pivoting), the time-t point is u x u^{-1}, and a vanishing leading minor
(tau-function) of the exponential is the blow-up of the flow.

The embedding sends x to (u_rev^{-1} w0 t u_x, s): s is the section form
of x, u_x and u_rev its conjugators to x and to the reversed point, t the
partial products of the superdiagonal.  Its image is the open subset of
the centralizer with regular-real-part spectrum and group part in the
translated big cell.  The row reversal of g is lower unitriangular times
t times u_x, so by uniqueness u_x is the upper factor of its translated
Gauss factorization, and the inverse conjugates s by it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .centralizer import ZPoint, check_z_point, flow_step
from .errors import NoConvergence, NotInGStar, NotInW
from .invariants import gradient_power, invariant_gradient
from .kostant_maps import (
    carried_lift,
    chamber_errors,
    decompose_to_section,
    gstar_factor,
    weyl_translation,
)
from .lie_core import ChevalleyData, adjoint, bracket, scalar_aligned_distance, traceless_part
from .stacks import first_errors, per_sample, stacked

# Most substeps of one flow; a longer flow fails with NoConvergence.
MAX_SUBSTEPS = 10_000


@dataclass(frozen=True)
class TodaPoint:
    """diag: the n diagonal entries (traceless); root_coords: the r nonzero
    superdiagonal entries."""

    diag: np.ndarray
    root_coords: np.ndarray


@stacked(1, points=2)
def make_toda_point(diag, root_coords) -> TodaPoint:
    diag = np.asarray(diag, dtype=complex)
    root_coords = np.asarray(root_coords, dtype=complex)
    if diag.ndim != 2 or root_coords.shape != (len(diag), diag.shape[1] - 1):
        raise ValueError("need n diagonal entries and n-1 superdiagonal entries")
    trace = diag.sum(-1).tolist()
    zero = (root_coords == 0).any(axis=-1).tolist()
    return TodaPoint(diag=diag, root_coords=root_coords), [
        ValueError(f"diagonal part has trace {tr:.3e}") if abs(tr) > 1e-12 * (1.0 + size)
        else ValueError("superdiagonal coordinates must be nonzero") if z else None
        for tr, size, z in zip(trace, linalg.vector_norm(diag), zero)]


def toda_matrix(chev: ChevalleyData, p: TodaPoint) -> np.ndarray:
    """xi + diag + superdiagonal, the matrix of a phase-space point, or the
    stack of them for a stacked point."""
    n, lead = chev.n, np.shape(p.diag)[:-1]
    entries = np.zeros(lead + (n * n,), dtype=complex)
    entries[..., ::n + 1] = p.diag
    entries[..., 1::n + 1] = p.root_coords
    return chev.xi + entries.reshape(lead + (n, n))


@stacked(2)
def toda_point_from_matrix(chev: ChevalleyData, m: np.ndarray) -> TodaPoint:
    """Read a phase-space point off a matrix, verifying the tridiagonal
    shape (unit subdiagonal, nothing else off the three diagonals)."""
    m = linalg.as_matrix(m)
    p = TodaPoint(diag=m.diagonal(0, -2, -1).copy(), root_coords=m.diagonal(1, -2, -1).copy())
    off = linalg.norm(np.where(_lax_band(chev.n), 0, m - chev.xi))  # m less its Toda matrix
    shape_errors = [ValueError(f"matrix is {o:.3e} away from the Toda phase space")
                    if o > 1e-8 * (1.0 + size) else None
                    for o, size in zip(off, linalg.norm(m))]
    _, errors = make_toda_point(p.diag, p.root_coords)
    return p, first_errors(shape_errors, errors)


def in_flow_domain(chev: ChevalleyData, p: TodaPoint) -> bool:
    """Whether the chamber normal form (and hence the factorization
    solution) exists at p, i.e. whether its spectrum passes the real-part
    test of :func:`chamber_form`."""
    return chamber_errors(linalg.eigvals(toda_matrix(chev, p))[None])[0] is None


@stacked(1)
def toda_flow(chev: ChevalleyData, i, t, p: TodaPoint) -> TodaPoint:
    """Time-t image of p under the i-th flow, by Symes' factorization, in
    substeps over which Re(t * eigenvalue^i) spreads by at most 8.

    For a stacked p, i and t are shared or given per sample, and each
    sample takes its own substeps.  Raises :class:`NotInV` off the flow
    domain, :class:`NotInGStar` when a tau-function (a leading minor of the
    exponential) vanishes, the blow-up mode at complex time, with the minor
    index attached, and :class:`NoConvergence` when the substep count is
    not finite or above :data:`MAX_SUBSTEPS`, or a substep misses the Toda
    phase space.  A failed sample's result is the point it had reached.
    """
    x = toda_matrix(chev, p)
    m = len(x)
    labels = np.asarray(i)
    times = list(t) if per_sample(t) else [t] * m
    values, errors = linalg.eigvals(x)
    with np.errstate(over="ignore", invalid="ignore"):  # a spread that is not finite fails
        exponents = (np.array(times, dtype=complex)[:, None] * values ** labels[..., None]).real
        spreads = (exponents.max(axis=-1) - exponents.min(axis=-1)).tolist()
    steps = [max(1, math.ceil(s / 8.0)) if s / 8.0 <= MAX_SUBSTEPS else 0 for s in spreads]
    errors = first_errors(errors, chamber_errors(values), [None if sk else NoConvergence(
        f"flow time {tk} has no finite substep count up to {MAX_SUBSTEPS}")
        for tk, sk in zip(times, steps)])
    # each sample's substep time is divided in Python, where a complex t
    # rounds as it does alone; numpy's complex division rounds otherwise
    dt = np.array([tk / sk if sk else 0 for tk, sk in zip(times, steps)],
                  dtype=complex)[:, None, None]
    for step in range(max(steps)):
        moving = [exc is None and s > step for s, exc in zip(steps, errors)]
        if not any(moving):
            break
        if step:
            x = toda_matrix(chev, p)
        # expm takes a stack matrix by matrix, so only the moving samples
        # are exponentiated; the others get identity factors
        exponent = dt * invariant_gradient(chev, x, labels)
        if all(moving):
            g = linalg.mat_exp(exponent)
        else:
            g = linalg.identities(x.shape)
            g[moving] = linalg.mat_exp(exponent[moving])
        (_, _, u), ldu_errors = linalg.gauss_ldu(g)
        q, point_errors = toda_point_from_matrix(chev, adjoint(u, x))
        errors = first_errors(errors, [
            None if exc is None else NotInGStar(
                f"tau-function {exc.index} of the flow vanishes", minor_index=exc.index)
            for exc in ldu_errors], [
            None if exc is None else NoConvergence(f"flow point left the phase space: {exc}")
            for exc in point_errors])
        keep = [not move or exc is not None for move, exc in zip(moving, errors)]
        if any(keep):  # a failed or finished sample keeps its point
            keep = np.array(keep)[:, None]
            q = TodaPoint(diag=np.where(keep, p.diag, q.diag),
                          root_coords=np.where(keep, p.root_coords, q.root_coords))
        p = q
    return p, errors


@stacked(1)
def toda_vector_field(chev: ChevalleyData, i, p: TodaPoint) -> np.ndarray:
    """The i-th Toda vector field in Lax form, [(gradient f_i(x))_{>0}, x].

    The result is tangent to the phase space: diagonal plus superdiagonal,
    zero subdiagonal.  Residual mass outside that shape is checked and
    truncated.  For a stacked p, i is shared or given per sample.
    """
    return _lax_field(chev, i, toda_matrix(chev, p))


@functools.lru_cache(maxsize=None)
def _lax_band(n: int):
    """The mask of the diagonal-superdiagonal band, n x n."""
    return np.tri(n, k=1, dtype=bool) & np.tri(n, dtype=bool).T


def _lax_field(chev: ChevalleyData, i, x: np.ndarray):
    """:func:`toda_vector_field` at a stack of phase-space matrices x."""
    # the gradient's trace shift only moves the diagonal, which the strict
    # upper triangle drops: take the triangle of x^i itself
    w = bracket(np.where(linalg.strict_triangles(chev.n)[1], gradient_power(chev, x, i), 0), x)
    shaped = np.where(_lax_band(chev.n), w, 0)
    return shaped, [ValueError(f"Lax field has off-shape mass {off:.3e}")
                    if off > 1e-5 * (1.0 + size) else None
                    for off, size in zip(linalg.norm(w - shaped), linalg.norm(w))]


@stacked(1)
def embed(chev: ChevalleyData, p: TodaPoint) -> ZPoint:
    """The canonical centralizer point of p, (u_rev^{-1} w0 t u_x, s): see
    :func:`weyl_translation` and :func:`carried_lift`."""
    (x, w0_t, reversed_x), errors = weyl_translation(chev, toda_matrix(chev, p))
    values, spectrum = linalg.eigvals(x)  # chamber_errors: NotInV off the flow domain
    dec, section = decompose_to_section(chev, x)
    zp = ZPoint(g=carried_lift(w0_t, reversed_x, dec.s, dec.u), x=dec.s)
    _, z_errors = check_z_point(chev, zp)
    return zp, first_errors(errors, spectrum, chamber_errors(values), section, z_errors)


@stacked(2)
def embed_inverse(chev: ChevalleyData, zp: ZPoint) -> TodaPoint:
    """Constructive inverse of :func:`embed` on its image.

    Raises :class:`NotInW` when the spectrum has collided real parts or g
    falls outside the translated big cell.
    """
    _, errors = check_z_point(chev, zp)
    values, spectrum = linalg.eigvals(zp.x)
    factors, big_cell = gstar_factor(chev, zp.g)
    q, point_errors = toda_point_from_matrix(chev, adjoint(factors.u, zp.x))
    return q, first_errors(errors, spectrum, [
        None if exc is None else NotInW(str(exc)) for exc in chamber_errors(values)], [
        None if exc is None else NotInW(f"group part outside the embedding image: {exc}")
        for exc in big_cell], point_errors)


def _flaschka_field(n: int, z: list) -> list:
    """Flow 1 in Flaschka's band coordinates (Flaschka, 1974): for the state
    z = a followed by y (the diagonal, then the superdiagonal), a_k' =
    y_k - y_{k-1} and y_k' = y_k (a_{k+1} - a_k), with y_0 = y_n = 0."""
    a, y = z[:n], [0j, *z[n:], 0j]
    return ([y[k + 1] - y[k] for k in range(n)]
            + [y[k + 1] * (a[k + 1] - a[k]) for k in range(n - 1)])


def rk4_toda(chev: ChevalleyData, p: TodaPoint, t_end: float, step: float = 1e-3) -> TodaPoint:
    """Integrate the first flow with classical RK4 on Flaschka's equations.

    An independent route to the time-t point: the band of the Lax field,
    written out in the point's coordinates and stepped on Python complex
    scalars, so agreement with :func:`toda_flow` at t_end checks the
    factorization against the ODE it solves.
    """
    n = chev.n
    steps = max(1, round(abs(t_end) / step))
    h = t_end / steps
    half, sixth = 0.5 * h, h / 6.0
    z = p.diag.tolist() + p.root_coords.tolist()
    for _ in range(steps):
        k1 = _flaschka_field(n, z)
        k2 = _flaschka_field(n, [v + half * k for v, k in zip(z, k1)])
        k3 = _flaschka_field(n, [v + half * k for v, k in zip(z, k2)])
        k4 = _flaschka_field(n, [v + h * k for v, k in zip(z, k3)])
        z = [v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(z, k1, k2, k3, k4)]
    return make_toda_point(z[:n], z[n:])


@stacked(1)
def intertwine_check(chev: ChevalleyData, i, t, p: TodaPoint) -> float:
    """Deviation between flowing then embedding and embedding then flowing.

    Group parts are compared modulo scalar; both sides must be defined
    (the Toda side can raise :class:`NotInGStar` at complex time).  For a
    stacked p, i and t are shared or given per sample.
    """
    base, base_errors = embed(chev, p)  # before the flow, which reads the same spectrum
    moved, errors = toda_flow(chev, i, t, p)
    left, left_errors = embed(chev, moved)
    right = flow_step(chev, t, base, i)
    return (np.maximum(scalar_aligned_distance(left.g, right.g),
                       linalg.relative_distance(left.x, right.x)),
            first_errors(errors, left_errors, base_errors))


@stacked(1)
def intertwine_infinitesimal(chev: ChevalleyData, i, p: TodaPoint) -> float:
    """Deviation between the Hamiltonian field at the embedded point and the
    central-difference pushforward, with step 1e-6, of the Toda vector field.

    The field is (invariant gradient, 0), so the algebra-direction
    derivative is measured by its norm.  The group-direction derivative is
    compared in the scalar quotient, so its traceless part is the
    meaningful representative.  For a stacked p, i is shared or given per
    sample.
    """
    step = 1e-6
    base, errors = embed(chev, p)
    w, field_errors = toda_vector_field(chev, i, p)
    m = toda_matrix(chev, p)
    plus, plus_errors = toda_point_from_matrix(chev, m + step * w)
    plus, plus_embed_errors = embed(chev, plus)
    minus, minus_errors = toda_point_from_matrix(chev, m - step * w)
    minus, minus_embed_errors = embed(chev, minus)
    y_fd = traceless_part(linalg.solve(base.g, (plus.g - minus.g) / (2.0 * step)))
    z_fd = (plus.x - minus.x) / (2.0 * step)
    dy = linalg.relative_distance(y_fd, invariant_gradient(chev, base.x, i))
    return np.maximum(dy, linalg.norm(z_fd)), first_errors(
        errors, field_errors, plus_errors, plus_embed_errors, minus_errors, minus_embed_errors)
