"""Normal forms and factorizations on the regular locus xi + b.

Three normal forms of a matrix x = xi + (upper triangular) with regular
spectrum are used throughout:

* the chamber form,  xi + diag(eigenvalues of x, sorted by strictly
  decreasing real part), the canonical conjugacy representative;
* the section form, the unique point of the Kostant section conjugate to x;
* the unipotent conjugators between x and these forms, which are unique.

Every unipotent conjugator is one column recurrence.  The upper
unitriangular u with Ad_u(y) = x, for x, y in xi + b and conjugate, solves
x u = u y column by column,

    u[:, 0] = e_1,   u[:, j+1] = (x - y[j, j]) u[:, j] - u[:, :j] y[:j, j],

and for a chamber form y the last term vanishes.  The section form is the
section inverse of the invariants of x, and the section decomposition the
recurrence towards it.

The "translated big cell" is w0_tilde * U_- * T * U, the open subset of
PGL_n on which the w0-translated Gauss factorization exists; membership
failures surface as :class:`NotInGStar` carrying the vanishing minor index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NoConvergence, NotCentralizing, NotInGStar, NotInV, NotInXiPlusB, SingularMinor
from .invariants import invariant_vector, section_from_invariants
from .lie_core import ChevalleyData, adjoint

# Spectra whose real parts are not pairwise separated by more than this
# have no chamber form.
CHAMBER_GAP = 1e-9


@dataclass(frozen=True)
class SectionDecomposition:
    """Pair (u, s): u upper unitriangular, s on the Kostant section,
    with Ad_u(s) equal to the decomposed matrix."""

    u: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class GStarFactorization:
    """Factors of g = w0_tilde * u_minus * torus * u, modulo scalar."""

    u_minus: np.ndarray
    torus: np.ndarray
    u: np.ndarray


def longest_weyl_lift(chev: ChevalleyData) -> np.ndarray:
    """The lift of the longest Weyl element normalized by its adjoint
    action on the simple root vectors.

    For sl_n the normalization Ad(w)(e_plus[i]) = e_minus[n-1-i] forces all
    antidiagonal entries to agree, so modulo scalar the lift is the exchange
    matrix (ones on the antidiagonal).
    """
    return np.fliplr(np.eye(chev.n, dtype=complex))


def _check_unitriangular(u: np.ndarray) -> np.ndarray:
    u = linalg.as_matrix(u)
    tol = 1e-12 * (1.0 + linalg.norm(u))
    if linalg.norm(np.tril(u, -1)) > tol or np.max(np.abs(np.diag(u) - 1.0)) > tol:
        raise ValueError("matrix is not upper unitriangular")
    return u


def unipotent_exp(q: np.ndarray) -> np.ndarray:
    """exp of a strictly triangular (nilpotent) matrix; the series stops.

    Nothing in the library calls it.  It exists only because the benchmark
    in ``perfbench/`` still traces it by name.
    """
    q = linalg.as_matrix(q)
    n = q.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, n):
        term = term @ q / k
        out = out + term
    return out


def conjugate_section(chev: ChevalleyData, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ad_u(s) for u upper unitriangular and s on the Kostant section."""
    u = _check_unitriangular(u)
    s = linalg.as_matrix(s)
    if not chev.on_section(s, tol=1e-10):
        raise ValueError("second argument is not on the Kostant section")
    return adjoint(u, s)


def decompose_to_section(chev: ChevalleyData, z: np.ndarray) -> SectionDecomposition:
    """Inverse of :func:`conjugate_section` on the traceless points of
    xi + (upper triangular).

    The section point is the section inverse of the invariants of z, and
    the conjugator the column recurrence :func:`unipotent_conjugator`
    towards it.  Raises :class:`NotInXiPlusB` when the strictly lower part
    of z differs from the unit subdiagonal or z has nonzero trace (the
    section is traceless, so no decomposition exists), and
    :class:`NoConvergence` if z u - u s, whose last column the recurrence
    leaves free, exceeds 1e-10 (1 + ||z||) (1 + cond u).
    """
    z = linalg.as_matrix(z)
    n = chev.n
    if z.shape[0] != n:
        raise NotInXiPlusB(f"expected size {n}, got {z.shape[0]}")
    scale = 1.0 + linalg.norm(z)
    if linalg.norm(np.tril(z, -1) - chev.xi) > 1e-12 * scale:
        raise NotInXiPlusB("strictly lower part is not the unit subdiagonal")
    if abs(np.trace(z)) > 1e-12 * scale:
        raise NotInXiPlusB(f"trace {np.trace(z):.3e} is not zero")

    s = section_from_invariants(chev, invariant_vector(chev, z))
    u = unipotent_conjugator(z, s)
    # the recurrence leaves the last column of z u = u s free
    residual = linalg.norm(z @ u - u @ s)
    cond_u = linalg.norm(u) * linalg.norm(linalg.inv(u))
    if residual > 1e-10 * scale * (1.0 + cond_u):
        raise NoConvergence(
            f"section conjugator leaves residual {residual:.3e}")
    return SectionDecomposition(u=u, s=s)


def real_part_gap(values) -> float:
    """Smallest pairwise distance between the real parts of the values."""
    re = np.sort(np.real(np.asarray(values)))
    if re.size < 2:
        return np.inf
    return float(np.min(np.diff(re)))


def chamber_form(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique conjugate of x of the shape xi + (diagonal with strictly
    decreasing real parts).

    The eigenvalues of such a matrix are its diagonal entries, so the form
    is xi + diag(spectrum of x sorted by decreasing real part).  Raises
    :class:`NotInV` when the real parts are not pairwise separated by
    more than ``CHAMBER_GAP``.
    """
    x = linalg.as_matrix(x)
    values, _ = linalg.eig(x)
    gap = real_part_gap(values)
    if not gap > CHAMBER_GAP:
        raise NotInV(f"spectrum real-part gap {gap:.3e} below {CHAMBER_GAP:.1e}")
    ordered = values[np.argsort(-values.real)]
    return chev.xi + np.diag(ordered)


def unipotent_conjugator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper unitriangular u with Ad_u(y) = x, for x and y in xi + b
    and conjugate, by the column recurrence of x u = u y.

    The relation is solved in columns 0..n-2; that of the last column holds
    only when x and y have one characteristic polynomial, and is not
    checked here.  For a chamber form y the strictly upper term is an
    exact zero.
    """
    u = np.eye(len(x), dtype=complex)
    for j in range(len(x) - 1):
        column = u[:j + 1, j]  # entry j+1 of the next column is the unit subdiagonal's 1
        u[:j + 1, j + 1] = (x[:j + 1, :j + 1] @ column - y[j, j] * column
                            - u[:j + 1, :j] @ y[:j, j])
    return u


def chamber_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u with Ad_u(chamber_form(x)) = x."""
    x = linalg.as_matrix(x)
    if linalg.norm(np.tril(x, -1) - chev.xi) > 1e-12 * (1.0 + linalg.norm(x)):
        raise NotInXiPlusB("strictly lower part is not the unit subdiagonal")
    return unipotent_conjugator(x, chamber_form(chev, x))


def section_form(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique point of the Kostant section conjugate to x in xi + b."""
    return decompose_to_section(chev, x).s


def chamber_to_section_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u conjugating the chamber form of x
    to its section form."""
    return unipotent_conjugator(section_form(chev, x), chamber_form(chev, x))


def gstar_factor(chev: ChevalleyData, g: np.ndarray) -> GStarFactorization:
    """Factor g as w0_tilde * u_minus * torus * u, modulo scalar.

    Existence is equivalent to the leading principal minors of orders
    1..n-1 of w0_tilde^{-1} g being nonzero; a vanishing one raises
    :class:`NotInGStar` with the minor index attached.
    """
    g = linalg.as_matrix(g)
    w0 = longest_weyl_lift(chev)
    translated = linalg.solve(w0, g)
    try:
        lower, diag, upper = linalg.gauss_ldu(translated)
    except SingularMinor as exc:
        raise NotInGStar(
            f"translated Gauss factorization fails at minor {exc.index}",
            minor_index=exc.index) from exc
    return GStarFactorization(u_minus=lower, torus=diag, u=upper)


def dress(chev: ChevalleyData, theta_x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Conjugate theta_x by the upper unitriangular factor of g.

    g must centralize theta_x and lie in the translated big cell; the
    result lies on the same invariant level set as theta_x.
    """
    theta_x = linalg.as_matrix(theta_x)
    moved = linalg.norm(adjoint(g, theta_x) - theta_x)
    cond_g = linalg.norm(g) * linalg.norm(linalg.inv(g))
    if moved > 1e-8 * (1.0 + cond_g) * (1.0 + linalg.norm(theta_x)):
        raise NotCentralizing(
            f"group element moves the chamber form by {moved:.3e}")
    factors = gstar_factor(chev, g)
    return adjoint(factors.u, theta_x)


@dataclass(frozen=True)
class NormalForms:
    """Normal forms of a Toda point x: chamber form theta, section form s,
    stabilizer lift, and g, the lift carried to s (Ad_g(s) = s)."""

    theta: np.ndarray
    s: np.ndarray
    lift: np.ndarray
    g: np.ndarray


def normal_forms(chev: ChevalleyData, x: np.ndarray) -> NormalForms:
    """The chamber form, section form and stabilizer lift of x, and the
    lift carried to the section form, from one section decomposition.

    The lift (the element of the translated big cell that centralizes
    theta = chamber_form(x) and dresses it to x) is K_tr^{-1} w0 t K_x, with
    K_x, K_tr the chamber conjugators of x and of Ad_{w0 t}(x), the point
    with reversed coordinates (t: partial products of the superdiagonal).
    With x = Ad_{u_x}(s) and u_tr the section conjugator of the reversed
    point, the lift carried to s is u_tr^{-1} w0 t u_x.  Every conjugator
    is a :func:`unipotent_conjugator` recurrence.  x must be in the Toda
    phase space.

    The embedding is restricted to points whose partial products t are
    finite and nonzero in floating point: where they overflow or underflow,
    :class:`NotInV` is raised.
    """
    x = linalg.as_matrix(x)
    y = np.diagonal(x, 1)
    if np.any(y == 0):
        raise ValueError("superdiagonal coordinates must be nonzero")
    partial = np.cumprod(y)
    if not np.all(np.isfinite(partial) & (partial != 0)):
        raise NotInV("partial products of the root coordinates leave the floating-point range")

    theta_x = chamber_form(chev, x)
    dec_x = decompose_to_section(chev, x)
    w0_t = longest_weyl_lift(chev) @ np.diag(np.concatenate(([1.0], partial)))
    translated = chev.xi + np.diag(np.diag(x)[::-1]) + np.diag(y[::-1], k=1)
    k_tr = unipotent_conjugator(translated, theta_x)
    lift = linalg.solve(k_tr, w0_t @ unipotent_conjugator(x, theta_x))
    moved = linalg.norm(adjoint(lift, theta_x) - theta_x)
    cond_lift = linalg.norm(lift) * linalg.norm(linalg.inv(lift))
    if moved > 1e-9 * (1.0 + cond_lift) * (1.0 + linalg.norm(theta_x)):
        raise NotCentralizing(
            f"assembled lift moves the chamber form by {moved:.3e}")
    u_tr = unipotent_conjugator(translated, dec_x.s)
    return NormalForms(theta=theta_x, s=dec_x.s, lift=lift,
                       g=linalg.solve(u_tr, w0_t @ dec_x.u))


def stabilizer_lift(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The stabilizer lift of x; see :func:`normal_forms`."""
    return normal_forms(chev, x).lift
