"""Normal forms and factorizations on the regular locus xi + b.

Three normal forms of a matrix x = xi + (upper triangular) with regular
spectrum are used throughout:

* the chamber form,  xi + diag(eigenvalues of x, sorted by strictly
  decreasing real part), the canonical conjugacy representative;
* the section form, the unique point of the Kostant section conjugate to x;
* the unipotent conjugators between x and these forms, which are unique.

The decomposition of xi + b into (unipotent, section point) pairs is
computed by graded elimination: per height band of the defect, the ambient
algebra splits as [xi, sl_n] + centralizer(eta), and conjugating by the
exponential of the solved height-(m+1) component clears the non-section
part of band m without touching lower bands.  The sweep terminates after
n - 1 bands.

The "translated big cell" is w0_tilde * U_- * T * U, the open subset of
PGL_n on which the w0-translated Gauss factorization exists; membership
failures surface as :class:`NotInGStar` carrying the vanishing minor index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NoConvergence, NotCentralizing, NotInGStar, NotInV, NotInXiPlusB, SingularMinor
from .invariants import CHAMBER_GAP, real_part_gap
from .lie_core import ChevalleyData, adjoint, build_chevalley

# Root coordinates (superdiagonal entries) of modulus at most this are zero.
MIN_ROOT_COORD = 1e-13


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
    """exp of a strictly triangular (nilpotent) matrix; the series stops."""
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


@functools.lru_cache(maxsize=None)
def _elimination_data(n: int):
    """Per-height solve operators for the graded decomposition.

    The entry for band m = 0..n-2 is the pseudoinverse of the map
    (height-(m+1) coefficients [, eta^m coefficient]) -> band-m
    coefficients of [xi, q] [+ c eta^m]; the split is a direct sum, so the
    solve is exact.
    """
    chev = build_chevalley(n)
    data = []
    for m in range(n - 1):
        cols = []
        for i in range(n - m - 1):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, i + m + 1] = 1.0
            cols.append(np.diagonal(chev.xi @ unit - unit @ chev.xi, m).copy())
        if m >= 1:
            cols.append(np.diagonal(chev.centralizer_eta[m - 1], m).copy())
        a = np.stack(cols, axis=1)
        data.append(np.linalg.pinv(a))
    return tuple(data)


def decompose_to_section(chev: ChevalleyData, z: np.ndarray) -> SectionDecomposition:
    """Inverse of :func:`conjugate_section` on xi + (upper triangular).

    Raises :class:`NotInXiPlusB` when the strictly lower part of z differs
    from the unit subdiagonal, and :class:`NoConvergence` if the eliminated
    matrix misses the section (relative to the conditioning of the
    accumulated conjugator).
    """
    z = linalg.as_matrix(z)
    n = chev.n
    if z.shape[0] != n:
        raise NotInXiPlusB(f"expected size {n}, got {z.shape[0]}")
    scale = 1.0 + linalg.norm(z)
    if linalg.norm(np.tril(z, -1) - chev.xi) > 1e-12 * scale:
        raise NotInXiPlusB("strictly lower part is not the unit subdiagonal")

    solvers = _elimination_data(n)
    current = z.astype(complex).copy()
    u = np.eye(n, dtype=complex)
    for m in range(n - 1):
        band = np.diagonal(current - chev.xi, m)
        coeffs = solvers[m] @ band
        q_coeffs = coeffs if m == 0 else coeffs[:-1]
        q = np.zeros((n, n), dtype=complex)
        for i, qi in enumerate(q_coeffs):
            q[i, i + m + 1] = qi
        step = unipotent_exp(q)
        step_inv = unipotent_exp(-q)
        current = step @ current @ step_inv
        u = u @ step_inv

    _, residual = chev.section_coords(current)
    # The guard scales with the conditioning of the accumulated conjugator:
    # a wrong elimination leaves a residual of the order of the input, far
    # above this bound even at rank 7.
    cond_u = linalg.norm(u) * linalg.norm(linalg.inv(u))
    if residual > 1e-10 * scale * (1.0 + cond_u):
        raise NoConvergence(
            f"graded elimination left section residual {residual:.3e}")
    return SectionDecomposition(u=u, s=current)


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


def chamber_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u with Ad_u(chamber_form(x)) = x."""
    u1 = decompose_to_section(chev, x).u
    u2 = decompose_to_section(chev, chamber_form(chev, x)).u
    return u1 @ linalg.inv(u2)


def section_form(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique point of the Kostant section conjugate to x in xi + b."""
    return decompose_to_section(chev, x).s


def chamber_to_section_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u conjugating the chamber form of x
    to its section form."""
    return linalg.inv(decompose_to_section(chev, chamber_form(chev, x)).u)


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
    conjugator conj with Ad_conj(theta) = s, stabilizer lift."""

    theta: np.ndarray
    s: np.ndarray
    conj: np.ndarray
    lift: np.ndarray


def normal_forms(chev: ChevalleyData, x: np.ndarray) -> NormalForms:
    """The chamber form, section decomposition and stabilizer lift of x.

    The lift is the unique element g of the translated big cell that
    centralizes theta = chamber_form(x) and satisfies dress(theta, g) = x.
    It is assembled in closed form from three factors: the upper factor is
    the chamber conjugator of x; the torus factor realizes the reciprocal
    superdiagonal coordinates of x as simple root characters; the lower
    factor is a w0-twisted chamber conjugator of the point with reversed
    coordinates (conjugating x by w0 * torus exactly reverses the diagonal
    and superdiagonal).  x must be tridiagonal with unit subdiagonal and
    nonzero superdiagonal (the Toda phase space).
    """
    x = linalg.as_matrix(x)
    n = chev.n
    y = np.diagonal(x, 1)
    if np.any(np.abs(y) <= MIN_ROOT_COORD):
        raise ValueError("superdiagonal coordinates must be nonzero")

    theta_x = chamber_form(chev, x)
    u_theta_inv = linalg.inv(decompose_to_section(chev, theta_x).u)

    dec_x = decompose_to_section(chev, x)
    u = dec_x.u @ u_theta_inv

    t_diag = np.ones(n, dtype=complex)
    for k in range(1, n):
        t_diag[k] = t_diag[k - 1] * y[k - 1]
    t = np.diag(t_diag)

    w0 = longest_weyl_lift(chev)
    translated = chev.xi + np.diag(np.diag(x)[::-1]) + np.diag(y[::-1], k=1)
    nu_translated = decompose_to_section(chev, translated).u @ u_theta_inv
    u_minus = linalg.solve(w0, linalg.inv(nu_translated)) @ w0

    lift = w0 @ u_minus @ t @ u
    moved = linalg.norm(adjoint(lift, theta_x) - theta_x)
    cond_lift = linalg.norm(lift) * linalg.norm(linalg.inv(lift))
    if moved > 1e-9 * (1.0 + cond_lift) * (1.0 + linalg.norm(theta_x)):
        raise NotCentralizing(
            f"assembled lift moves the chamber form by {moved:.3e}")
    return NormalForms(theta=theta_x, s=dec_x.s, conj=u_theta_inv, lift=lift)


def stabilizer_lift(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The stabilizer lift of x; see :func:`normal_forms`."""
    return normal_forms(chev, x).lift
