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

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NoConvergence, NotCentralizing, NotInGStar, NotInV, NotInXiPlusB
from .invariants import invariant_vector, section_from_invariants
from .lie_core import ChevalleyData, adjoint, stabilizer_residual
from .stacks import first_errors, stacked

# Spectra whose real parts are not pairwise separated by more than this
# have no chamber form.
CHAMBER_GAP = 1e-9
# Largest stabilizer residual of theta_x that dress and stabilizer_lift accept.
CENTRALIZING_TOL = 1e-8


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


@functools.lru_cache(maxsize=None)
def _exchange(n: int) -> np.ndarray:
    out = np.fliplr(np.eye(n, dtype=complex))
    out.flags.writeable = False
    return out


def longest_weyl_lift(chev: ChevalleyData) -> np.ndarray:
    """The lift of the longest Weyl element normalized by its adjoint
    action on the simple root vectors.

    For sl_n the normalization Ad(w)(e_plus[i]) = e_minus[n-1-i] forces all
    antidiagonal entries to agree, so modulo scalar the lift is the exchange
    matrix (ones on the antidiagonal), shared and read-only.
    """
    return _exchange(chev.n)


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


@stacked(2, points=2)
def conjugate_section(chev: ChevalleyData, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ad_u(s) for u upper unitriangular and s on the Kostant section;
    ValueError where u or s is not."""
    u, s = linalg.as_matrix(u), linalg.as_matrix(s)
    errors = [
        ValueError("matrix is not upper unitriangular")
        if low > 1e-12 * (1.0 + size) or unit > 1e-12 * (1.0 + size) else
        ValueError("second argument is not on the Kostant section") if not off <= 1e-10 else None
        for low, unit, size, off in zip(
            linalg.norm(np.tril(u, -1)), np.abs(np.diagonal(u, 0, -2, -1) - 1.0).max(axis=-1),
            linalg.norm(u), chev.section_residual(s))]
    # a failed u may be singular: those samples are conjugated by I
    failed = np.array([exc is not None for exc in errors])[:, None, None]
    return adjoint(np.where(failed, linalg.eye(chev.n), u), s), errors


@stacked(2)
def decompose_to_section(chev: ChevalleyData, z: np.ndarray) -> SectionDecomposition:
    """Inverse of :func:`conjugate_section` on the traceless points of
    xi + (upper triangular).

    The section point is the section inverse of the invariants of z, and
    the conjugator the column recurrence :func:`unipotent_conjugator`
    towards it.  Raises :class:`NotInXiPlusB` when the strictly lower part
    of z differs from the unit subdiagonal or z has nonzero trace (the
    section is traceless, so no decomposition exists), and
    :class:`NoConvergence` if z u - u s, whose last column the recurrence
    leaves free, exceeds 1e-10 (1 + ||z||) ||u||.
    """
    z = linalg.as_matrix(z)
    n = chev.n
    if z.shape[-1] != n:
        raise NotInXiPlusB(f"expected size {n}, got {z.shape[-1]}")
    scale = [1.0 + size for size in linalg.norm(z)]
    shape_errors = first_errors(_lower_part_errors(chev, z, scale), [
        NotInXiPlusB(f"trace {tr:.3e} is not zero") if abs(tr) > 1e-12 * sc else None
        for tr, sc in zip(z.diagonal(0, -2, -1).sum(-1).tolist(), scale)])
    s, errors = section_from_invariants(chev, invariant_vector(chev, z))
    u = unipotent_conjugator(z, s)
    # the recurrence leaves the last column of z u = u s free
    residual = linalg.norm(z @ u - u @ s)
    return SectionDecomposition(u=u, s=s), first_errors(shape_errors, errors, [
        NoConvergence(f"section conjugator leaves residual {res:.3e}")
        if res > 1e-10 * sc * size else None
        for res, sc, size in zip(residual, scale, linalg.norm(u))])


def _lower_part_errors(chev: ChevalleyData, x: np.ndarray, scale) -> list:
    """:class:`NotInXiPlusB` for each matrix of a stack x whose strictly lower
    part misses the unit subdiagonal by more than 1e-12 times its entry of
    ``scale``, the list of 1 + ||x||, else None."""
    off_shape = linalg.norm(np.where(linalg.strict_triangles(chev.n)[0], x, 0) - chev.xi)
    return [NotInXiPlusB("strictly lower part is not the unit subdiagonal")
            if off > 1e-12 * sc else None for off, sc in zip(off_shape, scale)]


def real_part_gap(values):
    """Smallest pairwise distance between the real parts of the values, per
    row for a stack."""
    re = np.sort(np.asarray(values).real, axis=-1)
    return (re[..., 1:] - re[..., :-1]).min(axis=-1)


@stacked(2)
def chamber_form(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique conjugate of x of the shape xi + (diagonal with strictly
    decreasing real parts).

    The eigenvalues of such a matrix are its diagonal entries, so the form
    is xi + diag(spectrum of x sorted by decreasing real part).  Raises
    :class:`NotInV` when the real parts are not pairwise separated by
    more than ``CHAMBER_GAP``.
    """
    values, errors = linalg.eigvals(x)
    ordered = values[np.arange(len(values))[:, None], (-values.real).argsort(-1)]
    return chev.xi + linalg.diag_matrix(ordered), first_errors(errors, chamber_errors(values))


def chamber_errors(values) -> list:
    """Per row of a stack of spectra, :class:`NotInV` when its real parts
    are not pairwise separated by more than ``CHAMBER_GAP``, else None."""
    return [None if gap > CHAMBER_GAP else
            NotInV(f"spectrum real-part gap {gap:.3e} below {CHAMBER_GAP:.1e}")
            for gap in real_part_gap(values).tolist()]


def unipotent_conjugator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper unitriangular u with Ad_u(y) = x, for x and y in xi + b
    and conjugate, by the column recurrence of x u = u y; matrix by matrix
    for stacks.

    The relation is solved in columns 0..n-2; that of the last column holds
    only when x and y have one characteristic polynomial, and is not
    checked here.  For a chamber form y the strictly upper term is an
    exact zero.
    """
    n = x.shape[-1]
    u = linalg.identities(np.broadcast_shapes(x.shape, y.shape))
    for j in range(n - 1):
        column = u[..., :j + 1, j]  # entry j+1 of the next column is the unit subdiagonal's 1
        u[..., :j + 1, j + 1] = (np.matvec(x[..., :j + 1, :j + 1], column)
                                 - y[..., j, j, None] * column
                                 - np.matvec(u[..., :j + 1, :j], y[..., :j, j]))
    return u


@stacked(2)
def chamber_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u with Ad_u(chamber_form(x)) = x."""
    x = linalg.as_matrix(x)
    theta, errors = chamber_form(chev, x)
    return unipotent_conjugator(x, theta), first_errors(
        _lower_part_errors(chev, x, [1.0 + size for size in linalg.norm(x)]), errors)


@stacked(2)
def section_form(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique point of the Kostant section conjugate to x in xi + b."""
    dec, errors = decompose_to_section(chev, x)
    return dec.s, errors


@stacked(2)
def chamber_to_section_conjugator(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The unique upper unitriangular u conjugating the chamber form of x
    to its section form."""
    s, errors = section_form(chev, x)
    theta, chamber = chamber_form(chev, x)
    return unipotent_conjugator(s, theta), first_errors(errors, chamber)


@stacked(2)
def gstar_factor(chev: ChevalleyData, g: np.ndarray) -> GStarFactorization:
    """Factor g as w0_tilde * u_minus * torus * u, modulo scalar.

    Existence is equivalent to the leading principal minors of orders
    1..n-1 of w0_tilde^{-1} g being nonzero; a vanishing one raises
    :class:`NotInGStar` with the minor index attached.  w0_tilde is the
    exchange matrix, its own inverse, so w0_tilde^{-1} g is the row
    reversal of g.  It is factored after exact power-of-two scalings of its
    rows, then columns, to largest moduli in [0.5, 1), so a torus factor
    grading g does not fail the pivot test; unscaled exactly, the factors
    equal a linear solve's by w0_tilde except, at most, in signs of zeros.
    """
    def scaled(a, rows, cols):  # a[..., i, j] * 2**(rows[..., i] + cols[..., j]), exactly
        shift = (rows[..., :, None] + cols[..., None, :])[..., None]  # over (real, imaginary)
        return np.ldexp(a[..., None].view(np.float64), shift).view(complex)[..., 0]
    translated = linalg.as_matrix(g)[..., ::-1, :]
    magnitude = np.abs(translated)
    rows = -np.frexp(magnitude.max(axis=-1))[1]
    cols = -np.frexp(np.ldexp(magnitude, rows[..., None]).max(axis=-2))[1]
    (lower, diag, upper), errors = linalg.gauss_ldu(scaled(translated, rows, cols))
    return GStarFactorization(u_minus=scaled(lower, -rows, rows),
                              torus=scaled(diag, -rows, -cols), u=scaled(upper, cols, -cols)), [
        None if exc is None else NotInGStar(
            f"translated Gauss factorization fails at minor {exc.index}", minor_index=exc.index)
        for exc in errors]


@stacked(2, points=2)
def dress(chev: ChevalleyData, theta_x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Conjugate theta_x by the upper unitriangular factor of g.

    g must centralize theta_x and lie in the translated big cell; the
    result lies on the same invariant level set as theta_x.
    """
    theta_x = linalg.as_matrix(theta_x)
    moved = _centralizing_errors(g, theta_x, "group element")
    factors, errors = gstar_factor(chev, g)
    return adjoint(factors.u, theta_x), first_errors(moved, errors)


def _centralizing_errors(g: np.ndarray, theta_x: np.ndarray, what: str) -> list:
    """:class:`NotCentralizing` for each g of a stack whose stabilizer
    residual of theta_x exceeds ``CENTRALIZING_TOL``, else None."""
    return [NotCentralizing(f"{what} moves the chamber form by relative {moved:.3e}")
            if moved > CENTRALIZING_TOL else None
            for moved in stabilizer_residual(g, theta_x)]


def weyl_translation(chev: ChevalleyData, x: np.ndarray):
    """``(x, w0 t, reversed point), errors`` for a stack x of Toda points, with
    t = diag(1, partial products of the superdiagonal); the reversed point
    Ad_{w0 t}(x) is x with its coordinates reversed.  Where the partial
    products overflow or underflow, :class:`NotInV` is raised and the Toda
    point xi + xi^T, all of whose partial products are 1, stands in."""
    x = linalg.as_matrix(x)
    y = x.diagonal(1, -2, -1)
    with np.errstate(over="ignore"):  # the range test below reports it
        partial = y.cumprod(-1)
    in_range = (np.isfinite(partial) & (partial != 0)).all(axis=-1)
    errors = [
        ValueError("superdiagonal coordinates must be nonzero") if zero else NotInV(
            "partial products of the root coordinates leave the floating-point range")
        if not ok else None for zero, ok in zip((y == 0).any(axis=-1).tolist(), in_range.tolist())]
    if not in_range.all():
        x = np.where(in_range[:, None, None], x, chev.xi + chev.xi.T)
        y = x.diagonal(1, -2, -1)
        partial = y.cumprod(-1)
    ones = np.ones(partial.shape[:-1] + (1,))
    w0_t = longest_weyl_lift(chev) @ linalg.diag_matrix(np.concatenate((ones, partial), axis=-1))
    reversed_x = (chev.xi + linalg.diag_matrix(x.diagonal(0, -2, -1)[..., ::-1])
                  + linalg.diag_matrix(y[..., ::-1], 1))
    return (x, w0_t, reversed_x), errors


def carried_lift(w0_t, reversed_x, y, u) -> np.ndarray:
    """u_rev^{-1} w0 t u for a normal form y of x, Ad_u(y) = x, and u_rev the
    conjugator of the reversed point to y: the stabilizer lift at the chamber
    form, and that lift carried to s at the section form s."""
    return linalg.solve(unipotent_conjugator(reversed_x, y), w0_t @ u)


@stacked(2)
def stabilizer_lift(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """The element of the translated big cell that centralizes theta =
    chamber_form(x) and dresses it to x, for x in the Toda phase space:
    :func:`carried_lift` at theta, K_rev^{-1} w0 t K_x."""
    (x, w0_t, reversed_x), errors = weyl_translation(chev, x)
    theta, chamber = chamber_form(chev, x)
    lift = carried_lift(w0_t, reversed_x, theta, unipotent_conjugator(x, theta))
    return lift, first_errors(errors, chamber, _centralizing_errors(lift, theta, "assembled lift"))
