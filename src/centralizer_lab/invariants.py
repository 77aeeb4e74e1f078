"""Generators of the invariant ring of sl_n and the section inverse.

The chosen generators are the normalized power traces

    f_i(x) = tr(x^{i+1}) / (i + 1),      i = 1 .. r = n - 1,

homogeneous of degrees 2..n and algebraically independent.  Their trace-form
duals have the closed form  x^i - (tr x^i / n) I, which commutes with x.

Restricted to the Kostant section the map F = (f_1, ..., f_r) is a bijection
onto C^r; its inverse is computed by degree-graded forward substitution: the
coordinates of the section are triangular in the grading, with f_i exactly
linear in the i-th coordinate.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import NoConvergence
from .lie_core import ChevalleyData, build_chevalley
from .stacks import per_sample, stacked


def invariant_vector(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """F(x) = (tr(x^2)/2, ..., tr(x^n)/n), one row per matrix of a stack."""
    return _power_traces(linalg.as_matrix(x), chev.r)


def _power_traces(x: np.ndarray, count: int) -> np.ndarray:
    """tr(x^(i+1)) / (i + 1) for i = 1 .. count."""
    out = np.zeros(x.shape[:-2] + (count,), dtype=complex)
    p = x
    for i in range(1, count + 1):
        p = p @ x
        out[..., i - 1] = np.trace(p, axis1=-2, axis2=-1) / (i + 1)
    return out


def invariant_gradient(chev: ChevalleyData, x: np.ndarray, i) -> np.ndarray:
    """Trace-form dual of d f_i at x:  x^i - (tr x^i / n) I.

    The result is traceless and commutes with x, so it lies in the
    centralizer of x.  Index i runs over 1..r; for a stack x it may also
    be one index per matrix.
    """
    labels = np.asarray(i) if per_sample(i) else None
    if not (np.all((1 <= labels) & (labels <= chev.r)) if per_sample(i) else 1 <= i <= chev.r):
        raise ValueError(f"invariant index {i} outside 1..{chev.r}")
    x = linalg.as_matrix(x)
    if labels is None:
        p = np.linalg.matrix_power(x, int(i))
    else:
        p = np.empty_like(x)
        for label in np.unique(labels):
            p[labels == label] = np.linalg.matrix_power(x[labels == label], int(label))
    return p - (np.trace(p, axis1=-2, axis2=-1) / chev.n)[..., None, None] * linalg.eye(chev.n)


def invariant_gradients(chev: ChevalleyData, x: np.ndarray):
    return [invariant_gradient(chev, x, i) for i in range(1, chev.r + 1)]


@functools.lru_cache(maxsize=None)
def _leading_coefficients(n: int) -> np.ndarray:
    """gamma_i = tr(xi^i eta^i), the exactly-linear coefficient of the i-th
    section coordinate inside f_i."""
    chev = build_chevalley(n)
    gammas = np.zeros(chev.r, dtype=complex)
    xp = np.eye(n, dtype=complex)
    for i in range(1, chev.r + 1):
        xp = xp @ chev.xi
        gammas[i - 1] = np.trace(xp @ chev.centralizer_eta[i - 1])
    if np.any(np.abs(gammas) < 1e-12):
        raise NoConvergence("degenerate section grading coefficients")
    return gammas


@stacked(1)
def section_from_invariants(chev: ChevalleyData, z) -> np.ndarray:
    """The unique section point x with F(x) = z.

    Forward substitution in the graded coordinates gives the exact solution
    in exact arithmetic; step i needs the powers of the partial point up to
    i + 1 only.  Raises :class:`NoConvergence` if the residual of the
    floating-point result exceeds 1e-10 * (1 + ||z||).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[1:] != (chev.r,):
        raise ValueError(f"expected {chev.r} invariant values, got shape {z.shape[1:]}")
    gammas = _leading_coefficients(chev.n)

    coords = np.zeros(z.shape, dtype=complex)
    for i in range(1, chev.r + 1):
        partial = _power_traces(chev.section_point(coords), i)
        coords[:, i - 1] = (z[:, i - 1] - partial[:, i - 1]) / gammas[i - 1]

    x = chev.section_point(coords)
    residual = linalg.vector_norm(invariant_vector(chev, x) - z)
    return x, [
        NoConvergence(f"section inversion residual {res:.3e} exceeds {1e-10 * (1.0 + size):.3e} "
                      f"(n={chev.n}, ||z||={size:.3e})")
        if res > 1e-10 * (1.0 + size) else None
        for res, size in zip(residual, linalg.vector_norm(z))]
