"""Generators of the invariant ring of sl_n and the section inverse.

The chosen generators are the normalized power traces

    f_i(x) = tr(x^{i+1}) / (i + 1),      i = 1 .. r = n - 1,

homogeneous of degrees 2..n and algebraically independent.  Their trace-form
duals have the closed form  x^i - (tr x^i / n) I, which commutes with x.

Restricted to the Kostant section the map F = (f_1, ..., f_r) is a bijection
onto C^r; its inverse is computed by degree-graded forward substitution (the
coordinates of the section are triangular in the grading, with f_i exactly
linear in the i-th coordinate) followed by a short Newton polish.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import NoConvergence
from .lie_core import ChevalleyData, build_chevalley

CHAMBER_GAP = 1e-9


def invariant_vector(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """F(x) = (tr(x^2)/2, ..., tr(x^n)/n)."""
    x = linalg.as_matrix(x)
    out = np.zeros(chev.r, dtype=complex)
    p = x
    for i in range(1, chev.r + 1):
        p = p @ x
        out[i - 1] = np.trace(p) / (i + 1)
    return out


def invariant_gradient(chev: ChevalleyData, x: np.ndarray, i: int) -> np.ndarray:
    """Trace-form dual of d f_i at x:  x^i - (tr x^i / n) I.

    The result is traceless and commutes with x, so it lies in the
    centralizer of x.  Index i runs over 1..r.
    """
    if not 1 <= i <= chev.r:
        raise ValueError(f"invariant index {i} outside 1..{chev.r}")
    x = linalg.as_matrix(x)
    p = np.linalg.matrix_power(x, i)
    return p - (np.trace(p) / chev.n) * np.eye(chev.n)


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


def section_invariants(chev: ChevalleyData, coords) -> np.ndarray:
    """F evaluated on the section point with the given coordinates."""
    return invariant_vector(chev, chev.section_point(coords))


def section_from_invariants(chev: ChevalleyData, z) -> np.ndarray:
    """The unique section point x with F(x) = z.

    Forward substitution in the graded coordinates gives the exact solution
    in exact arithmetic; two Newton steps with a finite-difference Jacobian
    polish the floating-point result.  Raises :class:`NoConvergence` if the
    final residual exceeds 1e-10 * (1 + ||z||).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (chev.r,):
        raise ValueError(f"expected {chev.r} invariant values, got shape {z.shape}")
    gammas = _leading_coefficients(chev.n)

    coords = np.zeros(chev.r, dtype=complex)
    for i in range(1, chev.r + 1):
        partial = section_invariants(chev, coords)
        coords[i - 1] = (z[i - 1] - partial[i - 1]) / gammas[i - 1]

    tol = 1e-10 * (1.0 + float(np.linalg.norm(z)))
    step = 1e-7
    for _ in range(2):
        current = section_invariants(chev, coords)
        if np.linalg.norm(current - z) <= 1e-2 * tol:
            break
        jac = np.zeros((chev.r, chev.r), dtype=complex)
        for j in range(chev.r):
            bumped = coords.copy()
            bumped[j] += step
            jac[:, j] = (section_invariants(chev, bumped) - current) / step
        coords = coords + np.linalg.solve(jac, z - current)

    x = chev.section_point(coords)
    residual = float(np.linalg.norm(invariant_vector(chev, x) - z))
    if residual > tol:
        raise NoConvergence(
            f"section inversion residual {residual:.3e} exceeds {tol:.3e} "
            f"(n={chev.n}, ||z||={np.linalg.norm(z):.3e})")
    return x


def real_part_gap(values) -> float:
    """Smallest pairwise distance between the real parts of the values."""
    re = np.sort(np.real(np.asarray(values)))
    if re.size < 2:
        return np.inf
    return float(np.min(np.diff(re)))


def in_chamber_image(chev: ChevalleyData, z) -> bool:
    """Whether the invariant vector z comes from the open chamber.

    True iff the n roots of the characteristic polynomial encoded by z
    (the spectrum of the section point with invariants z) have pairwise
    distinct real parts with minimal gap > ``CHAMBER_GAP``.  Boundary spectra are
    rejected, never perturbed.
    """
    x = section_from_invariants(chev, z)
    values, _ = linalg.eig(x)
    return real_part_gap(values) > CHAMBER_GAP
