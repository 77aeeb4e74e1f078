"""Generators of the invariant ring of sl_n and the section inverse.

The chosen generators are the normalized power traces

    f_i(x) = tr(x^{i+1}) / (i + 1),      i = 1 .. r = n - 1,

homogeneous of degrees 2..n and algebraically independent.  Their trace-form
duals have the closed form  x^i - (tr x^i / n) I, which commutes with x.
The invariants and their gradients read the powers of x from one ladder,
:func:`linalg.matrix_powers`, so a power is the same product wherever it
is used.

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
from .lie_core import ChevalleyData, build_chevalley, pairing, traceless_part
from .stacks import stacked


def invariant_vector(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """F(x) = (tr(x^2)/2, ..., tr(x^n)/n), one row per matrix of a stack."""
    powers = linalg.matrix_powers(linalg.as_matrix(x), chev.n)[..., 2:, :, :]
    return powers.diagonal(0, -2, -1).sum(-1) / np.arange(2, chev.n + 1)


def invariant_gradients(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """Trace-form duals x^i - (tr x^i / n) I of d f_i at x, i = 1..r, along
    an axis (..., r, n, n); traceless and commuting with x, they lie in
    the centralizer of x."""
    return traceless_part(linalg.matrix_powers(linalg.as_matrix(x), chev.r)[..., 1:, :, :])


def invariant_gradient(chev: ChevalleyData, x: np.ndarray, i) -> np.ndarray:
    """The i-th of :func:`invariant_gradients`, i in 1..r; for a stack x
    it may also be one index per matrix."""
    return traceless_part(gradient_power(chev, x, i))


def gradient_power(chev: ChevalleyData, x: np.ndarray, i) -> np.ndarray:
    """x^i, the power whose traceless part is :func:`invariant_gradient`,
    as the ladder forms it; i as there."""
    if np.ndim(i) == 0 and 1 <= i <= chev.r:  # one label: the ladder up to x^i
        return functools.reduce(np.matmul, [linalg.as_matrix(x)] * int(i))
    labels = np.asarray(i)
    if not all(1 <= label <= chev.r for label in labels.ravel().tolist()):
        raise ValueError(f"invariant index {i} outside 1..{chev.r}")
    powers = linalg.matrix_powers(linalg.as_matrix(x), labels.max(initial=1))
    return powers[np.arange(len(labels)), labels]


@functools.lru_cache(maxsize=None)
def _leading_coefficients(n: int) -> np.ndarray:
    """gamma_i = tr(xi^i eta^i), the exactly-linear coefficient of the i-th
    section coordinate inside f_i."""
    chev = build_chevalley(n)
    xi_powers = linalg.matrix_powers(chev.xi, chev.r)[1:]
    gammas = pairing(xi_powers, chev.centralizer_eta)
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

    x = chev.section_point(np.zeros(z.shape, dtype=complex))
    for i in range(1, chev.r + 1):
        # the top power as the ladder forms it; a coordinate's term adds to
        # x exactly, so x is section_point of the coordinates found so far
        top = functools.reduce(np.matmul, [x] * (i + 1))
        coord = (z[:, i - 1] - top.diagonal(0, -2, -1).sum(-1) / (i + 1)) / gammas[i - 1]
        x = x + coord[:, None, None] * chev.centralizer_eta[i - 1]
    return x, [NoConvergence(f"relative section inversion residual {res:.3e} exceeds 1e-10")
               if res > 1e-10 else None
               for res in linalg.vector_relative_distance(invariant_vector(chev, x), z)]
