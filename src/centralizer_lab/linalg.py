"""Dense complex matrix kernels for small matrices (design point n <= 8).

Everything operates on square ``numpy`` arrays of ``complex128``.  The
eigensolver and the matrix exponential are thin wrappers over LAPACK / the
scaling-and-squaring Pade code in SciPy; the no-pivot Gauss factorization is
written out explicitly because pivoting would destroy the unitriangular
structure the rest of the package depends on.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NoConvergence, SingularMinor

TOL_EIG = 1e-10
TOL_MINOR = 1e-12
TOL_EXP = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries, n >= 2."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValueError("matrices of size n >= 2 only")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def norm(a: np.ndarray) -> float:
    """Frobenius norm, the scale used by every tolerance in the package."""
    return float(np.linalg.norm(a))


def eig(a: np.ndarray):
    """Eigenvalues and eigenvectors of a general complex matrix.

    Returns ``(values, vectors)`` with ``a @ vectors[:, k] ~= values[k] *
    vectors[:, k]``; the values come back in no particular order.  Residuals
    are checked pair by pair and :class:`NoConvergence` is raised if any
    exceeds ``TOL_EIG * n * ||a||``.
    """
    a = as_matrix(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    scale = max(norm(a), 1e-300)
    residual = norm(a @ vectors - vectors * values[np.newaxis, :])
    if residual > TOL_EIG * scale * a.shape[0]:
        raise NoConvergence(
            f"eigenpair residual {residual:.3e} exceeds {TOL_EIG:.1e} * ||a||")
    return values, vectors


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade approximant."""
    return scipy.linalg.expm(as_matrix(a))


def gauss_ldu(a: np.ndarray):
    """Gauss factorization a = l d u without pivoting.

    ``l`` is lower unitriangular, ``d`` diagonal, ``u`` upper unitriangular.
    It exists iff the leading principal minors of orders 1..n-1 are nonzero.
    Pivot k is the ratio of the minors of orders k and k - 1; the first
    pivot k < n of modulus <= ``TOL_MINOR * ||a||`` (a test unchanged when a
    is rescaled) raises :class:`SingularMinor` with its 1-based order k.
    No pivoting is attempted: failure is reported, not repaired.

    The elimination runs on ``a`` scaled by the power of two that brings its
    largest real or imaginary part into [0.5, 1).  The scaling is exact, and
    subnormal or huge inputs neither underflow the norm nor overflow a
    division.  The zero matrix raises ``SingularMinor(1)``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    parts = np.ascontiguousarray(a).view(np.float64)  # real and imaginary parts
    peak = np.max(np.abs(parts))
    if peak == 0.0:
        raise SingularMinor(1)
    shift = -int(np.frexp(peak)[1])
    work = np.ldexp(parts, shift).view(complex)
    threshold = TOL_MINOR * norm(work)
    lower = np.eye(n, dtype=complex)
    upper = np.eye(n, dtype=complex)
    d = np.zeros(n, dtype=complex)
    for k in range(n - 1):
        d[k] = work[k, k]
        if abs(d[k]) <= threshold:
            raise SingularMinor(k + 1)
        lower[k + 1:, k] = work[k + 1:, k] / d[k]
        upper[k, k + 1:] = work[k, k + 1:] / d[k]
        work[k + 1:, k + 1:] -= np.outer(lower[k + 1:, k], work[k, k + 1:])
    d[n - 1] = work[n - 1, n - 1]
    return lower, np.diag(np.ldexp(d.view(np.float64), -shift).view(complex)), upper


def kernel_basis(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``.

    Columns of the returned array span the right singular directions whose
    singular values fall below ``tol * sigma_max``; for the zero matrix that
    is the full standard basis.  ``a`` may be rectangular.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("kernel_basis expects a 2-d array")
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    ncols = a.shape[1]
    if smax <= 0.0:
        return np.eye(ncols, dtype=complex)
    mask = np.ones(ncols, dtype=bool)
    mask[: s.size] = s < tol * smax
    return vh.conj().T[:, mask]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(a, b)


def inv(a: np.ndarray) -> np.ndarray:
    return np.linalg.inv(a)
