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
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
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
    The factorization exists iff every leading principal minor is nonzero.
    The minor of order k is the product of the first k pivots; one of
    modulus <= ``TOL_MINOR * ||a||`` raises :class:`SingularMinor` with the
    1-based order of the first offender.
    No pivoting is attempted: failure is reported, not repaired.
    """
    a = as_matrix(a)
    n = a.shape[0]
    threshold = TOL_MINOR * max(norm(a), 1e-300)
    lower = np.eye(n, dtype=complex)
    upper = np.eye(n, dtype=complex)
    work = a.copy()
    d = np.zeros(n, dtype=complex)
    minor = 1.0
    for k in range(n):
        d[k] = work[k, k]
        minor *= d[k]
        if abs(minor) <= threshold:
            raise SingularMinor(k + 1)
        lower[k + 1:, k] = work[k + 1:, k] / d[k]
        upper[k, k + 1:] = work[k, k + 1:] / d[k]
        work[k + 1:, k + 1:] -= np.outer(lower[k + 1:, k], work[k, k + 1:])
    return lower, np.diag(d), upper


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
