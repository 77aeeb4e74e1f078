"""Dense complex matrix kernels for small matrices (design point n <= 8).

Everything operates on square ``numpy`` arrays of ``complex128``, one
matrix or a stack (m, n, n) of them (see :mod:`stacks`).  The
eigensolvers, :func:`eigvals` for spectra and :func:`eig` for eigenpairs,
and the matrix exponential wrap LAPACK / the scaling-and-squaring Pade code
in SciPy; the no-pivot Gauss factorization is written out explicitly
because pivoting would destroy the unitriangular structure the rest of the
package depends on.

The flow domain, the chamber form and the Toda substeps all read the
spectrum of the same point, so :func:`eigvals` keeps the spectra of the
last stack it solved without an error, keyed by the stack's shape and
bytes, and hands out copies; :func:`forget_spectra` empties the memo.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .errors import NoConvergence, SingularMinor
from .stacks import first_errors, stacked

TOL_EIG = 1e-10
TOL_MINOR = 1e-12
TOL_EXP = 1e-13

_spectra = {}  # (shape, bytes) of the last stack solved without an error -> its spectra


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries, n >= 2, or to
    a stack (m, n, n) of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 2:
        raise ValueError("matrices of size n >= 2 only")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _norm(flat: np.ndarray) -> float:
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def vector_norm(v):
    """2-norm of a vector, or the list of the 2-norms of the rows of a
    stack (m, k).

    The squares of the real and the imaginary parts are summed as two dot
    products, as ``numpy.linalg.norm`` sums them, so a stacked norm equals
    the per-point one bit for bit.
    """
    v = np.asarray(v)
    if v.ndim == 1:
        return _norm(v)
    if len(v) == 1:  # one sample: two plain dot products
        return [_norm(v[0])]
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()


def norm(a):
    """Frobenius norm, the scale used by every tolerance in the package, of
    a matrix, or the list of the norms of the matrices of a stack."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return _norm(a.ravel(order="K"))
    return vector_norm(a.reshape(len(a), a.shape[-2] * a.shape[-1]))


def relative_distance(a, b):
    """||a - b|| / (1 + ||b||) of two matrices, or per matrix of two stacks."""
    return np.divide(norm(a - b), np.add(1.0, norm(b)))


def vector_relative_distance(a, b):
    """||a - b|| / (1 + ||b||) of two vectors, or per row of two stacks (m, k)."""
    return np.divide(vector_norm(a - b), np.add(1.0, vector_norm(b)))


@functools.lru_cache(maxsize=None)
def eye(n: int) -> np.ndarray:
    """The complex n x n identity, shared and read-only."""
    out = np.eye(n, dtype=complex)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def strict_triangles(n: int):
    """Masks of the strictly lower and strictly upper n x n triangles."""
    below = np.tri(n, k=-1, dtype=bool)
    return below, below.T.copy()


def identities(shape) -> np.ndarray:
    """A new complex array of the given shape (..., n, n) holding identity
    matrices."""
    out = np.empty(shape, dtype=complex)
    out[...] = eye(shape[-1])
    return out


def diag_matrix(v, k: int = 0) -> np.ndarray:
    """The complex matrix with v on its diagonal (k = 0) or superdiagonal
    (k = 1) and zeros elsewhere, or the stack of them for rows v of a
    stack (m, n - k)."""
    v = np.asarray(v)
    n = v.shape[-1] + k
    out = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    out.reshape(v.shape[:-1] + (n * n,))[..., k::n + 1][..., :n - k] = v
    return out


@stacked(2)
def eig(a: np.ndarray):
    """Eigenvalues and eigenvectors of a general complex matrix.

    Returns ``(values, vectors)`` with ``a @ vectors[:, k] ~= values[k] *
    vectors[:, k]``; the values come back in no particular order.  Residuals
    are checked pair by pair and :class:`NoConvergence` is raised if any
    exceeds ``TOL_EIG * n * ||a||``.
    """
    a = as_matrix(a)
    errors = [None] * len(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError:  # LAPACK fails the whole stack: find the samples
        values = np.full(a.shape[:-1], np.nan, dtype=complex)
        vectors = np.full(a.shape, np.nan, dtype=complex)
        for k, ak in enumerate(a):
            try:
                values[k], vectors[k] = np.linalg.eig(ak)
            except np.linalg.LinAlgError as exc:
                errors[k] = NoConvergence(f"eigensolver did not converge: {exc}")
                values[k], vectors[k] = 0.0, np.eye(a.shape[-1])
    n = a.shape[-1]
    residual = norm(a @ vectors - vectors * values[..., np.newaxis, :])
    return (values, vectors), first_errors(errors, [
        NoConvergence(f"eigenpair residual {res:.3e} exceeds {TOL_EIG:.1e} * ||a||")
        if res > TOL_EIG * max(size, 1e-300) * n else None
        for res, size in zip(residual, norm(a))])


def forget_spectra() -> None:
    """Empty the spectrum memo of :func:`eigvals`."""
    _spectra.clear()


@stacked(2)
def eigvals(a: np.ndarray):
    """The eigenvalues of :func:`eig`, bit for bit, without the eigenvectors
    and their residual test; :class:`NoConvergence` (and zeros, in a stack)
    where LAPACK does not converge.

    The last stack solved without an error is not solved again: its
    spectra are copied from the memo.  A stack with a failed sample is
    solved anew on every call, and leaves the memo as it was.
    """
    a = as_matrix(a)
    key = (a.shape, a.tobytes())
    kept = _spectra.get(key)
    if kept is not None:
        return kept.copy(), [None] * len(a)
    errors = [None] * len(a)
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError:  # LAPACK fails the whole stack: find the samples
        values = np.zeros(a.shape[:-1], dtype=complex)
        for k, ak in enumerate(a):
            try:
                values[k] = np.linalg.eigvals(ak)
            except np.linalg.LinAlgError as exc:
                errors[k] = NoConvergence(f"eigensolver did not converge: {exc}")
    if errors.count(None) == len(errors):
        _spectra.clear()
        _spectra[key] = values.copy()
    return values, errors


def matrix_powers(x: np.ndarray, k: int) -> np.ndarray:
    """x^0 .. x^k of a matrix or of each matrix of a stack, along a new axis
    (..., k + 1, n, n): x^1 is x itself, each later power the one before it
    times x, so a shorter ladder is a prefix of a longer one, bit for bit."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape[:-2] + (k + 1,) + x.shape[-2:], dtype=complex)
    out[..., 0, :, :] = eye(x.shape[-1])
    for i in range(1, k + 1):
        out[..., i, :, :] = x if i == 1 else out[..., i - 1, :, :] @ x
    return out


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade approximant,
    of a matrix or of each matrix of a stack."""
    return scipy.linalg.expm(as_matrix(a))


@stacked(2)
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
    division.  The zero matrix raises ``SingularMinor(1)``.  A failed
    sample of a stack gets identity factors.
    """
    a = as_matrix(a)
    n = a.shape[-1]
    parts = np.ascontiguousarray(a).view(np.float64)  # real and imaginary parts
    peak = np.abs(parts).reshape(len(a), 2 * n * n).max(axis=1, initial=0.0)
    shift = -np.frexp(peak)[1]
    work = np.ldexp(parts, shift[:, None, None]).view(complex)
    threshold = [TOL_MINOR * size for size in norm(work)]
    below, above = strict_triangles(n)
    # Step k divides column k below the pivot by it, l's column, and leaves
    # row k right of it final, u's row times the pivot.  A sample whose
    # pivot k fails runs on into inf and NaN, which its identity factors
    # replace; the other samples are not touched.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            work[:, k + 1:, k] /= work[:, k, k, None]
            work[:, k + 1:, k + 1:] -= work[:, k + 1:, k, None] * work[:, k, None, k + 1:]
        d = work.diagonal(0, 1, 2).copy()
        lower = np.where(below, work, eye(n))
        upper = np.where(above, work / d[:, :, None], eye(n))
    errors = [next((SingularMinor(k + 1) for k, pivot in enumerate(row) if not pivot > bound), None)
              for row, bound in zip(np.abs(d[:, :n - 1]).tolist(), threshold)]
    scaled = np.ldexp(d.view(np.float64), -shift[:, None]).view(complex)
    failed = [exc is not None for exc in errors]
    if any(failed):
        lower[failed], scaled[failed], upper[failed] = eye(n), 1.0, eye(n)
    return (lower, diag_matrix(scaled), upper), errors


def kernel_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``.

    Columns of the returned array span the right singular directions whose
    singular values fall below ``1e-10 * sigma_max``; for the zero matrix that
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
    mask[: s.size] = s < 1e-10 * smax
    return vh.conj().T[:, mask]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for matrices a, b or stacks of them."""
    return np.linalg.solve(a, b)


def inv(a: np.ndarray) -> np.ndarray:
    """a^{-1} of a matrix or of each matrix of a stack."""
    return np.linalg.inv(a)
