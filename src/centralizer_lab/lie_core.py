"""Structure data for g = sl_n(C).

Conventions (fixed once, used by every other module):

* simple positive root vectors  e_plus[i]  = E_{i,i+1}   (0-based list, i = 1..n-1 in math indexing),
* simple negative root vectors  e_minus[i] = E_{i+1,i},
* the regular nilpotent  xi = sum_i e_minus[i]  (unit subdiagonal),
* the coroot-like diagonal  h = diag(2k - n - 1, k = 1..n),  so every simple
  root takes the value -2 on h,
* eta = sum_i c_i e_plus[i]  with  c_i = i (n - i),  making (xi, h, eta) an
  sl_2-triple:  [h, xi] = 2 xi,  [h, eta] = -2 eta,  [xi, eta] = h.

The invariant pairing is the trace form tr(x y), not the Killing form
2n tr(x y); every construction in the package is invariant under a global
rescaling of the form as long as a single normalization is used throughout,
and the trace form keeps all structure constants integral.

The adjoint group of sl_n is PGL_n; group elements are invertible matrices
interpreted modulo a nonzero scalar; they are compared through
:func:`group_equal` / :func:`scalar_aligned_distance`, and every test that
g stabilizes x is the inverse-free :func:`stabilizer_residual`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, UnsupportedRank

MIN_RANK_PLUS_ONE = 2
MAX_RANK_PLUS_ONE = 8


@dataclass(frozen=True)
class ChevalleyData:
    """Immutable container of structure data for sl_n.

    Attributes:
      n:               matrix size (rank + 1).
      r:               rank, n - 1.
      e_plus, e_minus: simple root vectors as matrices.
      h:               the diagonal element with all simple roots equal to -2.
      xi:              regular nilpotent, sum of the e_minus.
      eta:             sl_2-partner of xi, sum of c[i] * e_plus[i].
      c:               integer coefficients c_i = i (n - i).
      centralizer_eta: basis eta, eta^2, ..., eta^r of the centralizer of eta,
                       one (r, n, n) array; the Kostant section is
                       xi + span(centralizer_eta).
    """

    n: int
    r: int
    e_plus: tuple
    e_minus: tuple
    h: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    c: tuple
    centralizer_eta: np.ndarray
    _section_pinv: np.ndarray = field(repr=False)

    def section_point(self, coords) -> np.ndarray:
        """xi + sum_k coords[k] * eta^(k+1), a point of the Kostant section,
        or the stack of them for coordinates of shape (m, r).  The powers of
        eta lie on disjoint superdiagonals, so each entry of the product
        has at most one nonzero term and the sum is exact."""
        coords = np.asarray(coords, dtype=complex)
        if coords.shape[-1:] != (self.r,):
            raise DimensionMismatch(
                f"expected {self.r} section coordinates, got shape {coords.shape}")
        terms = coords @ self.centralizer_eta.reshape(self.r, self.n * self.n)
        return self.xi + terms.reshape(coords.shape[:-1] + (self.n, self.n))

    def section_coords(self, x: np.ndarray):
        """Coordinates of x on the Kostant section plus the off-section residual.

        Returns ``(coords, residual)`` where ``residual`` is the Frobenius
        norm of x - xi - sum coords[k] eta^(k+1); for a stack x, one row of
        coordinates and one residual per matrix.
        """
        x = linalg.as_matrix(x)
        if x.shape[-1] != self.n:
            raise DimensionMismatch(f"expected size {self.n}, got {x.shape[-1]}")
        defect = (x - self.xi).reshape(x.shape[:-2] + (self.n * self.n,))
        coords = np.matvec(self._section_pinv, defect)
        return coords, linalg.norm(self.section_point(coords) - x)

    def section_residual(self, x: np.ndarray):
        """The residual of :meth:`section_coords` over 1 + ||x||, per matrix."""
        return np.divide(self.section_coords(x)[1], np.add(1.0, linalg.norm(x)))


def _matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _freeze(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=None)
def build_chevalley(n: int) -> ChevalleyData:
    """Construct (and cache) the structure data for sl_n, 2 <= n <= 8.

    The coefficients c_i = i (n - i) are the unique solution of the bracket
    recurrence c_{i-1} - c_i = 2i - n - 1 with c_0 = c_n = 0, which is
    exactly the condition [xi, eta] = h; tests assert the identity in exact
    integer arithmetic.
    """
    if not (MIN_RANK_PLUS_ONE <= n <= MAX_RANK_PLUS_ONE):
        raise UnsupportedRank(f"n = {n} outside supported range 2..8")
    r = n - 1
    e_plus = tuple(_freeze(_matrix_unit(n, i, i + 1)) for i in range(r))
    e_minus = tuple(_freeze(_matrix_unit(n, i + 1, i)) for i in range(r))
    h = _freeze(np.diag(np.array([2 * k - n - 1 for k in range(1, n + 1)], dtype=complex)))
    xi = _freeze(sum(e_minus) + 0j)
    c = tuple(i * (n - i) for i in range(1, n))
    eta = _freeze(sum(ci * ei for ci, ei in zip(c, e_plus)) + 0j)

    eta_powers = _freeze(linalg.matrix_powers(eta, r)[1:])
    section_pinv = _freeze(np.linalg.pinv(eta_powers.reshape(r, n * n).T))

    return ChevalleyData(
        n=n, r=r, e_plus=e_plus, e_minus=e_minus, h=h, xi=xi, eta=eta, c=c,
        centralizer_eta=eta_powers, _section_pinv=section_pinv)


def pairing(x: np.ndarray, y: np.ndarray):
    """The invariant trace form tr(x y) of two matrices, or matrix by
    matrix of stacks (..., n, n) broadcast against each other."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    for m in (x, y):
        linalg.as_matrix(m.reshape((-1,) + m.shape[-2:]))
    if x.shape[-2:] != y.shape[-2:]:
        raise DimensionMismatch(f"pairing of shapes {x.shape} and {y.shape}")
    return np.trace(x @ y, axis1=-2, axis2=-1)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _commutator_rows(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """kron(x, I) - kron(I, x^T), y -> [x, y] on row-major vec(y), and one
    more row ||x|| vec(I) for tr y = 0, for each matrix of a stack x."""
    eye = linalg.eye(chev.n)[None]
    trace_rows = np.maximum(linalg.norm(x), 1e-300)[:, None, None] * eye.reshape(1, 1, -1)
    return np.concatenate([np.kron(x, eye) - np.kron(eye, x.swapaxes(1, 2)), trace_rows], axis=1)


def centralizer_basis(chev: ChevalleyData, x: np.ndarray):
    """Numerical basis of the centralizer {y in sl_n : [x, y] = 0}, the
    null space of the commutator rows of x.  Scaled by ||x||, the trace row
    leaves the rank decision unchanged when x is rescaled, and its 1e-300
    floor gives the zero matrix all of sl_n."""
    kernel = linalg.kernel_basis(_commutator_rows(chev, linalg.as_matrix(x)[None])[0])
    return [kernel[:, k].reshape(chev.n, chev.n) for k in range(kernel.shape[1])]


def centralizer_dimension(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """:func:`centralizer_basis`'s rank decision for each matrix of a stack
    x, on one values-only SVD (its values match the full SVD's to rounding)."""
    sigma = np.linalg.svd(_commutator_rows(chev, linalg.as_matrix(x)), compute_uv=False)
    return np.count_nonzero(sigma < 1e-10 * sigma[:, :1], axis=1)


def adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ad_g(x) = g x g^{-1}; insensitive to rescaling g.  Stacks conjugate
    matrix by matrix."""
    g = linalg.as_matrix(g)
    return g @ x @ linalg.inv(g)


def stabilizer_residual(g: np.ndarray, x: np.ndarray):
    """||g x - x g|| / (||g|| ||x||), scale-free and inverse-free, so an
    ill-conditioned g is not charged for the rounding of g^{-1}; the list
    of them for stacks."""
    g = linalg.as_matrix(g)
    x = linalg.as_matrix(x)
    moved, size_g, size_x = linalg.norm(g @ x - x @ g), linalg.norm(g), linalg.norm(x)
    if g.ndim == 2:
        return moved / max(size_g * size_x, 1e-300)
    return [mv / max(a * b, 1e-300) for mv, a, b in zip(moved, size_g, size_x)]


def group_equal(g1: np.ndarray, g2: np.ndarray):
    """Equality in PGL_n: g1 g2^{-1} is within 1e-9 (relative) of a scalar
    matrix; one verdict per matrix for stacks."""
    m = linalg.as_matrix(g1) @ linalg.inv(g2)
    return np.less_equal(linalg.norm(traceless_part(m)), 1e-9 * np.maximum(linalg.norm(m), 1e-300))


def scalar_aligned_distance(g1: np.ndarray, g2: np.ndarray):
    """min over scalars c of ||c g1 - g2|| / ||g2||, the PGL_n deviation;
    one value per matrix for stacks."""
    g1 = linalg.as_matrix(g1)
    g2 = linalg.as_matrix(g2)
    flat = g1.shape[:-2] + (g1.shape[-1] ** 2,)  # not -1: a stack may be empty
    f1, f2 = g1.reshape(flat), g2.reshape(flat)
    denom = np.vecdot(f1, f1)
    c = np.divide(np.vecdot(f1, f2), denom, out=np.zeros_like(denom), where=denom != 0)
    return np.divide(linalg.norm(c[..., None, None] * g1 - g2),
                     np.maximum(linalg.norm(g2), 1e-300))


def traceless_part(m: np.ndarray) -> np.ndarray:
    """Projection of gl_n onto sl_n, the tangent space of the scalar
    quotient, of a matrix or of each matrix of an array (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    return m - (m.diagonal(0, -2, -1).sum(-1) / n)[..., None, None] * linalg.eye(n)
