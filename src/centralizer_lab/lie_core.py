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
interpreted modulo a nonzero scalar, and all comparisons of group elements
go through :func:`group_equal` / :func:`scalar_aligned_distance`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotInTorus, UnsupportedRank

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
      centralizer_eta: basis eta, eta^2, ..., eta^r of the centralizer of eta;
                       the Kostant section is xi + span(centralizer_eta).
      basis:           orthonormal (Frobenius) basis of sl_n used for
                       coordinates of the adjoint action.
    """

    n: int
    r: int
    e_plus: tuple
    e_minus: tuple
    h: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    c: tuple
    centralizer_eta: tuple
    basis: tuple
    _section_pinv: np.ndarray = field(repr=False)

    def section_point(self, coords) -> np.ndarray:
        """xi + sum_k coords[k] * eta^(k+1), a point of the Kostant section."""
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.r,):
            raise DimensionMismatch(
                f"expected {self.r} section coordinates, got shape {coords.shape}")
        x = self.xi.astype(complex).copy()
        for ck, bk in zip(coords, self.centralizer_eta):
            x = x + ck * bk
        return x

    def section_coords(self, x: np.ndarray):
        """Coordinates of x on the Kostant section plus the off-section residual.

        Returns ``(coords, residual)`` where ``residual`` is the Frobenius
        norm of x - xi - sum coords[k] eta^(k+1).
        """
        x = linalg.as_matrix(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected size {self.n}, got {x.shape[0]}")
        defect = (x - self.xi).ravel()
        coords = self._section_pinv @ defect
        residual = linalg.norm(self.section_point(coords) - x)
        return coords, float(residual)

    def on_section(self, x: np.ndarray, tol: float = 1e-10) -> bool:
        _, residual = self.section_coords(x)
        return residual <= tol * (1.0 + linalg.norm(x))


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

    powers = []
    p = np.eye(n, dtype=complex)
    for _ in range(r):
        p = p @ eta
        powers.append(_freeze(p.copy()))
    centralizer_eta = tuple(powers)

    # Orthonormal basis of sl_n: the matrix units off the diagonal are
    # already orthonormal in the Frobenius inner product; the traceless
    # diagonal part gets an explicit orthonormalization.
    basis = [_matrix_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    diag_raw = np.zeros((n, r), dtype=complex)
    for k in range(r):
        diag_raw[k, k] = 1.0
        diag_raw[k + 1, k] = -1.0
    q, _ = np.linalg.qr(diag_raw)
    for k in range(r):
        basis.append(np.diag(q[:, k]))
    basis = tuple(_freeze(b) for b in basis)

    section_matrix = np.stack([b.ravel() for b in centralizer_eta], axis=1)
    section_pinv = _freeze(np.linalg.pinv(section_matrix))

    return ChevalleyData(
        n=n, r=r, e_plus=e_plus, e_minus=e_minus, h=h, xi=xi, eta=eta, c=c,
        centralizer_eta=centralizer_eta, basis=basis, _section_pinv=section_pinv)


def pairing(x: np.ndarray, y: np.ndarray) -> complex:
    """The invariant trace form tr(x y)."""
    x = linalg.as_matrix(x)
    y = linalg.as_matrix(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"pairing of shapes {x.shape} and {y.shape}")
    return complex(np.trace(x @ y))


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def ad_action(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """Matrix of y -> [x, y] in the fixed orthonormal basis of sl_n."""
    x = linalg.as_matrix(x)
    d = len(chev.basis)
    out = np.zeros((d, d), dtype=complex)
    for j, b in enumerate(chev.basis):
        out[:, j] = coords_of(chev, bracket(x, b))
    return out


def coords_of(chev: ChevalleyData, x: np.ndarray) -> np.ndarray:
    """Coordinates of a traceless matrix in the orthonormal sl_n basis."""
    return np.array([np.vdot(b, x) for b in chev.basis])


def from_coords(chev: ChevalleyData, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros((chev.n, chev.n), dtype=complex)
    for ck, b in zip(coeffs, chev.basis):
        out += ck * b
    return out


def centralizer_basis(chev: ChevalleyData, x: np.ndarray, tol: float = 1e-10):
    """Numerical basis of the centralizer {y in sl_n : [x, y] = 0}."""
    kernel = linalg.kernel_basis(ad_action(chev, x), tol=tol)
    return [from_coords(chev, kernel[:, k]) for k in range(kernel.shape[1])]


def project_triangular(x: np.ndarray):
    """Split x into (diagonal, strictly upper, strictly lower) parts."""
    x = linalg.as_matrix(x)
    t_part = np.diag(np.diag(x))
    u_part = np.triu(x, 1)
    uminus_part = np.tril(x, -1)
    return t_part, u_part, uminus_part


def root_char(t: np.ndarray, i: int) -> complex:
    """Value of the i-th simple root character t_i / t_{i+1}, i = 1..n-1.

    Well defined on the scalar quotient.  Raises :class:`NotInTorus` when
    the off-diagonal mass of t exceeds 1e-10 * ||t||.
    """
    t = linalg.as_matrix(t)
    n = t.shape[0]
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} outside 1..{n - 1}")
    off = t - np.diag(np.diag(t))
    if linalg.norm(off) > 1e-10 * max(linalg.norm(t), 1e-300):
        raise NotInTorus("group element is not diagonal modulo scalar")
    return complex(t[i - 1, i - 1] / t[i, i])


def adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ad_g(x) = g x g^{-1}; insensitive to rescaling g."""
    g = linalg.as_matrix(g)
    return g @ x @ linalg.inv(g)


def is_scalar_matrix(m: np.ndarray, tol: float = 1e-9) -> bool:
    m = linalg.as_matrix(m)
    n = m.shape[0]
    scalar = (np.trace(m) / n) * np.eye(n)
    return linalg.norm(m - scalar) <= tol * max(linalg.norm(m), 1e-300)


def group_equal(g1: np.ndarray, g2: np.ndarray, tol: float = 1e-9) -> bool:
    """Equality in PGL_n: g1 g2^{-1} is within tol of a scalar matrix."""
    return is_scalar_matrix(linalg.as_matrix(g1) @ linalg.inv(g2), tol=tol)


def scalar_aligned_distance(g1: np.ndarray, g2: np.ndarray) -> float:
    """min over scalars c of ||c g1 - g2|| / ||g2||, the PGL_n deviation."""
    g1 = linalg.as_matrix(g1)
    g2 = linalg.as_matrix(g2)
    denom = np.vdot(g1, g1)
    c = np.vdot(g1, g2) / denom if abs(denom) > 0 else 0.0
    return linalg.norm(c * g1 - g2) / max(linalg.norm(g2), 1e-300)


def traceless_part(m: np.ndarray) -> np.ndarray:
    """Projection of gl_n onto sl_n, the tangent space of the scalar quotient."""
    m = linalg.as_matrix(m)
    return m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0])
