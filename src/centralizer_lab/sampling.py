"""Reproducible random sampling for the verification suites.

All randomness flows through the Philox (4x64) counter-based bit generator
with an explicit 128-bit key: the user seed in the upper 64 bits and a
CRC-32 of the stream name in the lower bits.  Streams are therefore
reproducible across platforms and independent between named checks.

Complex scalars are sampled with real and imaginary parts uniform in
[-1, 1] (times an optional scale); matrices are filled row-major, real
plane before imaginary plane, so the draw order is part of the contract.
Philox's stream is one fixed sequence of doubles, which ``rng.uniform(low,
high)`` maps by u -> low + (high - low) u: a draw of fixed layout maps all
its samples' doubles, taken in one call, by :func:`blocks`, and the
flow-domain samplers judge the candidates of many samples in one stacked
``eigvals`` (:func:`flow_candidates`), then rewind and consume exactly the
doubles of draws made one at a time.  Both give those draws' values bit
for bit, and their stream after.  The checks whose draws take a flow label
after each point judge their points the same way: each sample proposes
its first candidate (:func:`flow_candidate`) and its label with the real
generator.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from . import linalg
from .centralizer import CJLPoint
from .errors import NoConvergence, NotInV
from .invariants import invariant_gradients
from .kostant_maps import chamber_errors
from .lie_core import ChevalleyData, build_chevalley, traceless_part
from .stacks import first_errors
from .toda import TodaPoint, make_toda_point, toda_matrix


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent, named, reproducible random stream."""
    key = ((int(seed) & 0xFFFFFFFFFFFFFFFF) << 64) | zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.Philox(key=key))


def complex_uniform(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    re, im = rng.uniform(-1.0, 1.0, size=(2, *shape))  # one call, real plane first
    return scale * (re + 1j * im)


def complex_rows(u: np.ndarray, shape, scale: float) -> np.ndarray:
    """:func:`complex_uniform` of each row of doubles u (m, 2 * size) in
    [0, 1), real plane first: the stack (m, *shape)."""
    re, im = np.moveaxis(-1.0 + 2.0 * u.reshape(len(u), 2, *shape), 1, 0)
    return scale * (re + 1j * im)


def blocks(chev: ChevalleyData) -> dict:
    """The blocks of fixed-layout draws by name: the doubles one sample
    takes, and the map of all samples' rows of them (m, width) to the
    stacked values of the per-sample draw named beside it."""
    n, r = chev.n, chev.r

    def traceless(u):
        return traceless_part(complex_rows(u, (n, n), 1.0))

    def clipped(u):  # random_group_element's exponent, clipped to norm at most 1
        m = traceless(u)
        return m / np.maximum(linalg.norm(m), 1.0)[:, None, None]
    return {"matrix": (2 * n * n, lambda u: complex_rows(u, (n, n), 1.0)),  # complex_uniform
            "traceless": (2 * n * n, traceless),  # random_traceless
            "exponent": (2 * n * n, clipped),
            "section": (2 * r, lambda u: chev.section_point(  # random_section_point
                complex_rows(u, (r,), 1.0) * _section_scales(chev.n, 1.0))),
            # stabilizer_coefficients: r scalars, each real then imaginary part
            "coefficients": (2 * r, lambda u: complex_rows(u.reshape(-1, 2), (), 1.0)
                             .reshape(-1, r))}


def random_traceless(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    m = complex_uniform(rng, (chev.n, chev.n))
    return m - (np.trace(m) / chev.n) * np.eye(chev.n)


def random_group_element(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    """exp of a random traceless matrix clipped to norm at most 1."""
    m = random_traceless(chev, rng)
    size = linalg.norm(m)
    if size > 1.0:
        m = m / size
    return linalg.mat_exp(m)


@functools.lru_cache(maxsize=None)
def _section_scales(n: int, scale: float) -> np.ndarray:
    # Higher powers of eta carry large integer entries; damp their
    # coordinates so section points stay moderately sized for every n.
    out = np.array([scale / max(1.0, linalg.norm(b)) for b in build_chevalley(n).centralizer_eta])
    out.flags.writeable = False
    return out


def random_section_point(chev: ChevalleyData, rng: np.random.Generator,
                         scale: float = 1.0) -> np.ndarray:
    return chev.section_point(complex_uniform(rng, (chev.r,)) * _section_scales(chev.n, scale))


def random_cjl_point(chev: ChevalleyData, rng: np.random.Generator, samples=None) -> CJLPoint:
    """A chart point, its flow times damped by the invariant gradients, or
    with ``samples`` the stack of that many.

    A point takes 4r doubles: the real then the imaginary plane of its
    section coordinates, then (real, imaginary) of each flow time.  All
    are taken in one call, so a stack holds the points drawn one at a
    time, bit for bit, and leaves the stream where they leave it.
    """
    r = chev.r
    rows = rng.uniform(-1.0, 1.0, size=(1 if samples is None else samples, 4 * r))
    s = chev.section_point((rows[:, :r] + 1j * rows[:, r:2 * r]) * _section_scales(chev.n, 0.8))
    grads = invariant_gradients(chev, s).reshape(-1, chev.n, chev.n)
    damp = 0.4 / np.maximum(1.0, np.reshape(linalg.norm(grads), (-1, r)))
    lam = (rows[:, 2 * r::2] + 1j * rows[:, 2 * r + 1::2]) * damp
    return CJLPoint(lam=lam, s=s) if samples is not None else CJLPoint(lam=lam[0], s=s[0])


def random_stabilizer_element(chev: ChevalleyData, rng: np.random.Generator,
                              x: np.ndarray) -> np.ndarray:
    """exp of a random combination of the invariant gradients of x, the
    generic way to draw from the identity component of the stabilizer:
    :func:`stabilizer_elements` of the draw :func:`stabilizer_coefficients`.
    """
    return stabilizer_elements(chev, np.asarray(x)[None],
                               stabilizer_coefficients(chev, rng)[None])[0]


def stabilizer_coefficients(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    """The r raw coefficients of a random stabilizer element, one complex
    scalar at a time; the draws do not depend on the point."""
    return np.array([complex_uniform(rng, ()) for _ in range(chev.r)])


def stabilizer_elements(chev: ChevalleyData, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """exp of :func:`stabilizer_exponents` at the invariant gradients of
    each matrix of a stack x (m, n, n), with a row of coefficients (m, r)."""
    return linalg.mat_exp(stabilizer_exponents(invariant_gradients(chev, x), coeffs))


def stabilizer_exponents(grads: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i c_i * grads_i * 0.5 / max(1, ||grads_i||), the terms added in
    order of i, for each stack of gradients (m, r, n, n) (see
    :func:`invariant_gradients`) and row of coefficients (m, r).

    The damping keeps the exponent bounded independently of n.
    """
    total = np.zeros(grads.shape[:1] + grads.shape[2:], dtype=complex)
    for i in range(grads.shape[1]):
        damp = [0.5 / max(1.0, size) for size in linalg.norm(grads[:, i])]
        total += (coeffs[:, i] * damp)[:, None, None] * grads[:, i]
    return total


def random_toda_point(chev: ChevalleyData, rng: np.random.Generator) -> TodaPoint:
    """Entries uniform in the unit box (diagonal recentred to trace zero);
    zero superdiagonal draws are redrawn, they carry no measure."""
    diag = complex_uniform(rng, (chev.n,))
    diag = diag - np.mean(diag)
    coords = complex_uniform(rng, (chev.r,))
    while np.any(coords == 0):
        coords = complex_uniform(rng, (chev.r,))
    return make_toda_point(diag, coords)


def flow_candidate(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    """The doubles of one flow-domain candidate, the draws that
    :func:`sample_flow_domain` makes for a point whose first candidate is
    accepted: the real then the imaginary parts of the diagonal, then of
    the root coordinates, each in [-1, 1)."""
    return rng.uniform(-1.0, 1.0, 2 * (chev.n + chev.r))


def flow_candidates(chev: ChevalleyData, rows: np.ndarray):
    """The stacked Toda points of candidate rows (m, 2(n + r)) (see
    :func:`flow_candidate`, the diagonal recentred to trace zero) and, per
    candidate, None if it lies in the flow domain, else the exception that
    rejects it."""
    n, r = chev.n, chev.r
    diag = rows[:, :n] + 1j * rows[:, n:2 * n]
    coords = rows[:, 2 * n:2 * n + r] + 1j * rows[:, 2 * n + r:2 * (n + r)]
    p, errors = make_toda_point(diag - np.mean(diag, axis=-1, keepdims=True), coords)
    values, eig_errors = linalg.eigvals(toda_matrix(chev, p))
    return p, first_errors(errors, eig_errors, chamber_errors(values))


def _round(chev, rng, head, count, extra):
    """Judge ``count`` candidates, drawn as if each were accepted and then
    followed by ``extra`` doubles, and consume the doubles up to the first
    one not accepted.  Returns the accepted ones' extras, the stacked
    points, that candidate's exception, and the next round's head: its
    diagonal if it has a zero root coordinate (exception None)."""
    n, w = chev.n, 2 * (chev.n + chev.r)
    state = rng.bit_generator.state
    rows = np.concatenate([head, rng.uniform(-1.0, 1.0, count * (w + extra) - len(head))])
    rows = rows.reshape(count, w + extra)
    p, verdicts = flow_candidates(chev, rows[:, :w])
    taken = next((k for k, exc in enumerate(verdicts) if exc is not None), count)
    rng.bit_generator.state = state
    rng.random(taken * (w + extra) + w * (taken < count) - len(head))
    if taken < count and not p.root_coords[taken].all():
        return rows[:taken, w:], p, None, rows[taken, :2 * n]
    return rows[:taken, w:], p, verdicts[taken] if taken < count else None, np.empty(0)


def sample_flow_domain(chev: ChevalleyData, rng: np.random.Generator, samples=None, scalars=()):
    """Rejection-sample a point inside the flow domain in at most 1000
    candidates.  With ``samples``, return ``(columns, failure)``: the stack
    of up to ``samples`` points, for each size in ``scalars`` the stack
    (m, size) of the complex scalars drawn after each point in turn (real
    part first), and None or the exception that ended the draws."""
    want, extra = 1 if samples is None else samples, 2 * sum(scalars)
    diag, coords = np.empty((want, chev.n), complex), np.empty((want, chev.r), complex)
    tails, count, head, tries, failure = np.empty((want, extra)), 0, np.empty(0), 0, None
    while count < want and failure is None:
        tail, p, exc, head = _round(chev, rng, head, want - count, extra)
        span, taken = slice(count, count + len(tail)), slice(len(tail))
        diag[span], coords[span], tails[span] = p.diag[taken], p.root_coords[taken], tail
        count, tries = span.stop, (tries if len(tail) == 0 else 0) + isinstance(exc, NotInV)
        if tries == 1000:
            exc = NoConvergence("no flow-domain point found in 1000 draws")
        failure = None if isinstance(exc, NotInV) else exc
    if samples is None:
        if failure is not None:
            raise failure
        return TodaPoint(diag=diag[0], root_coords=coords[0])
    values = tails[:count, 0::2] + 1j * tails[:count, 1::2]
    groups = np.split(values, np.cumsum(scalars)[:-1], axis=1) if scalars else []
    return [TodaPoint(diag=diag[:count], root_coords=coords[:count]), *groups], failure


def domain_fraction(chev: ChevalleyData, rng: np.random.Generator, samples: int) -> float:
    """Fraction of the next ``samples`` candidates inside the flow domain."""
    hits, judged, head = 0, 0, np.empty(0)
    while judged < samples:
        accepted, _, exc, head = _round(chev, rng, head, samples - judged, 0)
        if exc is not None and not isinstance(exc, NotInV):
            raise exc
        hits, judged = hits + len(accepted), judged + len(accepted) + (exc is not None)
    return hits / samples
