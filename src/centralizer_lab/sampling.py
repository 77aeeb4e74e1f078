"""Reproducible random sampling for the verification suites.

All randomness flows through the Philox (4x64) counter-based bit generator
with an explicit 128-bit key: the user seed in the upper 64 bits and a
CRC-32 of the stream name in the lower bits.  Streams are therefore
reproducible across platforms and independent between named checks.

Complex scalars are sampled with real and imaginary parts uniform in
[-1, 1] (times an optional scale); matrices are filled row-major, real
plane before imaginary plane, so the draw order is part of the contract.

A check's draw, ``(chev, rng, samples) -> (columns, failure)``, gives its
samples' values as stacked columns and the exception (or None) that ended
them, and consumes the stream exactly as per-sample draws made one at a
time do, bit for bit.  Philox's stream is one fixed sequence of doubles,
which ``rng.uniform(low, high)`` maps by u -> low + (high - low) u: a
draw of fixed layout (:func:`fixed`) takes all its samples' doubles in
one call and maps them by :func:`blocks`; a draw whose candidates are
rejected (:func:`judged`) proposes every remaining sample, judges the
proposals in one stacked pass, and rewinds to draw only a rejected sample
alone; the other draws are made sample by sample (:func:`one_by_one`).
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
from .stacks import concatenate, first_errors, map_arrays, stack
from .toda import TodaPoint, in_flow_domain, make_toda_point, toda_matrix


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
    stacked values of the per-sample draw named beside it, each built from
    complex_uniform or ``rng.uniform``."""
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
                             .reshape(-1, r)),
            "candidate": (2 * (n + r), lambda u: -1.0 + 2.0 * u),  # flow_candidate
            "scalar": (2, lambda u: complex_rows(u, (), 1.0)),
            "xi_plus_b": (2 * n * n, lambda u: chev.xi + traceless_part(
                np.triu(complex_rows(u, (n, n), 1.0)))),
            "unitriangular": (2 * n * n, lambda u: linalg.eye(n) + np.triu(
                complex_rows(u, (n, n), 0.8), 1)),
            "torus": (2 * n, lambda u: linalg.diag_matrix(  # diagonal kept away from zero
                (t := complex_rows(u, (n,), 1.0)) + np.sign(t.real + 1e-12) * 0.5)),
            "invariants": (2 * r, lambda u: complex_rows(u, (r,), 1.5)),
            "length": (1, lambda u: 5.0 * u[:, 0])}  # rng.uniform(0, 5)


def fixed(*names):
    """A draw of fixed layout: each sample takes the doubles of the named
    blocks in order, all samples' from one ``rng.random`` call."""
    def draw(chev, rng, samples):
        layout = list(map(blocks(chev).get, names))
        cuts = np.cumsum([width for width, _ in layout])
        rows = np.split(rng.random((samples, cuts[-1])), cuts[:-1], axis=1)
        return [convert(part) for (_, convert), part in zip(layout, rows)], None
    return draw


def _columns(drawn) -> list:
    """Per-sample draws stacked into columns, one per position of a tuple;
    Python scalars stay lists."""
    parts = zip(*(value if type(value) is tuple else (value,) for value in drawn))
    return [list(part) if isinstance(part[0], (int, float, complex)) else stack(part)
            for part in parts]


def one_by_one(draw):
    """A check's draw made sample by sample by ``draw(chev, rng)`` and
    stacked into columns."""
    def draw_samples(chev, rng, samples):
        drawn, failure = [], None
        try:
            while len(drawn) < samples:
                drawn.append(draw(chev, rng))
        except Exception as exc:
            failure = exc
        return _columns(drawn), failure
    return draw_samples


def judged(draw, propose, judge):
    """``one_by_one(draw)`` for a per-sample draw that rejects candidates,
    with the candidates of all remaining samples judged in one stacked pass.

    ``propose(chev, rng, k)`` is a draw of k proposals: the generator calls
    that ``draw`` makes for each sample whose first candidate is accepted,
    as :func:`fixed` blocks when they take only doubles, else by
    ``one_by_one`` of a per-sample proposal.  ``judge(chev, *columns)``
    takes the proposals' columns and returns the columns of their samples
    as ``draw`` gives them, and per proposal whether ``draw`` accepts it.
    The proposals are kept up to the first one not accepted.  For that
    sample the generator is rewound to the round's start, the kept
    proposals are made again and ``draw`` runs alone; then the next round
    starts.  So the columns, the failure and the stream after are those of
    ``one_by_one(draw)``, bit for bit: Philox's state holds its buffered
    32-bit half, so integer draws replay too.
    """
    def draw_samples(chev, rng, samples):
        chunks, count, failure = [], 0, None
        while count < samples and failure is None:
            state = rng.bit_generator.state
            columns, accepted = judge(chev, *propose(chev, rng, samples - count)[0])
            kept = accepted.index(False) if False in accepted else len(accepted)
            if kept:
                chunks.append([map_arrays(lambda part: part[:kept], column) for column in columns])
                count += kept
            if kept < len(accepted):  # draw the sample not accepted alone
                rng.bit_generator.state = state
                propose(chev, rng, kept)
                columns, failure = one_by_one(draw)(chev, rng, 1)
                if failure is None:
                    chunks.append(columns)
                    count += 1
        if len(chunks) == 1:
            return chunks[0], failure
        return [concatenate(parts) for parts in zip(*chunks)], failure
    return draw_samples


def random_traceless(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    return traceless_part(complex_uniform(rng, (chev.n, chev.n)))


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


def sample_flow_domain(chev: ChevalleyData, rng: np.random.Generator) -> TodaPoint:
    """Rejection-sample a point inside the flow domain in at most 1000
    candidates."""
    for _ in range(1000):
        p = random_toda_point(chev, rng)
        if in_flow_domain(chev, p):
            return p
    raise NoConvergence("no flow-domain point found in 1000 draws")


def _judge_memberships(chev, rows):
    """Per candidate, whether it lies in the flow domain, and whether that
    is :func:`in_flow_domain`'s verdict on it: a candidate with a zero root
    coordinate or an eigensolver error is drawn alone."""
    _, verdicts = flow_candidates(chev, rows)
    return [[exc is None for exc in verdicts]], [
        exc is None or isinstance(exc, NotInV) for exc in verdicts]


# per candidate, whether it lies in the flow domain
_memberships = judged(lambda chev, rng: in_flow_domain(chev, random_toda_point(chev, rng)),
                      fixed("candidate"), _judge_memberships)


def domain_fraction(chev: ChevalleyData, rng: np.random.Generator, samples: int) -> float:
    """Fraction of the next ``samples`` candidates inside the flow domain."""
    columns, failure = _memberships(chev, rng, samples)
    if failure is not None:
        raise failure
    return sum(columns[0]) / samples
