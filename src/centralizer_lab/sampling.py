"""Reproducible random sampling for the verification suites.

All randomness flows through the Philox (4x64) counter-based bit generator
with an explicit 128-bit key: the user seed in the upper 64 bits and a
CRC-32 of the stream name in the lower bits.  Streams are therefore
reproducible across platforms and independent between named checks.

Complex scalars are sampled with real and imaginary parts uniform in
[-1, 1] (times an optional scale); matrices are filled row-major, real
plane before imaginary plane, so the draw order is part of the contract.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import linalg
from .centralizer import CJLPoint
from .errors import NoConvergence
from .invariants import invariant_gradients
from .kostant_maps import MIN_ROOT_COORD
from .lie_core import ChevalleyData
from .toda import TodaPoint, in_flow_domain, make_toda_point


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent, named, reproducible random stream."""
    key = ((int(seed) & 0xFFFFFFFFFFFFFFFF) << 64) | zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.Philox(key=key))


def complex_uniform(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    re = rng.uniform(-1.0, 1.0, size=shape)
    im = rng.uniform(-1.0, 1.0, size=shape)
    return scale * (re + 1j * im)


def random_traceless(chev: ChevalleyData, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    m = complex_uniform(rng, (chev.n, chev.n), scale=scale)
    return m - (np.trace(m) / chev.n) * np.eye(chev.n)


def random_group_element(chev: ChevalleyData, rng: np.random.Generator) -> np.ndarray:
    """exp of a random traceless matrix clipped to norm at most 1."""
    m = random_traceless(chev, rng)
    size = linalg.norm(m)
    if size > 1.0:
        m = m / size
    return linalg.mat_exp(m)


def random_section_coords(chev: ChevalleyData, rng: np.random.Generator,
                          scale: float = 1.0) -> np.ndarray:
    # Higher powers of eta carry large integer entries; damp their
    # coordinates so section points stay moderately sized for every n.
    scales = np.array([scale / max(1.0, linalg.norm(b))
                       for b in chev.centralizer_eta])
    return complex_uniform(rng, (chev.r,)) * scales


def random_section_point(chev: ChevalleyData, rng: np.random.Generator,
                         scale: float = 1.0) -> np.ndarray:
    return chev.section_point(random_section_coords(chev, rng, scale=scale))


def random_cjl_point(chev: ChevalleyData, rng: np.random.Generator) -> CJLPoint:
    """A chart point, its flow times damped by the invariant gradients."""
    s = random_section_point(chev, rng, scale=0.8)
    lam = np.zeros(chev.r, dtype=complex)
    for i, grad in enumerate(invariant_gradients(chev, s)):
        lam[i] = complex_uniform(rng, ()) * (0.4 / max(1.0, linalg.norm(grad)))
    return CJLPoint(lam=lam, s=s)


def random_stabilizer_element(chev: ChevalleyData, rng: np.random.Generator,
                              x: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """exp of a random combination of the invariant gradients of x, the
    generic way to draw from the identity component of the stabilizer.

    Each gradient's coefficient is damped by its norm so the exponent stays
    bounded independently of n.
    """
    grads = invariant_gradients(chev, x)
    total = np.zeros((chev.n, chev.n), dtype=complex)
    for grad in grads:
        coeff = complex_uniform(rng, ()) * (scale / max(1.0, linalg.norm(grad)))
        total += coeff * grad
    return linalg.mat_exp(total)


def random_toda_point(chev: ChevalleyData, rng: np.random.Generator,
                      scale: float = 1.0) -> TodaPoint:
    """Entries uniform in the unit box (diagonal recentred to trace zero);
    zero superdiagonal draws are redrawn, they carry no measure."""
    diag = complex_uniform(rng, (chev.n,), scale=scale)
    diag = diag - np.mean(diag)
    coords = complex_uniform(rng, (chev.r,), scale=scale)
    while np.any(np.abs(coords) <= MIN_ROOT_COORD):
        coords = complex_uniform(rng, (chev.r,), scale=scale)
    return make_toda_point(diag, coords)


def sample_flow_domain(chev: ChevalleyData, rng: np.random.Generator,
                       scale: float = 1.0, max_tries: int = 1000) -> TodaPoint:
    """Rejection-sample a phase-space point inside the flow domain."""
    for _ in range(max_tries):
        p = random_toda_point(chev, rng, scale=scale)
        if in_flow_domain(chev, p):
            return p
    raise NoConvergence(f"no flow-domain point found in {max_tries} draws")


def domain_fraction(chev: ChevalleyData, rng: np.random.Generator,
                    samples: int) -> float:
    """Fraction of unit-box phase-space points inside the flow domain."""
    hits = sum(in_flow_domain(chev, random_toda_point(chev, rng))
               for _ in range(samples))
    return hits / samples
