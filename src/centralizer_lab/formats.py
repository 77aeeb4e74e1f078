"""Stable JSON / CSV encodings for matrices and phase-space points.

Conventions:
  * a complex number is a two-element array [re, im] in JSON and the text
    "re+imj" in CSV cells (shortest-roundtrip float formatting, so output
    is byte-reproducible for identical inputs);
  * a matrix is a nested row-major array of [re, im] pairs;
  * a group element additionally carries "mod_scalar": true, recording that
    it is only meaningful up to a nonzero scalar factor.
"""

from __future__ import annotations

import json

import numpy as np


def fmt_float(x: float) -> str:
    return repr(float(x))


def fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}j"


def json_float(x):
    """x, or None (JSON ``null``) where x is infinite or NaN."""
    return float(x) if np.isfinite(x) else None


def complex_from_obj(obj) -> complex:
    """A finite complex number from [re, im], a number or a text such as
    "0.3+0.2j"."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        z = complex(float(obj[0]), float(obj[1]))
    elif isinstance(obj, str):
        z = complex(obj.replace(" ", ""))
    elif isinstance(obj, (int, float)):
        z = complex(obj)
    else:
        raise ValueError(f"cannot read a complex number from {obj!r}")
    if not np.isfinite(z):
        raise ValueError(f"{obj!r} is not finite")
    return z


def to_json(a):
    """A complex vector or matrix as nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def toda_point_from_json(obj):
    from .toda import make_toda_point

    if not isinstance(obj, dict) or "diag" not in obj or "root_coords" not in obj:
        raise ValueError('phase-space point needs keys "diag" and "root_coords"')
    diag, root_coords = (np.array([complex_from_obj(z) for z in obj[key]], dtype=complex)
                         for key in ("diag", "root_coords"))
    return make_toda_point(diag, root_coords)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False, allow_nan=False) + "\n"


def parse_time_list(value):
    """Finite complex times: comma-separated text such as "0,0.5,0.3+0.2j",
    whose empty parts are skipped, or a list of such numbers."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    times = [complex_from_obj(t) for t in value]
    if not times:
        raise ValueError("empty time list")
    return times
