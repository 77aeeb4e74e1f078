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


def complex_to_pair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def complex_from_obj(obj) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    if isinstance(obj, str):
        return complex(obj.replace(" ", ""))
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise ValueError(f"cannot read a complex number from {obj!r}")


def vector_to_json(v):
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


def vector_from_json(obj) -> np.ndarray:
    return np.array([complex_from_obj(z) for z in obj], dtype=complex)


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in m]


def group_to_json(g):
    return {"matrix": matrix_to_json(g), "mod_scalar": True}


def toda_point_to_json(p):
    return {"diag": vector_to_json(p.diag),
            "root_coords": vector_to_json(p.root_coords)}


def toda_point_from_json(obj):
    from .toda import make_toda_point

    if not isinstance(obj, dict) or "diag" not in obj or "root_coords" not in obj:
        raise ValueError('phase-space point needs keys "diag" and "root_coords"')
    return make_toda_point(vector_from_json(obj["diag"]),
                           vector_from_json(obj["root_coords"]))


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False, allow_nan=False) + "\n"


def parse_time_list(text: str):
    """Comma-separated complex times, e.g. "0,0.5,0.3+0.2j"."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if part:
            values.append(complex(part))
    if not values:
        raise ValueError("empty time list")
    return values
