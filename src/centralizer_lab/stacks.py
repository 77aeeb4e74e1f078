"""The stacked sample axis shared by the Toda pipeline.

A stack holds m points along a leading sample axis: matrices (m, n, n),
vectors (m, r), and point classes whose array fields all carry the axis.
A function that can fail on one sample takes stacks and returns
``(result, errors)``: the result stacked like its input, and per sample
either None or the exception that sample raised, of the type and with the
message the per-point call raises.  One failed sample never stops the
others, with one exception: a stacked argument with an inf or NaN entry in
any sample makes the whole call raise ValueError("matrix has non-finite
entries"), as :func:`linalg.as_matrix` does.

Every stage runs on all m samples, and each folds its errors into the
running list with :func:`first_errors`; no stage compacts the stack.  So a
failed sample's slots hold finite, unspecified values that the later
stages can take: the stages that fail on a sample return finite stand-ins
there (identity factors, a kept point, a stand-in Toda point).

The :func:`stacked` decorator lets such a function take one point as well:
that is its m = 1 call, which raises the sample's exception or returns its
result without the sample axis.  There is no second, per-point body.
"""

from __future__ import annotations

import functools

import numpy as np


def map_arrays(fn, value):
    """fn applied to a value (an array, list or scalar), or to each array
    of a tuple or point class of them."""
    if type(value) is np.ndarray:
        return fn(value)
    if type(value) is tuple:
        return tuple([map_arrays(fn, v) for v in value])
    fields = getattr(type(value), "__dataclass_fields__", None)
    if fields is None:
        return fn(value)
    return type(value)(*[fn(getattr(value, name)) for name in fields])


def arrays(value) -> list:
    """The arrays of a point: the value itself, the fields of a point
    class, or those of each member of a tuple."""
    if type(value) is tuple:
        return [a for v in value for a in arrays(v)]
    fields = getattr(type(value), "__dataclass_fields__", None)
    return [value] if fields is None else [getattr(value, name) for name in fields]


def _one(a):
    return np.asarray(a)[None]


def _first(a):
    return a[0].copy()  # a view would keep the whole stack alive


def stacked(point_ndim: int, points: int = 1):
    """Let a function written for stacks take one point as well.

    The decorated function's last ``points`` arguments are stacks.  When
    the first array of the last one has ``point_ndim`` dimensions, the call
    is per point: those arguments get a sample axis of length 1, and the
    call raises the sample's exception or returns its result (the argument
    itself when the function returns its stacked argument).
    """
    def deco(fn):
        @functools.wraps(fn)
        def call(*args):
            last = args[-1]
            lead = last if type(last) is np.ndarray else arrays(last)[0]
            if (lead.ndim if type(lead) is np.ndarray else np.ndim(lead)) != point_ndim:
                return fn(*args)
            tail = [map_arrays(_one, v) for v in args[-points:]]
            result, errors = fn(*args[:-points], *tail)
            if errors[0] is not None:
                raise errors[0]
            if result is tail[-1]:  # a check that passes returns its argument
                return last
            return map_arrays(_first, result)
        return call
    return deco


def per_sample(value) -> bool:
    """Whether an argument gives one value per sample (a list, tuple or
    array) rather than one value shared by all."""
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


def stack(points):
    """One stack of equally shaped points: arrays or point classes."""
    fields = getattr(points[0], "__dataclass_fields__", None)
    if fields is None:
        return np.stack(points)
    return type(points[0])(*(np.stack([getattr(p, name) for p in points]) for name in fields))


def concatenate(stacks):
    """One stack of consecutive stacks: lists, arrays or point classes."""
    first = stacks[0]
    if type(first) is list:
        return [value for part in stacks for value in part]
    fields = getattr(type(first), "__dataclass_fields__", None)
    if fields is None:
        return np.concatenate(stacks)
    return type(first)(*(np.concatenate([getattr(part, name) for part in stacks])
                         for name in fields))


def first_errors(*stages) -> list:
    """Per sample, the first exception over stages run in order on the
    same samples, or None."""
    first = stages[0]
    for errors in stages[1:]:
        if errors.count(None) != len(errors):
            first = [e if e is not None else later for e, later in zip(first, errors)]
    return first
