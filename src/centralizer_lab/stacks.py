"""The stacked sample axis shared by the Toda pipeline.

A stack holds m points along a leading sample axis: matrices (m, n, n),
vectors (m, r), and point classes whose array fields all carry the axis.
A function that can fail on one sample takes stacks and returns
``(result, errors)``: the result stacked like its input, and per sample
either None or the exception that sample raised, of the type and with the
message the per-point call raises.  One failed sample never stops the
others, and its slots in the result are unspecified.

The :func:`stacked` decorator lets such a function take one point as well:
that is its m = 1 call, which raises the sample's exception or returns its
result without the sample axis.  There is no second, per-point body.
"""

from __future__ import annotations

import functools

import numpy as np


def _map(fn, value):
    """fn applied to a value (an array, list or scalar), or to each array
    of a tuple or point class of them."""
    if type(value) is np.ndarray:
        return fn(value)
    if type(value) is tuple:
        return tuple([_map(fn, v) for v in value])
    fields = getattr(type(value), "__dataclass_fields__", None)
    if fields is None:
        return fn(value)
    return type(value)(*[fn(getattr(value, name)) for name in fields])


def _leading(value):
    """The first array of a point: the value itself or its first field."""
    fields = getattr(value, "__dataclass_fields__", None)
    return value if fields is None else getattr(value, next(iter(fields)))


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
            lead = last if type(last) is np.ndarray else _leading(last)
            if (lead.ndim if type(lead) is np.ndarray else np.ndim(lead)) != point_ndim:
                return fn(*args)
            tail = [_map(_one, v) for v in args[-points:]]
            result, errors = fn(*args[:-points], *tail)
            if errors[0] is not None:
                raise errors[0]
            if result is tail[-1]:  # a check that passes returns its argument
                return last
            return _map(_first, result)
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


class Samples:
    """The samples of a stacked computation: each one's first exception,
    and the positions of those still running.

    Stages run on the running samples only.  :meth:`drop` records the
    exceptions of a stage and removes the failed samples from the arrays
    handed on; while every sample runs it copies nothing.
    """

    def __init__(self, m: int):
        self.errors = [None] * m
        self.index = list(range(m))
        self.finished = []  # (positions, value) of samples done early

    def drop(self, errors, *values):
        """Record ``errors`` (one per running sample) and return ``values``
        (arrays, lists, point classes or shared scalars) without the samples
        that failed."""
        if errors.count(None) == len(errors):
            return values
        failed = [e is not None for e in errors]
        for k, e in enumerate(errors):
            if e is not None:
                self.errors[self.index[k]] = e
        return self.retire(failed, *values)

    def finish(self, flags, value, *values):
        """Keep ``value`` of the running samples flagged in ``flags`` as
        their result, stop running them and return ``values`` without them."""
        if any(flags):
            done = [k for k, flag in enumerate(flags) if flag]
            self.finished.append(([self.index[k] for k in done],
                                  _map(lambda a: _select(a, done), value)))
        return self.retire(flags, *values)

    def retire(self, flags, *values):
        """Stop running the samples flagged in ``flags`` and return
        ``values`` without them."""
        if not any(flags):
            return values
        keep = [k for k, flag in enumerate(flags) if not flag]
        self.index = [self.index[k] for k in keep]
        return tuple(_map(lambda a: _select(a, keep), v) for v in values)

    def result(self, value):
        """``(value, errors)`` for the whole stack: ``value`` of the running
        samples and the values kept by :meth:`finish`, each at its position,
        and NaN in the failed samples' slots."""
        m = len(self.errors)
        parts = [part for part in self.finished + [(self.index, value)] if part[0]]
        if len(parts) == 1 and len(parts[0][0]) == m:
            return parts[0][1], self.errors
        parts = parts or [(self.index, value)]
        full = [np.full((m,) + a.shape[1:], np.nan, dtype=a.dtype) for a in _arrays(value)]
        for index, part in parts:
            for out, a in zip(full, _arrays(part)):
                out[index] = a
        if type(value) is np.ndarray:
            return full[0], self.errors
        return (tuple(full) if type(value) is tuple else type(value)(*full)), self.errors


def _arrays(value) -> list:
    """The arrays of a result: an array, a tuple or a point class of them."""
    if type(value) is np.ndarray:
        return [value]
    if type(value) is tuple:
        return list(value)
    return [getattr(value, name) for name in type(value).__dataclass_fields__]


def _select(value, keep):
    if isinstance(value, list):
        return [value[k] for k in keep]
    if np.ndim(value) == 0:
        return value  # shared by every sample
    return value[keep]


def first_errors(*stages) -> list:
    """Per sample, the first exception over stages run in order on the
    same samples, or None."""
    if len(stages) == 2 and stages[1].count(None) == len(stages[1]):
        return stages[0]
    return [next((e for e in es if e is not None), None) for es in zip(*stages)]
