"""Exception types shared across the package, and the one checker of the
fields that reach it from outside.

One rule per kind of field: a number is a Python or NumPy int or float, not
bool, and finite; an integer is operator.index-able and not bool (2.7, 3.0
and "3" fail); a flag is a bool; an array has an int, unsigned or float
dtype, finite entries and at most the site's number of dimensions; a
document is a JSON object with every required key and no unknown key.
Ranges are interval text such as "(0, 1]", which the failure message
quotes; an infinite bound is open, so no interval holds nan or inf. Numbers
come back as float, integers as int, arrays as float arrays.
"""
from __future__ import annotations

import functools
import json
import math
import operator

import numpy as np


class ValidationError(ValueError):
    """Invalid user input: parameters, matrices, or file contents."""


class EvaluationError(ArithmeticError):
    """A numerical routine could not reach its accuracy target."""


_ANY = "(-inf, inf)"


@functools.lru_cache(maxsize=64)
def _bounds(interval):
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "(", interval[-1] == ")"


def _inside(v, name, interval):
    """v, a number or a float array, once it lies in interval."""
    lo, hi, lo_open, hi_open = _bounds(interval)
    ok = (v > lo if lo_open else v >= lo) & (v < hi if hi_open else v <= hi)
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise ValidationError(f"{name} must be finite" if interval == _ANY
                              else f"{name} must lie in {interval}")
    return v


def _type_error(name, kind, value):
    return ValidationError(f"{name} must be {kind}, not {type(value).__name__}")


def _number(value, name, interval=_ANY):
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise _type_error(name, "a number", value)
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    return _inside(v, name, interval)


def _integer(value, name, interval=_ANY):
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return _inside(operator.index(value), name, interval)
    except TypeError:
        raise _type_error(name, "an integer", value) from None


def _integers(value, name, interval=_ANY):
    """A list, tuple or 1-d array of integers, as a tuple of int."""
    if not (isinstance(value, (list, tuple))
            or isinstance(value, np.ndarray) and value.ndim == 1):
        raise _type_error(name, "a list of integers", value)
    return tuple(_integer(v, name, interval) for v in value)


def _flag(value, name):
    if not isinstance(value, (bool, np.bool_)):
        raise _type_error(name, "true or false", value)
    return bool(value)


def _array(value, name, ndim=None, interval=_ANY):
    """value as a float array with finite entries in interval and, unless
    ndim is None, at most ndim dimensions."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be a numeric array")
    if ndim is not None and a.ndim > ndim:
        raise ValidationError(f"{name} must have at most {ndim} dimensions")
    a = a.astype(float, copy=False)
    if interval == _ANY and np.isfinite(a).all():
        return a
    return _inside(a, name, interval)


def _document(doc, name, required=(), optional=()):
    """doc, once it is a JSON object with every required key and no key
    outside required and optional."""
    if not isinstance(doc, dict):
        raise _type_error(name, "a JSON object", doc)
    for key in required:
        if key not in doc:
            raise ValidationError(f"{name} missing {key!r}")
    unknown = set(doc).difference(required, optional)
    if unknown:
        raise ValidationError(
            f"{name} has unknown fields {sorted(unknown, key=str)}")
    return doc


def _json(text, source):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValidationError(f"{source}: invalid JSON: {e}") from None
