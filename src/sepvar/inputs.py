"""One strict reader for every value that comes from outside the program.

:func:`read` takes a value, its key and a declared :class:`Rule` (type and
range) or :class:`Vector` of them, and returns the value converted to that
type or raises :class:`InvalidInputError` naming the key.  A number is never
a bool or a text, every range test fails NaN, and integers follow one of
two rules:

- a value from a JSON document (``json=True``) is an integer when it is a
  number with no fractional part, so a JSON ``3.0`` reads as 3;
- a value a Python caller passes to a record is an integer only when it is
  an ``int`` or a numpy integer, so ``GridSpec(length=40.0)`` is refused.

A size (a rule with ``most``, such as :data:`SIZE`) is checked against its
largest value where it is read, before anything is built from it.

A record declares each field's rule next to it with :func:`ruled` and
starts its ``__post_init__`` with :func:`read_fields`.
"""

import math
from dataclasses import field, fields
from functools import cache
from numbers import Integral, Real
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exceptions import InvalidInputError


class Rule(NamedTuple):
    kind: type  # int or float
    text: str = ""  # names the range that ``test`` passes
    test: Optional[Callable] = None
    most: Optional[int] = None  # the largest value a size may take, checked after ``test``


class Vector(NamedTuple):
    entry: object  # the Rule or Vector of each entry
    make: Callable = tuple  # what the list of read entries becomes


POSITIVE_INT = Rule(int, "a positive integer", lambda v: v >= 1)
# The largest size (a count of parameters, datasets, soundings or grid
# points) read from outside.  It lies far past any problem the package fits,
# and a list or array of that many entries, made before the data can show
# the size to be wrong, is cheap; a larger one can page for minutes or fail
# to allocate.
MAX_SIZE = 10**6
SIZE = POSITIVE_INT._replace(most=MAX_SIZE)
NONNEGATIVE_INT = Rule(int, "a nonnegative integer", lambda v: v >= 0)
FINITE = Rule(float, "finite", math.isfinite)
POSITIVE = Rule(float, "positive", lambda v: v > 0.0)
NONNEGATIVE_FINITE = Rule(float, "nonnegative and finite", lambda v: 0.0 <= v < math.inf)
FINITE_VECTOR = Vector(FINITE, np.array)


def json_int(value):
    """The JSON integer rule: a float with no fractional part is that integer."""
    return int(value) if type(value) is float and value.is_integer() else value


def listed(value, key, label=""):
    """``value`` if it is a list, a tuple or an array of at least one axis."""
    if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
        raise InvalidInputError(f"{label}{key!r} must be a list, got {value!r}")
    return value


def read(value, key, rule, json=False, label=""):
    """``value`` read by ``rule``; an error names ``key``, prefixed by ``label``."""
    if isinstance(rule, Vector):
        entries = listed(value, key, label)
        return rule.make([read(v, key, rule.entry, json, label) for v in entries])
    kind, text, test, most = rule
    value = json_int(value) if json and kind is int else value
    if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
        what = "an integer" if kind is int else "a number"
        raise InvalidInputError(f"{label}{key!r} must be {what}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an integer too large for a float is out of every range
        raise InvalidInputError(
            f"{label}{key!r} must be {text}, got an integer too large for a float") from None
    if test is not None and not test(value):
        raise InvalidInputError(f"{label}{key!r} must be {text}, got {value!r}")
    if most is not None and value > most:
        shown = (value if value < 10**20 else f"{float(value):.3g}" if value < 2**1024
                 else f"an integer of {len(str(value))} digits")
        raise InvalidInputError(f"{label}{key!r} must be at most {most}, got {shown}")
    return value


def ruled(rule, **kwargs):
    """A dataclass field read by ``rule``, which may stay None if its default is."""
    return field(metadata={"rule": rule}, **kwargs)


@cache
def _rules(cls):
    return tuple((f.name, f.metadata["rule"], f.default is None)
                 for f in fields(cls) if "rule" in f.metadata)


def read_fields(record, label=""):
    """Read each ruled field of the frozen dataclass ``record`` in place."""
    for name, rule, may_be_none in _rules(type(record)):
        value = getattr(record, name)
        if value is not None or not may_be_none:
            object.__setattr__(record, name, read(value, name, rule, label=label))


def json_object(block, key):
    """``block`` if it is a JSON object (a dict)."""
    if not isinstance(block, dict):
        raise InvalidInputError(f"{key!r} must be a JSON object, got {block!r}")
    return block


def json_text(value, key):
    """``value`` if it is a JSON string."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{key!r} must be a string, got {value!r}")
    return value


def from_json(cls, block, key):
    """``cls(**block)`` of the JSON object under ``key``, by the JSON integer rule."""
    json_object(block, key)
    ints = {name for name, rule, _ in _rules(cls) if getattr(rule, "kind", None) is int}
    return cls(**{k: json_int(v) if k in ints else v for k, v in block.items()})
