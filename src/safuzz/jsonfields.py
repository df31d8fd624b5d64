"""The one place that decides JSON types.

Every loader reads its fields through these readers. Each takes a value as
`json` parsed it and `what`, the field's name, and returns the value as the
program uses it, or raises a ValueError that names the field and the value
(abbreviated). A JSON true or false is a bool, never an int or a number, and
a number must fit an IEEE 754 double, as RFC 8259 section 6 advises. Every
file the program reads or writes carries one format_version, FORMAT_VERSION.
"""

from __future__ import annotations

import math
from reprlib import repr as brief

import numpy as np

FORMAT_VERSION = 1
_KINDS = {bool: "true or false", int: "an int", str: "a string", list: "a JSON list",
          dict: "a JSON object"}


def typed(value, kind: type, what: str):
    """value, if its type is kind: bool, int, str, list or dict."""
    if type(value) is not kind:
        raise ValueError(f"{what} {brief(value)} is not {_KINDS[kind]}")
    return value


def number(value, what: str) -> float:
    """An int or a float as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} {brief(value)} is not a number")
    try:
        return float(value)
    except OverflowError:  # an int past a double's range
        raise ValueError(f"{what} {brief(value)} is beyond a double's range") from None


def positive(value, what: str) -> float:
    """A number above 0 and below infinity (NaN is neither) as a float."""
    if type(value) in (int, float) and 0 < value < math.inf:
        return number(value, what)
    raise ValueError(f"{what} {brief(value)} is not a positive finite number")


def dimensions(value, what: str) -> tuple[int, ...]:
    """A list of ints of at least 1 as a tuple: an empty value has nothing to search."""
    if type(value) is not list or not all(type(d) is int and d >= 1 for d in value):
        raise ValueError(f"{what} {brief(value)} is not a list of ints of at least 1")
    return tuple(value)


def numeric_array(value, dtype, what: str) -> np.ndarray:
    """Nested lists of numbers as an array of dtype. Every element is an int,
    or a float where dtype holds floats, and fits dtype."""
    numbers = {int} if np.dtype(dtype).kind in "iu" else {int, float}
    try:
        cells = np.asarray(value, dtype=object)  # a ragged list holds lists
        if set(map(type, cells.flat)) <= numbers:
            return cells.astype(dtype)  # a number past dtype's range is an OverflowError
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {brief(value)} is not an array of {np.dtype(dtype).name}")


def document(doc, what: str) -> dict:
    """A file's top-level JSON object, whose format_version is the int FORMAT_VERSION."""
    found = typed(doc, dict, what).get("format_version")
    if type(found) is not int or found != FORMAT_VERSION:
        raise ValueError(f"unsupported {what} format_version {brief(found)} "
                         f"(expected {FORMAT_VERSION})")
    return doc
