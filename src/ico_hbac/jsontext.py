"""Streaming JSON text: the JSON counterpart of ``floattext``.

``json_chunks`` yields the text of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` in pieces, so a document whose lists are
generators is written as it is built, and a numpy vector is encoded a slice
at a time.  ``json_text`` encodes a value once, as a ``JsonText`` fragment
that ``json_chunks`` then places at its nesting level as it is.  Only
``--format json`` commands import this module.
"""

from __future__ import annotations

import math
import types
from json.encoder import encode_basestring_ascii

import numpy as np

_JSON_SLICE = 2048  # floats of a numpy vector encoded per piece of JSON text


class JsonText(str):
    """Already-encoded JSON text: ``json_chunks`` writes it as it is."""


def _scalar(value) -> str:
    if isinstance(value, str):
        return value if isinstance(value, JsonText) else encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _vector(vector, depth: int):
    """Pieces of a 1-D numpy float vector at nesting level ``depth``, one slice each."""
    if not vector.size:
        yield "[]"
        return
    separator = ",\n" + "  " * (depth + 1)
    for start in range(0, vector.size, _JSON_SLICE):
        part = vector[start : start + _JSON_SLICE]
        if not np.isfinite(part).all():
            bad = float(part[~np.isfinite(part)][0])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        lead = "[" + separator[1:] if start == 0 else separator
        yield lead + separator.join(map(float.__repr__, part.tolist()))
    yield "\n" + "  " * depth + "]"


def json_chunks(obj, depth: int = 0):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, in pieces.

    ``depth`` is the nesting level ``obj`` sits at.  A list may also be a
    generator, consumed as it is written.  A 1-D numpy float vector is
    encoded one slice at a time, and a ``JsonText`` fragment passes through.
    A non-finite float raises ``ValueError`` when it is reached, as
    ``allow_nan=False`` does.
    """
    if isinstance(obj, dict):
        items = ((f"{encode_basestring_ascii(key)}: ", obj[key]) for key in sorted(obj))
        brackets = "{}"
    elif isinstance(obj, (list, types.GeneratorType)):
        items = (("", item) for item in obj)
        brackets = "[]"
    elif isinstance(obj, np.ndarray):
        yield from _vector(obj, depth)
        return
    else:
        yield _scalar(obj)
        return
    inner = "\n" + "  " * (depth + 1)
    empty = True
    for prefix, value in items:
        yield (brackets[0] if empty else ",") + inner + prefix
        yield from json_chunks(value, depth + 1)
        empty = False
    yield brackets if empty else "\n" + "  " * depth + brackets[1]


def json_text(obj, depth: int) -> JsonText:
    """``obj`` encoded whole at nesting level ``depth``, to be placed there by ``json_chunks``."""
    return JsonText("".join(json_chunks(obj, depth)))
