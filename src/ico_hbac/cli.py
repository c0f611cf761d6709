"""Command-line surface: fixed-point, table1, run, sample, validate.

All commands emit machine-readable output.  CSV uses one fixed column schema
(``scheme,n,k,epsilon,round,outcome,probability,trials,value``) in long
format, CRLF-terminated and streamed as each command yields its lines.  No
cell needs RFC-4180 quoting (schemes are checked against SCHEMES, outcomes are
literals, every other cell is a number or a pipe-joined list of numbers), so a
line is its cells joined by commas.  JSON mirrors the same data as structured
objects with stable key order, with the bytes of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline; ``_json_chunks`` streams it,
numpy vectors a slice at a time, and ``sample`` encodes each distinct chain
state once.  Output of either format leaves in chunks of about 64 KiB.  CSV
floats are written with 17 significant digits and JSON floats with ``repr``,
so identical seeds reproduce identical bytes.  A CSV float is the bytes of
``format(x, ".17g")``; vectors of them are rendered by one numpy kernel,
``_float_rows``, which takes an entry's digits from ``'%.16e' % x`` only where
its 128-bit product cannot decide them (a fraction within the product's error
of one half, an exponent estimate one off, or a carry: 0.34% of the floats
of the sample-wide benchmark).

Exit codes: 0 success, 2 usage or domain error, 3 validation failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
import types
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import oracle
from .hbac_core import build_transfer, fixed_point, hbac_round
from .register import (
    DiagonalState,
    ReducedState,
    make_thermal_params,
    reset,
    thermal_full,
    thermal_reduced,
    uniform_full,
    uniform_reduced,
)
from .schemes import (
    BATH_SCHEMES,
    HBAC,
    HBAC_ICO,
    HBAC_KICO,
    ICO_TREE_SORT,
    PAIR_CHOICES,
    SCHEMES,
    AttemptChain,
    MaxAttemptsError,
    SchemeConfig,
    final_state,
    run_round,
    run_scheme,
    sample_batch,
    success_probability,
)
from .switch import MINUS, PLUS, branch_transfer, standard_pair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

FORMATS = ("csv", "json")
INITIAL_SELECTORS = ("uniform", "thermal", "fixed-point")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@functools.lru_cache(maxsize=None)
def _power_of_ten(exponent: int) -> tuple[int, int, bool]:
    """``(p, s, exact)``: ``10**exponent`` is ``p * 2**s`` rounded to nearest, ``2**63 <= p < 2**64``.

    ``exact`` says the rounding lost nothing (``0 <= exponent <= 27``).  The
    table stays Python ints, built per exponent on first use: numpy arrays
    built at import cost every command about 0.2 MB of RSS.
    """
    if exponent >= 0:
        power = 10**exponent
        shift = power.bit_length() - 64
        if shift <= 0:
            return power << -shift, shift, True
        rounded = (power + (1 << (shift - 1))) >> shift
        return rounded, shift, rounded << shift == power
    power = 10**-exponent
    shift = -(63 + power.bit_length())
    return ((1 << (1 - shift)) // power + 1) >> 1, shift, False


_FLOAT_SLICE = 4096  # floats per call of the CSV float kernel: bounds its temporaries (~1 MB)


def _decimal_digits(values):
    """``(N, X)``: ``|x|`` is ``N * 10**(X - 16)`` to 17 significant digits, ties to even.

    Zero and non-finite entries get ``N = X = 0``.  A finite nonzero ``|x|``
    is ``m * 2**(e - 64)`` with ``2**63 <= m < 2**64``.  ``X`` is estimated as
    ``floor(log10|x|)``, and ``N`` is read from the high word of the 128-bit
    product of ``m`` and ``_power_of_ten(16 - X)``, formed from 32-bit
    halves.  That word is within half a unit of the exact product, and exact
    when the power is.  An entry this cannot decide takes ``N`` and ``X`` from
    ``'%.16e' % |x|``, the same correctly rounded digits: its fraction lies
    within that error of one half, or ``N`` before rounding is outside
    ``[10**16, 10**17)`` (the estimate of ``X`` was one off), or rounding
    carried it to ``10**17``.
    """
    magnitude = np.abs(values)
    nonzero = np.isfinite(magnitude) & (magnitude != 0.0)
    safe = np.where(nonzero, magnitude, 1.0)
    fraction, binary = np.frexp(safe)
    mantissa = np.ldexp(fraction, 64).astype(np.uint64)
    decimal = np.floor(np.log10(safe)).astype(np.int64)

    # 10**(16 - X) ~ power * 2**shift, looked up over the span of exponents present
    scale = 16 - decimal
    lowest = int(scale.min())
    table = [_power_of_ten(exponent) for exponent in range(lowest, int(scale.max()) + 1)]
    scale -= lowest
    power = np.array([entry[0] for entry in table], dtype=np.uint64)[scale]
    drop = (-binary - np.array([entry[1] for entry in table])[scale]).astype(np.uint64)
    exact = np.array([entry[2] for entry in table])[scale]

    # the 128-bit product mantissa * power, as a high and a low word
    low32, shift32, one = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)
    m_low, m_high = mantissa & low32, mantissa >> shift32
    p_low, p_high = power & low32, power >> shift32
    low_low = m_low * p_low
    high_low = m_high * p_low
    cross = (low_low >> shift32) + (high_low & low32) + m_low * p_high
    high = m_high * p_high + (high_low >> shift32) + (cross >> shift32)
    low = (cross << shift32) | (low_low & low32)

    # N before rounding is ``high >> drop``; ``rest`` is the fraction in units of ``high``
    truncated = high >> drop
    rest = high & ((one << drop) - one)
    half = one << (drop - one)
    up = (rest > half) | ((rest == half) & ((low != 0) | ((truncated & one) == one)))
    digits = truncated + up
    # an inexact power leaves the product within half a unit of ``high`` of the
    # truth: undecided when ``rest + low / 2**64`` is within 1/2 of ``half``
    low_top = (low >> np.uint64(63)) == one
    undecided = ~exact & np.where(low_top, rest + one == half, rest == half)
    fallback = nonzero & (
        (truncated < np.uint64(10**16)) | (digits >= np.uint64(10**17)) | undecided
    )
    digits[~nonzero] = 0
    decimal[~nonzero] = 0
    for index in np.flatnonzero(fallback).tolist():
        text = "%.16e" % magnitude[index]  # d.dddddddddddddddde±XX[X]
        digits[index] = int(text[0] + text[2:18])
        decimal[index] = int(text[19:])
    return digits, decimal


def _ascii_digits(digits):
    """``(text, keep)``: the 17 digits of each ``N`` in ASCII, and how many to keep.

    ``text`` holds the digits, first to last, in rows 1 to 17 between two
    padding rows, one column per entry.  ``keep`` counts the digits up to the
    last nonzero one.
    """
    count = digits.size
    text = np.zeros((19, count), dtype=np.uint8)
    leading = (digits // np.uint64(10**9)).astype(np.uint32)
    trailing = (digits - leading.astype(np.uint64) * np.uint64(10**9)).astype(np.uint32)
    ten = np.uint32(10)
    keep = np.full(count, 17)
    zeros = np.ones(count, dtype=bool)  # every digit after this one is 0
    row = 17
    for part, width in ((trailing, 9), (leading, 8)):
        for _ in range(width):
            quotient = part // ten
            digit = part - quotient * ten
            text[row] = digit + 48
            zeros &= digit == 0
            keep -= zeros
            part = quotient
            row -= 1
    return text, keep


def _float_rows(block) -> list[str]:
    """Each row of the 2-D float array ``block`` as ``"|".join(format(x, ".17g") for x in row)``."""
    # the rows are decoded once the kernel's temporaries are freed, so these
    # long-lived strings reuse the memory the temporaries leave instead of
    # growing the heap past it
    return str(_float_text(block), "ascii").split("\n")[:-1]


def _float_text(block):
    """The ASCII text of ``_float_rows(block)``, each row ended by a newline, as a uint8 array.

    Every step is elementwise numpy over the block.  ``_decimal_digits``
    gives each entry's 17 digits and decimal exponent ``X``; each entry then
    becomes a fixed-width record padded with NULs: a sign; ``0.000`` up to the
    first digit when ``-4 <= X < 0``; the digits, with the dot after ``X + 1``
    of them (after one in exponent form) and without trailing zeros or a bare
    dot; ``e±XX[X]`` when ``X < -4`` or ``X >= 17``; ``nan`` or ``inf``
    instead of the digits; then a ``|``, or a newline at the end of a row.
    The NULs are then dropped.
    """
    values = block.ravel()
    digits, decimal = _decimal_digits(values)
    ascii_digits, keep = _ascii_digits(digits)
    finite = np.isfinite(values)
    exponent_form = (decimal < -4) | (decimal >= 17)
    before_dot = np.where(exponent_form, 1, decimal + 1)  # <= 0 for 0.000ddd
    np.maximum(keep, before_dot, out=keep)
    keep[~finite] = 0
    has_dot = (keep > before_dot) & (before_dot > 0)
    dot = np.where(has_dot, before_dot, 17)

    # rows: sign, "0.000", 18 body columns (17 digits and a dot), "e±XXX", separator
    record = np.empty((30, values.size), dtype=np.uint8)
    record[0] = np.where(np.signbit(values) & (values == values), ord("-"), 0)
    prefix = np.where((decimal < 0) & ~exponent_form, 1 - decimal, 0)  # length of 0.000
    record[1:6] = np.where(
        np.arange(5)[:, None] < prefix, np.frombuffer(b"0.000", dtype=np.uint8)[:, None], 0
    )
    # body column c holds digit c before the dot and digit c - 1 after it
    column = np.arange(18)[:, None]
    body = record[6:24]
    np.copyto(body, np.where(column < dot, ascii_digits[1:], ascii_digits[:-1]))
    np.put_along_axis(body, dot[None, :], ord("."), axis=0)
    body *= column < keep + has_dot
    size = np.abs(decimal)
    record[24] = ord("e")
    record[25] = np.where(decimal < 0, ord("-"), ord("+"))
    record[26] = (size // 100 + 48) * (size >= 100)
    record[27] = size // 10 % 10 + 48
    record[28] = size % 10 + 48
    record[24:29] *= exponent_form
    if not finite.all():
        nan = np.isnan(values)
        for offset, (in_nan, in_inf) in enumerate(zip(b"nan", b"inf")):
            record[1 + offset] = np.where(nan, in_nan, np.where(finite, record[1 + offset], in_inf))
    record[29] = ord("|")
    record[29, block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    text = record.T.ravel()
    return text[text != 0]


def _join_state(vector) -> str:
    """The floats of 1-D ``vector`` with 17 significant digits, pipe-joined."""
    return "|".join(
        row
        for start in range(0, vector.size, _FLOAT_SLICE)
        for row in _float_rows(vector[None, start : start + _FLOAT_SLICE])
    )


def _join_states(vectors: list) -> list[str]:
    """``_join_state`` of each of ``vectors`` (1-D, one length), several per kernel call."""
    if vectors[0].size > _FLOAT_SLICE:
        return [_join_state(vector) for vector in vectors]
    per_call = _FLOAT_SLICE // vectors[0].size
    return [
        row
        for start in range(0, len(vectors), per_call)
        for row in _float_rows(np.stack(vectors[start : start + per_call]))
    ]


def _json_float(value):
    value = float(value)
    return value if math.isfinite(value) else None


def _head(scheme: str, n: int, k, epsilon) -> str:
    """The ``scheme,n,k,epsilon`` cells that every line of one command shares."""
    return ",".join(map(_fmt, (scheme, n, k, epsilon)))


def _line(head: str, *cells) -> str:
    """``head`` and ``cells`` as one CSV line (no cell needs quoting: see the module docstring)."""
    return ",".join((head, *map(_fmt, cells))) + "\r\n"


_JSON_SLICE = 2048  # floats of a numpy vector encoded per piece of JSON text


def _vector_lines(head: str, outcome: str, vector):
    """One ``head,i,outcome,,,value`` line per entry of ``vector``, ``i`` counting from 1."""
    for start in range(0, vector.size, _FLOAT_SLICE):
        # one row per entry: the kernel's rows are the values' texts
        texts = _float_rows(vector[start : start + _FLOAT_SLICE, None])
        for i, text in enumerate(texts, start + 1):
            yield f"{head},{i},{outcome},,,{text}\r\n"


class _JsonText(str):
    """Already-encoded JSON text: ``_json_chunks`` writes it as it is."""


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return value if isinstance(value, _JsonText) else encode_basestring_ascii(value)
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


def _json_vector(vector, depth: int):
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


def _json_chunks(obj, depth: int = 0):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, in pieces.

    ``depth`` is the nesting level ``obj`` sits at.  A list may also be a
    generator, consumed as it is written.  A 1-D numpy float vector is
    encoded one slice at a time, and a ``_JsonText`` fragment passes through.
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
        yield from _json_vector(obj, depth)
        return
    else:
        yield _json_scalar(obj)
        return
    inner = "\n" + "  " * (depth + 1)
    empty = True
    for prefix, value in items:
        yield (brackets[0] if empty else ",") + inner + prefix
        yield from _json_chunks(value, depth + 1)
        empty = False
    yield brackets if empty else "\n" + "  " * depth + brackets[1]


def _json_text(obj, depth: int) -> _JsonText:
    """``obj`` encoded whole at nesting level ``depth``, to be placed there by ``_json_chunks``."""
    return _JsonText("".join(_json_chunks(obj, depth)))


_HEADER = "scheme,n,k,epsilon,round,outcome,probability,trials,value\r\n"
_CHUNK_CHARS = 1 << 16  # characters gathered before each write


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or the file at ``path`` opened (and closed) around the write."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _emit(lines, obj, fmt: str, output: str | None) -> None:
    """Write the CSV header and ``lines`` (CRLF-terminated CSV lines), or ``obj`` as JSON.

    Both are consumed piece by piece and written in chunks, so ``lines`` and the
    lists of ``obj`` may be generators.
    """
    if fmt == "csv":
        pieces = itertools.chain((_HEADER,), lines)
    else:
        pieces = itertools.chain(_json_chunks(obj), ("\n",))
    with _output(output) as handle:
        # pieces leave in chunks: standard output may be unbuffered
        # (PYTHONUNBUFFERED), and a write per piece is then a system call per piece
        chunk = []
        pending = 0
        for piece in pieces:
            chunk.append(piece)
            pending += len(piece)
            if pending >= _CHUNK_CHARS:
                handle.write("".join(chunk))
                chunk.clear()
                pending = 0
        handle.write("".join(chunk))


# ---------------------------------------------------------------------------
# run specifications
# ---------------------------------------------------------------------------


class _Key(NamedTuple):
    """One run-spec key: its config-file types, allowed strings, lower bound and default.

    A ``default`` is given only where ``SchemeConfig`` has none; the others
    come from its fields.
    """

    types: type | tuple
    choices: tuple | None = None
    minimum: int | None = None
    default: object = None


# every run-spec key, in the order of its flag
_RUNSPEC = {
    "scheme": _Key(str, SCHEMES),
    "n": _Key(int),
    "k": _Key(int),
    "epsilon": _Key((int, float)),
    "initial": _Key((str, list), INITIAL_SELECTORS),
    "seed": _Key(int),
    "desired_success": _Key((int, float)),
    "pair": _Key(str, PAIR_CHOICES),
    "level": _Key(int),
    "nondemolition": _Key(bool),
    "repump_rounds": _Key(int),
    "max_attempts": _Key(int),
    "trials": _Key(int, minimum=1, default=1),
    "workers": _Key(int, minimum=1, default=1),
    "format": _Key(str, FORMATS, default="csv"),
    "output": _Key(str),
}
_SAMPLE_ONLY = ("trials", "workers")  # keys that only ``sample`` has flags for

# every SchemeConfig field but ``initial``, which the spec holds as a selector or vector
_CONFIG_FIELDS = [field for field in dataclasses.fields(SchemeConfig) if field.name != "initial"]
_DEFAULTS = {
    field.name: field.default
    for field in _CONFIG_FIELDS
    if field.default not in (None, dataclasses.MISSING)
} | {name: key.default for name, key in _RUNSPEC.items() if key.default is not None}


def validate_runspec(raw: dict) -> dict:
    """Check the key names, value types, allowed strings and bounds of a run specification."""
    if not isinstance(raw, dict):
        raise UsageError("run specification must be a JSON object")
    unknown = sorted(set(raw) - set(_RUNSPEC))
    if unknown:
        raise UsageError(f"unknown run specification keys: {unknown}")
    for name, value in raw.items():
        key = _RUNSPEC[name]
        if isinstance(value, bool) and key.types is not bool:
            raise UsageError(f"run specification key {name!r} has wrong type bool")
        if not isinstance(value, key.types):
            raise UsageError(
                f"run specification key {name!r} expects {key.types}, got {type(value).__name__}"
            )
        if isinstance(value, list):
            for entry in value:
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise UsageError(
                        f"run specification key {name!r} expects a list of numbers, "
                        f"got {type(entry).__name__} {entry!r}"
                    )
        elif key.choices and value not in key.choices:
            raise UsageError(f"{name} must be one of {key.choices}, got {value!r}")
        if key.minimum is not None and value < key.minimum:
            raise UsageError(f"{name} must be >= {key.minimum}, got {value}")
    return dict(raw)


def load_runspec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    return validate_runspec(raw)


def _merge_runspec(args) -> dict:
    spec = dict(_DEFAULTS)
    if getattr(args, "config", None):
        spec.update(load_runspec(args.config))
    for key in _RUNSPEC:
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if "scheme" not in spec:
        raise UsageError("a scheme is required (flag --scheme or config key 'scheme')")
    if "n" not in spec:
        raise UsageError("a register exponent is required (flag --n or config key 'n')")
    return validate_runspec(spec)


def _resolve_initial(selector, scheme: str, n: int, params):
    if selector is None:
        return None
    bath = scheme in BATH_SCHEMES
    if isinstance(selector, str):
        if selector == "uniform":
            return uniform_reduced(n) if bath else uniform_full(n)
        if selector == "thermal":
            if params is None:
                raise UsageError("a thermal initial state needs epsilon")
            return thermal_reduced(n, params) if bath else thermal_full(n, params)
        # "fixed-point", the last selector validate_runspec admits
        if params is None:
            raise UsageError("a fixed-point initial state needs epsilon")
        profile = fixed_point(n, params)
        return profile if bath else reset(profile, params)
    vector = np.asarray(selector, dtype=float)
    expected = 2**n if bath else 2 ** (n + 1)
    if vector.size != expected:
        raise UsageError(
            f"explicit initial vector must have length {expected} for this scheme, got {vector.size}"
        )
    return ReducedState.from_vector(vector) if bath else DiagonalState.from_vector(vector)


def _config_from_runspec(spec: dict) -> SchemeConfig:
    epsilon = spec.get("epsilon")
    params = make_thermal_params(epsilon) if epsilon is not None else None
    initial = _resolve_initial(spec.get("initial"), spec["scheme"], spec["n"], params)
    fields = {field.name: spec[field.name] for field in _CONFIG_FIELDS if field.name in spec}
    return SchemeConfig(**fields, initial=initial)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fixed_point(args) -> int:
    params = make_thermal_params(args.epsilon)
    profile = fixed_point(args.n, params)
    residual = float(
        np.abs(hbac_round(profile, params).populations - profile.populations).sum()
    )
    head = _head(HBAC, args.n, None, args.epsilon)

    def lines():
        yield from _vector_lines(head, "fixed-point", profile.populations)
        yield _line(head, None, "residual", None, None, residual)

    obj = None
    if args.format == "json":
        obj = {
            "command": "fixed-point",
            "n": args.n,
            "epsilon": args.epsilon,
            "fixed_point": profile.populations,
            "residual_l1": residual,
        }
    _emit(lines(), obj, args.format, args.output)
    return EXIT_OK


def cmd_table1(args) -> int:
    make_thermal_params(args.epsilon)
    # every scheme is evaluated before the output opens; only lines are kept
    lines = []
    json_rows = []
    for scheme in SCHEMES:
        config = SchemeConfig(
            scheme=scheme,
            n=args.n,
            epsilon=args.epsilon,
            k=args.k if scheme == HBAC_KICO else None,
            nondemolition=args.nondemolition,
        )
        report = run_scheme(config)
        head = _head(scheme, args.n, config.k, args.epsilon)
        values = {
            "bath": args.epsilon if report.bath_used else "none",
            "input-pure-qubits": report.input_pure_qubits,
            "output-pure-qubits": report.output_pure_qubits,
            "success-probability": report.success_probability,
            "expected-trials": report.expected_trials,
        }
        for quantity, value in values.items():
            lines.append(_line(head, None, quantity, report.success_probability, None, value))
        json_rows.append(
            {
                "scheme": scheme,
                "bath": args.epsilon if report.bath_used else None,
                "input_pure_qubits": report.input_pure_qubits,
                "output_pure_qubits": report.output_pure_qubits,
                "success_probability": report.success_probability,
                "expected_trials": _json_float(report.expected_trials),
            }
        )
    obj = {
        "command": "table1",
        "n": args.n,
        "epsilon": args.epsilon,
        "k": args.k,
        "nondemolition": args.nondemolition,
        "rows": json_rows,
    }
    _emit(lines, obj, args.format, args.output)
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _merge_runspec(args)
    config = _config_from_runspec(spec)
    report = run_scheme(config)
    final = final_state(config)
    head = _head(config.scheme, config.n, config.k, config.epsilon)
    quantities = [
        ("success-probability", report.success_probability),
        ("expected-trials", report.expected_trials),
        ("input-pure-qubits", report.input_pure_qubits),
        ("output-pure-qubits", report.output_pure_qubits),
        ("bath-used", report.bath_used),
    ]
    if report.trials_for_desired is not None:
        quantities.append(("trials-for-desired", report.trials_for_desired))

    def lines():
        for name, value in quantities:
            yield _line(head, None, name, report.success_probability, None, value)
        yield from _vector_lines(head, "final-state", final.populations)

    obj = None
    if spec["format"] == "json":
        obj = {
            "command": "run",
            "runspec": spec,
            "report": {
                "success_probability": report.success_probability,
                "expected_trials": _json_float(report.expected_trials),
                "input_pure_qubits": report.input_pure_qubits,
                "output_pure_qubits": report.output_pure_qubits,
                "bath_used": report.bath_used,
                "trials_for_desired": report.trials_for_desired,
                "final_state_qubits": final.n + 1,
                "final_state": final.populations,
            },
        }
    _emit(lines(), obj, spec["format"], spec.get("output"))
    return EXIT_OK


# nesting level of an attempt's state in the sample document:
# top object > "trajectories" > trajectory > "attempts" > attempt > "state"
_SAMPLE_STATE_DEPTH = 5


def cmd_sample(args) -> int:
    spec = _merge_runspec(args)
    config = _config_from_runspec(spec)
    chain = AttemptChain(config)
    # every draw happens before the output is opened, so a failed run writes nothing;
    # ``workers`` is not read: every worker count draws the same trajectories
    runs = sample_batch(chain, spec["trials"])
    tree = config.scheme == ICO_TREE_SORT
    trials_used = [1] * len(runs) if tree else runs.tolist()
    head = _head(config.scheme, config.n, config.k, config.epsilon)
    want_json = spec["format"] == "json"
    # trajectories share chain positions, so each position is rendered once:
    # for CSV its cells, all before the output opens and several states per
    # kernel call; for JSON its probability and its state's encoded text, on first use
    rendered: dict = {}
    if not want_json:
        # outcomes whose attempts reach every position any run reaches: each
        # distinct tree-sort outcome, or the longest heralded run
        covering = set(runs) if tree else {MINUS * (max(trials_used) - 1) + PLUS}
        positions = list(dict.fromkeys(p for outcomes in covering for p in chain.positions(outcomes)))
        visits = [chain.at(position) for position in positions]
        texts = _join_states([state.populations for state, _probability in visits])
        for position, (_state, probability), text in zip(positions, visits, texts):
            rendered[position] = (_fmt(probability), text)

    def trajectories():
        """(index, trials used, outcomes) of every run, counting from 1.

        A heralded run failed every trial before its last; a tree-sort run
        records one outcome per level.
        """
        for index, used in enumerate(trials_used, start=1):
            yield index, used, runs[index - 1] if tree else MINUS * (used - 1) + PLUS

    def attempts(outcomes):
        """(round, outcome, probability, state) of every attempt in ``outcomes``."""
        for number, (outcome, position) in enumerate(zip(outcomes, chain.positions(outcomes)), 1):
            cells = rendered.get(position)
            if cells is None:
                state, probability = chain.at(position)
                cells = (probability, _json_text(state.populations, _SAMPLE_STATE_DEPTH))
                rendered[position] = cells
            yield number, outcome, *cells

    mean_trials = sum(trials_used) / len(trials_used)
    analytic = success_probability(config)
    expected = math.inf if analytic == 0.0 else 1.0 / analytic
    summary = {
        "trajectories": len(trials_used),
        "mean-trials": mean_trials,
        "expected-trials": expected,
    }

    def lines():
        for index, _used, outcomes in trajectories():
            for number, outcome, probability, state in attempts(outcomes):
                yield f"{head},{number},{outcome},{probability},{index},{state}\r\n"
        for name, value in summary.items():
            yield _line(head, None, name, None, None, value)

    obj = None
    if want_json:
        obj = {
            "command": "sample",
            "runspec": spec,
            "summary": {
                "trajectories": len(trials_used),
                "mean_trials": mean_trials,
                "expected_trials": _json_float(expected),
            },
            # generators: each trajectory is built as it is written
            "trajectories": (
                {
                    "index": index,
                    "trials_used": used,
                    "terminal": True,  # a run that never heralds raises instead
                    "attempts": (
                        dict(zip(("round", "outcome", "probability", "state"), attempt))
                        for attempt in attempts(outcomes)
                    ),
                }
                for index, used, outcomes in trajectories()
            ),
        }
    _emit(lines(), obj, spec["format"], spec.get("output"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------


def _validation_checks(nmax: int, trials: int, seed: int):
    """Oracle equivalence plus the structural invariants, as (name, ok, detail)."""
    checks = []
    epsilons = (0.1, 0.5, 1.0)

    report = oracle.compare(nmax=nmax, trials=trials, seed=seed)
    for (family, sign), deviation in sorted(report.by_case.items()):
        checks.append(
            (f"oracle diagonal [{family} {sign}]", deviation < 1e-12, f"max dev {deviation:.3e}")
        )
    checks.append(
        (
            "oracle off-diagonals vanish",
            report.max_offdiagonal < 1e-12,
            f"max off-diag {report.max_offdiagonal:.3e}",
        )
    )

    worst = 0.0
    for eps in epsilons:
        params = make_thermal_params(eps)
        for n in range(1, min(nmax + 3, 7)):
            transfer = build_transfer(n, params)
            worst = max(worst, float(np.abs(transfer.entries.sum(axis=0) - 1.0).max()))
    checks.append(("transfer columns sum to one", worst < 1e-12, f"max dev {worst:.3e}"))

    worst = 0.0
    for eps in epsilons:
        params = make_thermal_params(eps)
        for n in range(1, min(nmax + 3, 7)):
            spec = standard_pair(n)
            total = (
                branch_transfer(n, params, spec, "+").entries
                + branch_transfer(n, params, spec, "-").entries
            )
            worst = max(worst, float(np.abs(total - build_transfer(n, params).entries).max()))
    checks.append(("branch matrices sum to transfer", worst < 1e-14, f"max dev {worst:.3e}"))

    worst = 0.0
    for eps in epsilons:
        params = make_thermal_params(eps)
        for n in range(1, 9):
            profile = fixed_point(n, params)
            worst = max(
                worst,
                float(np.abs(hbac_round(profile, params).populations - profile.populations).sum()),
            )
    checks.append(("fixed point is stationary", worst < 1e-12, f"max L1 residual {worst:.3e}"))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for eps in epsilons:
        params = make_thermal_params(eps)
        for n in range(1, 7):
            transfer = build_transfer(n, params)
            vec = rng.random(2**n)
            vec /= vec.sum()
            state = ReducedState.from_vector(vec)
            direct = transfer.apply(state).populations
            matrix_free = hbac_round(state, params).populations
            worst = max(worst, float(np.abs(direct - matrix_free).max()))
    checks.append(("matrix-free round matches matrix", worst < 1e-13, f"max dev {worst:.3e}"))

    worst = 0.0
    for eps in epsilons:
        params = make_thermal_params(eps)
        config = SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=eps)
        closed = success_probability(config)
        plus, _minus = run_round(fixed_point(10, params), config)
        worst = max(worst, abs(closed - plus.norm))
        for n in range(2, min(nmax + 4, 9)):
            for k in range(1, n + 1):
                config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=eps, k=k)
                closed = success_probability(config)
                plus, _minus = run_round(fixed_point(n, params), config)
                worst = max(worst, abs(closed - plus.norm))
    checks.append(
        ("closed-form success matches branch norm", worst < 1e-12, f"max dev {worst:.3e}")
    )

    return checks


def cmd_validate(args) -> int:
    checks = _validation_checks(args.nmax, args.trials, args.seed)
    passed = sum(ok for _, ok, _ in checks)
    all_ok = passed == len(checks)
    with _output(args.output) as handle:
        for name, ok, detail in checks:
            handle.write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}\n")
        overall = f"overall: {passed}/{len(checks)} checks passed"
        handle.write(f"{'ok  ' if all_ok else 'FAIL'} {overall}\n")
    return EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_runspec_flags(parser, include_trials: bool) -> None:
    parser.add_argument("--config", help="JSON run specification; flags override its keys")
    for name, key in _RUNSPEC.items():
        if name in _SAMPLE_ONLY and not include_trials:
            continue
        flags = ("--eps",) if name == "epsilon" else ()
        flags += ("--" + name.replace("_", "-"),)
        if key.types is bool:
            options = {"action": "store_const", "const": True, "default": None}
        elif key.choices:
            options = {"choices": key.choices}
        else:
            options = {"type": float if key.types == (int, float) else key.types}
        if name == "initial":
            options["help"] = "initial-state selector; explicit vectors go in the config file"
        parser.add_argument(*flags, dest=name, **options)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ico-hbac",
        description="Register cooling schemes with and without switch-heralded purification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fp = sub.add_parser("fixed-point", help="stationary cooling profile and its residual")
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--eps", "--epsilon", dest="epsilon", type=float, required=True)
    fp.add_argument("--format", choices=FORMATS, default="csv")
    fp.add_argument("--output")
    fp.set_defaults(func=cmd_fixed_point)

    t1 = sub.add_parser("table1", help="resource comparison of the five schemes")
    t1.add_argument("--n", type=int, required=True)
    t1.add_argument("--eps", "--epsilon", dest="epsilon", type=float, required=True)
    t1.add_argument("--k", type=int, default=1)
    t1.add_argument("--nondemolition", action="store_true")
    t1.add_argument("--format", choices=FORMATS, default="csv")
    t1.add_argument("--output")
    t1.set_defaults(func=cmd_table1)

    run_p = sub.add_parser("run", help="evaluate one scheme configuration")
    _add_runspec_flags(run_p, include_trials=False)
    run_p.set_defaults(func=cmd_run)

    sample_p = sub.add_parser("sample", help="Monte Carlo trajectory batches")
    _add_runspec_flags(sample_p, include_trials=True)
    sample_p.set_defaults(func=cmd_sample)

    val = sub.add_parser("validate", help="oracle equivalence and invariant battery")
    val.add_argument("--nmax", type=int, default=3)
    val.add_argument("--trials", type=int, default=100)
    val.add_argument("--seed", type=int, default=7)
    val.add_argument("--output")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, MaxAttemptsError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
