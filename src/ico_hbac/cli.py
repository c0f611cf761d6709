"""Command-line surface: fixed-point, table1, run, sample, validate.

This module is the command line only: argument parsing, run specifications,
each command's rows and the output sink.  ``validate``'s battery lives in
``oracle``, the JSON encoder in ``jsontext``, and the attempt chain, its
draws and the meaning of a sampled run in ``sampling``; each is imported only
by the commands that run it.

All commands emit machine-readable output.  CSV uses one fixed column schema
(``scheme,n,k,epsilon,round,outcome,probability,trials,value``) in long
format, CRLF-terminated and streamed as each command yields its lines.  No
cell needs RFC-4180 quoting (schemes are checked against SCHEMES, outcomes are
literals, every other cell is a number or a pipe-joined list of numbers), so a
line is its cells joined by commas.  JSON mirrors the same data as structured
objects with stable key order, with the bytes of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline; ``jsontext.json_chunks``
streams it, numpy vectors a slice at a time.  ``sample`` renders each
distinct chain state once, before the output opens, in either format, and
once the draw is done it swaps the chain's rows for their text a kernel
slice at a time, so rows and texts are never all held at once.  Each of its CSV
attempt lines is a cached ``pre`` (``head,round,outcome,probability,``), the
trajectory index and a cached ``tail`` (``,state`` and CRLF), both built once
per chain key and joined by one ``str.join`` per attempt.  Output of either
format leaves in chunks of about 64 KiB.  CSV floats are written with 17
significant digits and JSON floats with ``repr``, so identical seeds
reproduce identical bytes.  A CSV float is the bytes of
``format(x, ".17g")``; vectors of them are rendered by the numpy kernel of
``floattext``, ``_FLOAT_SLICE`` floats per call.

``table1``, ``run`` and the ``sample`` summary declare each quantity once, as
a ``(name, value)`` pair.  Its JSON field is the CSV quantity's name with
``_`` in place of ``-``; a non-finite value is ``null``, and so is
``table1``'s ``none`` bath.  Every flag but ``--config`` and ``--nmax`` is
built from its run-spec key in ``_RUNSPEC``.

Exit codes: 0 success, 2 the input was refused (a ``register.Refusal``, an
exhausted attempt budget, or memory that ran out), 3 validation failure, 4 I/O.
Any other exception is a bug: it exits 1 with a traceback.
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
from typing import NamedTuple

import numpy as np

from .floattext import float_rows as _float_rows
from .hbac_core import fixed_point, hbac_round
from .register import Refusal, make_thermal_params
from .schemes import (
    _SCHEMES,
    HBAC,
    INITIAL_SELECTORS,
    PAIR_CHOICES,
    SCHEMES,
    MaxAttemptsError,
    SchemeConfig,
    final_state,
    run_scheme,
    sample_batch,
    success_probability,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise Refusal(message)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# floats per call of the CSV float kernel: bounds its temporaries (~0.36 MB by tracemalloc)
_FLOAT_SLICE = 4096


def _join_states(vectors: list) -> list[str]:
    """Swap each 1-D vector of one length in ``vectors`` for its ``.17g`` floats pipe-joined.

    Several vectors go to each kernel call, or one vector to several calls
    when it is longer than a slice.  Each call's vectors leave the list as
    soon as their text exists, so it never holds every vector beside every
    text.  Returns ``vectors``, which then holds the texts.
    """
    size = vectors[0].size
    per_call = max(1, _FLOAT_SLICE // size)
    block = np.empty((min(per_call, len(vectors)), size))  # refilled for every call
    for start in range(0, len(vectors), per_call):
        part = np.stack(vectors[start : start + per_call], out=block[: len(vectors) - start])
        pieces = [
            _float_rows(part[:, cut : cut + _FLOAT_SLICE]) for cut in range(0, size, _FLOAT_SLICE)
        ]
        vectors[start : start + per_call] = map("|".join, zip(*pieces))
    return vectors


def _json_fields(quantities) -> dict:
    """JSON fields of ``(name, value)`` quantities: ``-`` becomes ``_``, a non-finite float None."""
    return {
        name.replace("-", "_"): (
            None if isinstance(value, float) and not math.isfinite(value) else value
        )
        for name, value in quantities
    }


def _head(scheme: str, n: int, k, epsilon) -> str:
    """The ``scheme,n,k,epsilon`` cells that every line of one command shares."""
    return ",".join(map(_fmt, (scheme, n, k, epsilon)))


def _line(head: str, *cells) -> str:
    """``head`` and ``cells`` as one CSV line (no cell needs quoting: see the module docstring)."""
    return ",".join((head, *map(_fmt, cells))) + "\r\n"


def _vector_lines(head: str, outcome: str, vector):
    """``head,i,outcome,,,value`` lines, one per entry (``i`` from 1), joined per kernel slice."""
    for start in range(0, vector.size, _FLOAT_SLICE):
        texts = _float_rows(vector[None, start : start + _FLOAT_SLICE])[0].split("|")
        yield "".join(
            f"{head},{i},{outcome},,,{text}\r\n" for i, text in enumerate(texts, start + 1)
        )


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
        from .jsontext import json_chunks  # here, so that only JSON output compiles it

        pieces = itertools.chain(json_chunks(obj), ("\n",))
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
    "nondemolition": _Key(bool),
    "repump_rounds": _Key(int),
    "max_attempts": _Key(int),
    "trials": _Key(int, minimum=1, default=1),
    "format": _Key(str, FORMATS, default="csv"),
    "output": _Key(str),
}

_CONFIG_FIELDS = dataclasses.fields(SchemeConfig)
_DEFAULTS = {
    field.name: field.default
    for field in _CONFIG_FIELDS
    if field.default not in (None, dataclasses.MISSING)
} | {name: key.default for name, key in _RUNSPEC.items() if key.default is not None}


def validate_runspec(raw: dict) -> dict:
    """Check the key names, value types, allowed strings and bounds of a run specification."""
    if not isinstance(raw, dict):
        raise Refusal("run specification must be a JSON object")
    unknown = sorted(set(raw) - set(_RUNSPEC))
    if unknown:
        raise Refusal(f"unknown run specification keys: {unknown}")
    for name, value in raw.items():
        key = _RUNSPEC[name]
        if isinstance(value, bool) and key.types is not bool:
            raise Refusal(f"run specification key {name!r} has wrong type bool")
        if not isinstance(value, key.types):
            raise Refusal(
                f"run specification key {name!r} expects {key.types}, got {type(value).__name__}"
            )
        if isinstance(value, list):
            for entry in value:
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise Refusal(
                        f"run specification key {name!r} expects a list of numbers, "
                        f"got {type(entry).__name__} {entry!r}"
                    )
        elif key.choices and value not in key.choices:
            raise Refusal(f"{name} must be one of {key.choices}, got {value!r}")
        if key.minimum is not None and value < key.minimum:
            raise Refusal(f"{name} must be >= {key.minimum}, got {value}")
    return dict(raw)


def load_runspec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise Refusal(f"config file {path}: {exc}") from exc
    return validate_runspec(raw)


def _merge_runspec(args) -> dict:
    spec = dict(_DEFAULTS)
    if args.config:
        spec.update(load_runspec(args.config))
    for key in _RUNSPEC:
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if "scheme" not in spec:
        raise Refusal("a scheme is required (flag --scheme or config key 'scheme')")
    if "n" not in spec:
        raise Refusal("a register exponent is required (flag --n or config key 'n')")
    return validate_runspec(spec)


def _config_from_runspec(spec: dict) -> SchemeConfig:
    """The spec's ``SchemeConfig`` fields as they are: ``schemes`` decides what they mean."""
    return SchemeConfig(
        **{field.name: spec[field.name] for field in _CONFIG_FIELDS if field.name in spec}
    )


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
            k=args.k if _SCHEMES[scheme].takes_k else None,
            nondemolition=args.nondemolition,
        )
        report = run_scheme(config)
        head = _head(scheme, args.n, config.k, args.epsilon)
        quantities = [
            ("bath", args.epsilon if report.bath_used else None),
            ("input-pure-qubits", report.input_pure_qubits),
            ("output-pure-qubits", report.output_pure_qubits),
            ("success-probability", report.success_probability),
            ("expected-trials", report.expected_trials),
        ]
        for name, value in quantities:
            cell = "none" if value is None else value
            lines.append(_line(head, None, name, report.success_probability, None, cell))
        json_rows.append({"scheme": scheme, **_json_fields(quantities)})
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
        ("trials-for-desired", report.trials_for_desired),
    ]

    def lines():
        for name, value in quantities:
            if value is not None:
                yield _line(head, None, name, report.success_probability, None, value)
        yield from _vector_lines(head, "final-state", final.populations)

    obj = None
    if spec["format"] == "json":
        obj = {
            "command": "run",
            "runspec": spec,
            "report": {
                **_json_fields(quantities),
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
    from .sampling import AttemptChain  # here, so that only the commands that draw compile it

    spec = _merge_runspec(args)
    config = _config_from_runspec(spec)
    chain = AttemptChain(config)
    # every draw happens before the output is opened, so a failed run writes nothing
    runs = sample_batch(chain, spec["trials"]).tolist()
    head = _head(config.scheme, config.n, config.k, config.epsilon)
    want_json = spec["format"] == "json"

    # trajectories share the chain's states, so each is rendered once, before
    # the output opens (for CSV several states per kernel call); each row is
    # swapped for its text in place, so rows and texts are never all held
    texts = chain.release()
    if want_json:
        from .jsontext import json_text

        for node, row in enumerate(texts):
            texts[node] = json_text(row, _SAMPLE_STATE_DEPTH)
    else:
        # a CSV attempt line is pre + trajectory index + tail, with pre
        # ``head,round,outcome,probability,`` and tail ``,state\r\n``, built
        # once per (round, outcome, node); a run holds references to them
        for node, text in enumerate(_join_states(texts)):  # one copy of a text at a time
            texts[node] = f",{text}\r\n"

        @functools.cache
        def pair(number, outcome, node):
            return f"{head},{number},{outcome},{_fmt(chain.probabilities[node])},", texts[node]

        @functools.cache
        def halves_of(run):
            return [pair(*key) for key in chain.attempts(run)]

    mean_trials = sum(map(chain.trials, runs)) / len(runs)
    analytic = success_probability(config)
    expected = math.inf if analytic == 0.0 else 1.0 / analytic
    summary = {
        "trajectories": len(runs),
        "mean-trials": mean_trials,
        "expected-trials": expected,
    }

    def lines():
        for index, run in enumerate(runs, start=1):
            yield from map(str(index).join, halves_of(run))
        for name, value in summary.items():
            yield _line(head, None, name, None, None, value)

    obj = None
    if want_json:
        obj = {
            "command": "sample",
            "runspec": spec,
            "summary": _json_fields(summary.items()),
            # generators: each trajectory is built as it is written
            "trajectories": (
                {
                    "index": index,
                    "trials_used": chain.trials(run),
                    "terminal": True,  # a run that never heralds raises instead
                    "attempts": (
                        {
                            "round": number,
                            "outcome": outcome,
                            "probability": chain.probabilities[node],
                            "state": texts[node],
                        }
                        for number, outcome, node in chain.attempts(run)
                    ),
                }
                for index, run in enumerate(runs, start=1)
            ),
        }
    _emit(lines(), obj, spec["format"], spec.get("output"))
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import oracle  # here, so that only validate compiles the dense oracle

    checks = oracle.validation_checks(args.nmax, args.trials, args.seed)
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


def _add_flags(parser, names, required=()) -> None:
    """A flag for each run-spec key of ``names``, in that order, typed from ``_RUNSPEC``.

    No flag has a default (a ``set_defaults`` gives one), so ``_merge_runspec``
    can tell a flag that was given from one that was not.
    """
    for name in names:
        key = _RUNSPEC[name]
        flags = ("--eps",) if name == "epsilon" else ()
        flags += ("--" + name.replace("_", "-"),)
        if key.types is bool:
            options = {"action": "store_const", "const": True}
        elif key.choices:
            options = {"choices": key.choices}
        else:
            options = {"type": float if key.types == (int, float) else key.types}
        if name == "initial":
            options["help"] = "initial-state selector; explicit vectors go in the config file"
        parser.add_argument(*flags, dest=name, required=name in required, **options)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ico-hbac",
        description="Register cooling schemes with and without switch-heralded purification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fp = sub.add_parser("fixed-point", help="stationary cooling profile and its residual")
    _add_flags(fp, ("n", "epsilon", "format", "output"), required=("n", "epsilon"))
    fp.set_defaults(func=cmd_fixed_point, format="csv")

    t1 = sub.add_parser("table1", help="resource comparison of the five schemes")
    _add_flags(
        t1, ("n", "epsilon", "k", "nondemolition", "format", "output"), required=("n", "epsilon")
    )
    t1.set_defaults(func=cmd_table1, format="csv", k=1, nondemolition=False)

    for name, func, text in (
        ("run", cmd_run, "evaluate one scheme configuration"),
        ("sample", cmd_sample, "Monte Carlo trajectory batches"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", help="JSON run specification; flags override its keys")
        _add_flags(command, [key for key in _RUNSPEC if key != "trials" or name == "sample"])
        command.set_defaults(func=func)

    val = sub.add_parser("validate", help="oracle equivalence and invariant battery")
    val.add_argument("--nmax", type=int, default=3)
    _add_flags(val, ("trials", "seed", "output"))
    val.set_defaults(func=cmd_validate, trials=100, seed=7)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (Refusal, MaxAttemptsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's allocation failures say what they tried; a plain MemoryError says nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
