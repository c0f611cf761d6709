"""Per-module spans for one CLI invocation, recorded from outside the package.

Run as a child process in place of ``python -m ico_hbac.cli``::

    python3 bench/tracer.py SPANS.json sample --scheme hbac-ico --n 3 ...

Before calling ``ico_hbac.cli.main`` it rebinds every public function of the
six package modules, in every module namespace that binds it (``cli`` binds
``sample_batch`` as well as ``schemes``), to a wrapper that records a span
(name, start, end, parent span).  The ``__post_init__`` validators of the two
state classes are wrapped too, since the register layer's work is state
validation.  No ``_``-prefixed helper is wrapped.  Spans and a few counts
taken at the same boundaries stay in memory and are written to SPANS.json
when ``main`` returns or raises; the exit status and any traceback are the
same as for the untraced command.

:func:`layer_totals` turns one spans file into per-name calls, busy time
(span duration) and self time (duration minus the time of direct child
spans; spans nest because the CLI is single-threaded).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("register", "hbac_core", "switch", "schemes", "oracle", "cli")
STATE_CLASSES = ("DiagonalState", "ReducedState")


class Recorder:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, name: str, func, on_result=None, on_error=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, handle)


def _trials_used(trajectory) -> int:
    return int(getattr(trajectory, "trials_used", trajectory))


def _hooks(recorder: Recorder) -> dict:
    """Counts read from arguments, results or exceptions at a boundary."""

    def batch_result(_args, trajectories):
        recorder.count("trajectories", len(trajectories))
        recorder.count("attempts", sum(_trials_used(t) for t in trajectories))

    def batch_error(exc):
        trajectory = getattr(exc, "trajectory", None)
        if trajectory is not None:
            recorder.count("attempts", _trials_used(trajectory))

    def iterate_result(_args, result):
        recorder.count("iterate_rounds", result[1])

    def iterate_error(exc):
        recorder.count("iterate_rounds", getattr(exc, "steps", 0))

    def state_checked(args, _result):
        recorder.count("state_bytes_checked", args[0].populations.nbytes)

    return {
        "schemes.sample_batch": (batch_result, batch_error),
        "hbac_core.iterate": (iterate_result, iterate_error),
        "register.DiagonalState.__post_init__": (state_checked, None),
        "register.ReducedState.__post_init__": (state_checked, None),
    }


def install(recorder: Recorder) -> None:
    """Rebind the package's public functions to span-recording wrappers."""
    modules = {name: importlib.import_module(f"ico_hbac.{name}") for name in MODULES}
    namespaces = [importlib.import_module("ico_hbac"), *modules.values()]
    hooks = _hooks(recorder)
    for short, module in modules.items():
        for attr, func in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(func):
                continue
            if func.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = recorder.wrap(name, func, *hooks.get(name, (None, None)))
            for namespace in namespaces:
                if vars(namespace).get(attr) is func:
                    setattr(namespace, attr, wrapper)
    register = modules["register"]
    for cls_name in STATE_CLASSES:
        cls = getattr(register, cls_name, None)
        if cls is None or "__post_init__" not in vars(cls):
            continue
        name = f"register.{cls_name}.__post_init__"
        cls.__post_init__ = recorder.wrap(name, vars(cls)["__post_init__"], *hooks[name])


def layer_totals(dump: dict) -> dict:
    """Per span name: ``calls``, busy seconds ``total_s`` and ``self_s``."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for (name_id, start, end, _parent), covered in zip(spans, child_time):
        entry = totals.setdefault(names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return totals


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module("ico_hbac.cli")
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
