"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10

Each (workload, seed) pair is one ``run.py`` process, exactly as the
benchmark is run on its own, for every workload of ``BENCHMARK.json``.  For
every end-to-end metric the record holds the values, their median and
quartiles (``statistics.quantiles`` with ``n=4``) and the spread: the
interquartile distance as a share of the median, set against a third of the
metric's bound.  Two traced runs per workload at seed ``TRACE_SEED`` confirm
that every count repeats exactly between them.  The record also holds each
workload's commands, the per-layer map and the machine, and is written to
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]
from bench import run  # noqa: E402

OUT = HERE / "baseline.json"
TRACE_SEED = 1

# per-layer metric: the end-to-end metric and workload it should move
LAYER_MOVES = {
    "cli.self_s": "wall_s, peak_rss_mb on sample-narrow, sample-wide, tree-sort-json; barely on analysis",
    "cli.rows": "guards byte-identical output; must not move",
    "cli.bytes_written": "guards byte-identical output; must not move",
    "schemes.trajectory_rng_calls": "wall_s on sample-narrow; negligible on sample-wide",
    "schemes.trajectory_rng_s": "wall_s on sample-narrow; negligible on sample-wide",
    "schemes.sample_batch_self_s": "wall_s on sample-narrow",
    "schemes.trajectories": "fixed by the seed; base of success_ratio",
    "schemes.attempts": "fixed by the seed; sum of trials used, incl. an exhausted trajectory",
    "schemes.success_ratio": "trajectories / attempts",
    "schemes.chain_states": "wall_s on sample-wide; near zero on sample-narrow",
    "schemes.failure_update_s": "wall_s on sample-wide; near zero on sample-narrow",
    "schemes.plus_weight_vector_calls": "wall_s on sample-wide",
    "schemes.plus_weight_vector_s": "wall_s on sample-wide",
    "schemes.mean_trials_z": "statistical self-check, does not gate; 0 where no heralded sample is drawn",
    "switch.spec_builds": "wall_s on tree-sort-json and sample-wide; near zero on sample-narrow",
    "switch.spec_build_s": "wall_s on tree-sort-json and sample-wide; near zero on sample-narrow",
    "switch.branches_calls": "wall_s on tree-sort-json",
    "switch.branches_s": "wall_s on tree-sort-json",
    "switch.branch_transfer_s": "wall_s on analysis",
    "register.states_checked": "wall_s on tree-sort-json and sample-wide",
    "register.state_check_s": "wall_s on tree-sort-json and sample-wide",
    "register.state_bytes_checked": "computed from array sizes; wall_s on tree-sort-json and sample-wide",
    "register.reset_calls": "wall_s on sample-wide and tree-sort-json",
    "register.reduce_calls": "wall_s on sample-wide",
    "hbac_core.round_calls": "wall_s on analysis",
    "hbac_core.round_s": "wall_s on analysis",
    "hbac_core.iterate_rounds": "wall_s on analysis",
    "hbac_core.iterate_s": "wall_s on analysis",
    "hbac_core.fixed_point_s": "wall_s on analysis",
    "hbac_core.build_transfer_s": "wall_s on analysis",
    "oracle.compare_s": "wall_s on analysis",
    "oracle.switch_channel_calls": "wall_s on analysis",
    "trace.overhead_s": "traced wall_s minus untraced wall_s",
}


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; its result gains ``elapsed_s``, the whole run's wall time."""
    start = time.perf_counter()
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": run.BLAS_THREADS,
        "load": "one benchmark process, one child at a time",
    }


def summarize(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median, "q1": q1, "q3": q3, "samples": len(values), "spread": spread,
        "bound": bound, "steady": spread < bound / 3, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = run.SPEC
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    record = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
        "per_layer": {name: {"unit": unit, "moves": LAYER_MOVES[name]} for name, unit in run.PER_LAYER_UNITS.items()},
    }
    for entry_spec in spec["workloads"]:
        name = entry_spec["name"]
        workload = run.workloads.build(name, args.seeds[0])
        results = [bench_once(name, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry = {
            "why": entry_spec["why"],
            "commands": [
                {"argv": ["ico-hbac", *command.argv], "expect_exit": list(command.expect)}
                for command in workload.commands
            ],
            "correct": all(result["correct"] for result in results),
            "attempted": [result["attempted"] for result in results],
            "failed": [result["failed"] for result in results],
            "elapsed_s": [result["elapsed_s"] for result in results],
            "end_to_end": {
                metric: summarize([result["metrics"][metric]["value"] for result in results], bound)
                for metric, bound in bounds.items()
            },
        }
        for metric, summary in entry["end_to_end"].items():
            flag = "ok" if summary["steady"] else "WIDE"
            print(f"{name:>15} {metric:<12} median {summary['median']:<12.6g} spread {summary['spread']:.4f} "
                  f"(bound/3 {summary['bound'] / 3:.4f}) {flag}", flush=True)
        traced = [bench_once(name, TRACE_SEED, spec["run_seconds"], 1) for _ in range(2)]
        counts = {metric: [t["metrics"][metric]["value"] for t in traced]
                  for metric, unit in run.PER_LAYER_UNITS.items() if unit in ("count", "bytes")}
        repeats = all(first == second for first, second in counts.values())
        entry["trace"] = {
            "seed": TRACE_SEED,
            "counts_repeat": repeats,
            "runs": [{metric: value["value"] for metric, value in t["metrics"].items()} for t in traced],
        }
        print(f"{name:>15} traced counts repeat: {repeats}", flush=True)
        record["workloads"][name] = entry
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
