"""CLI tests: argument handling, output formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import datetime
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ico_hbac.cli as cli
import ico_hbac.floattext as floattext
import ico_hbac.jsontext as jsontext
import ico_hbac.oracle as oracle
import ico_hbac.sampling as sampling
from ico_hbac.hbac_core import TransferMatrix, fixed_point
from ico_hbac.oracle import MAX_COMPARE_TRIALS
from ico_hbac.register import DiagonalState, ReducedState, Refusal, make_thermal_params
from ico_hbac.schemes import (
    MAX_REPUMP_ROUNDS,
    SchemeConfig,
    expected_trials,
    initial_state,
    sample_batch,
    scheme_spec,
)
from ico_hbac.switch import standard_pair, switch_branches, tree_pair


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestFixedPointCommand:
    def test_csv_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--n", "2", "--eps", "0.5")
        assert code == 0
        rows = parse_csv(out)
        values = [float(r["value"]) for r in rows if r["outcome"] == "fixed-point"]
        expected = fixed_point(2, make_thermal_params(0.5)).populations
        assert len(values) == 4
        assert np.abs(np.asarray(values) - expected).max() < 1e-16
        residual = [float(r["value"]) for r in rows if r["outcome"] == "residual"]
        assert residual[0] < 1e-12

    def test_csv_uses_crlf_and_fixed_header(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--n", "1", "--eps", "0.5")
        assert code == 0
        assert out.startswith("scheme,n,k,epsilon,round,outcome,probability,trials,value\r\n")
        assert "\r\n" in out

    def test_zero_epsilon_is_a_domain_error(self, capsys):
        code, _out, err = run_cli(capsys, "fixed-point", "--n", "2", "--eps", "0")
        assert code == 2
        assert "epsilon" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--n", "2", "--eps", "0.5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "fixed-point"
        expected = fixed_point(2, make_thermal_params(0.5)).populations
        assert np.abs(np.asarray(obj["fixed_point"]) - expected).max() == 0.0
        assert obj["residual_l1"] < 1e-12

    def test_missing_argument_is_usage_error(self, capsys):
        code, _out, err = run_cli(capsys, "fixed-point", "--n", "2")
        assert code == 2
        assert err

    def test_plain_memory_error_names_the_command(self, capsys, monkeypatch):
        # a MemoryError raised without text still gives one line that says what happened
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_fixed_point", exhausted)
        code, out, err = run_cli(capsys, "fixed-point", "--n", "2", "--eps", "0.5")
        assert (code, out, err) == (2, "", "error: fixed-point ran out of memory\n")

    def test_exponent_above_cap_fails_before_allocating(self, capsys):
        code, out, err = run_cli(capsys, "fixed-point", "--n", "40", "--eps", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: n must be in [1, 24], got 40\n"


class TestTable1Command:
    def test_rows_and_asymptotes(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--n", "10", "--eps", "0.01", "--k", "3", "--format", "json"
        )
        assert code == 0
        rows = {row["scheme"]: row for row in json.loads(out)["rows"]}
        assert set(rows) == {"hbac", "hbac-ico", "ico-alone", "ico-tree-sort", "hbac-kico"}
        assert rows["hbac-ico"]["success_probability"] == pytest.approx(0.01, rel=0.02)
        assert rows["hbac-kico"]["success_probability"] == pytest.approx(0.08, rel=0.05)
        assert rows["hbac"]["success_probability"] == 1.0
        assert rows["hbac"]["output_pure_qubits"] == 0
        assert rows["hbac"]["input_pure_qubits"] == 0
        assert rows["ico-tree-sort"]["input_pure_qubits"] == 10
        assert rows["hbac-kico"]["output_pure_qubits"] == 8  # n + 1 - k
        assert rows["ico-alone"]["bath"] is None
        assert rows["hbac-ico"]["bath"] == 0.01

    def test_nondemolition_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--n", "6", "--eps", "0.1", "--nondemolition", "--format", "json"
        )
        assert code == 0
        rows = {row["scheme"]: row for row in json.loads(out)["rows"]}
        assert rows["ico-tree-sort"]["input_pure_qubits"] == 1

    def test_csv_long_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--n", "4", "--eps", "0.5")
        assert code == 0
        rows = parse_csv(out)
        quantities = {r["outcome"] for r in rows}
        assert quantities == {
            "bath",
            "input-pure-qubits",
            "output-pure-qubits",
            "success-probability",
            "expected-trials",
        }
        assert len(rows) == 25  # five schemes x five quantities


class TestRunCommand:
    def test_json_roundtrips_runspec(self, capsys, tmp_path):
        config = {"scheme": "hbac-ico", "n": 3, "epsilon": 0.5, "format": "json"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 0
        obj = json.loads(out)
        echoed = cli.validate_runspec(obj["runspec"])  # must not raise
        assert echoed["scheme"] == "hbac-ico"
        assert obj["report"]["output_pure_qubits"] == 3
        assert obj["report"]["final_state"][0] == 1.0

    def test_flags_override_config(self, capsys, tmp_path):
        config = {"scheme": "hbac-ico", "n": 3, "epsilon": 0.5, "format": "json"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--n", "5")
        assert code == 0
        assert json.loads(out)["runspec"]["n"] == 5

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "hbac", "n": 2, "epsilon": 0.5, "typo": 1}))
        code, _out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "typo" in err

    def test_explicit_initial_vector(self, capsys, tmp_path):
        config = {
            "scheme": "ico-alone",
            "n": 1,
            "initial": [0.4, 0.3, 0.2, 0.1],
            "format": "json",
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 0
        assert json.loads(out)["report"]["success_probability"] == pytest.approx(0.5)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["sample", "run"])
    def test_negative_zero_initial_entry_prints_as_zero(self, capsys, tmp_path, command, fmt):
        # a population carries no sign: an explicit -0.0 is stored as 0.0, so
        # the sampled state reads 0 in CSV and 0.0 in JSON
        initial = [0.5, -0.0, 0.25, 0.25]
        config = {"scheme": "hbac-ico", "n": 2, "epsilon": 0.5, "initial": initial, "format": fmt}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        extra = ("--trials", "3", "--seed", "1") if command == "sample" else ()
        code, out, _ = run_cli(capsys, command, "--config", str(path), *extra)
        assert code == 0
        if fmt == "csv":
            values = [row["value"] for row in parse_csv(out)]
            assert all(not text.startswith("-") for value in values for text in value.split("|"))
            if command == "sample":
                assert "0.5|0|0.25|0.25" in values
            return
        document = json.loads(out)
        assert document.pop("runspec")["initial"] == initial  # the run spec echoes the config
        texts = []  # the text of every other float of the output
        json.loads(json.dumps(document), parse_float=texts.append)
        assert texts and not any(text.startswith("-") for text in texts)
        if command == "sample":
            state = document["trajectories"][0]["attempts"][0]["state"]
            assert state == [0.5, 0.0, 0.25, 0.25]
            assert math.copysign(1.0, state[1]) == 1.0

    @pytest.mark.parametrize(
        "scheme,initial", [("hbac-ico", [0.0] * 4), ("ico-alone", [0.0] * 8)]
    )
    def test_zero_norm_initial_is_rejected(self, capsys, tmp_path, scheme, initial):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": scheme, "n": 2, "epsilon": 0.5, "initial": initial}))
        for argv in (("run",), ("run", "--format", "json"), ("sample",)):
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == 2
            assert out == ""
            assert err == "error: initial state must have a positive norm, got 0.0\n"

    def test_wrong_initial_length(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "ico-alone", "n": 2, "initial": [0.5, 0.5]}))
        code, _out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "length" in err

    def test_missing_scheme(self, capsys):
        code, _out, err = run_cli(capsys, "run", "--n", "3")
        assert code == 2
        assert "scheme" in err

    @pytest.mark.parametrize("scheme", ["hbac-ico", "ico-alone"])
    @pytest.mark.parametrize("selector", ["uniform", "thermal", "fixed-point"])
    def test_initial_selectors_resolve(self, capsys, scheme, selector):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--scheme",
            scheme,
            "--n",
            "2",
            "--eps",
            "0.5",
            "--initial",
            selector,
            "--format",
            "json",
        )
        assert code == 0
        assert 0.0 < json.loads(out)["report"]["success_probability"] <= 1.0

    def test_thermal_selector_without_epsilon_fails(self, capsys):
        code, _out, err = run_cli(
            capsys, "run", "--scheme", "ico-alone", "--n", "2", "--initial", "thermal"
        )
        assert code == 2
        assert "epsilon" in err

    def test_output_file_and_determinism(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for target in (first, second):
            code, _out, _err = run_cli(
                capsys,
                "run",
                "--scheme",
                "hbac-kico",
                "--n",
                "4",
                "--k",
                "2",
                "--eps",
                "0.3",
                "--output",
                str(target),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_desired_success_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--scheme",
            "hbac-ico",
            "--n",
            "8",
            "--eps",
            "0.5",
            "--desired-success",
            "0.99",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)["report"]
        p = report["success_probability"]
        m = report["trials_for_desired"]
        assert 1.0 - (1.0 - p) ** m >= 0.99

    def test_desired_success_beyond_float_counts_is_a_domain_error(self, capsys, tmp_path):
        # subnormal heralding weights: no float attempt count reaches the target
        path = tmp_path / "spec.json"
        spec = {
            "scheme": "hbac-ico",
            "n": 2,
            "epsilon": 0.5,
            "initial": [1e-320, 1, 1, 1e-320],
            "desired_success": 0.9,
        }
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: success probability ")
        assert err.count("\n") == 1


def run_traced(capsys, *argv):
    """``run_cli`` plus the peak of the memory traced while the command ran."""
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, peak


class TestRejectionBeforeAllocation:
    """A rejected spec fails before its ``2**n`` initial state is built."""

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("scheme", ["hbac-ico", "ico-alone", "ico-tree-sort", "hbac-kico"])
    @pytest.mark.parametrize("selector", ["uniform", "thermal", "fixed-point"])
    def test_over_cap_n_with_a_selector(self, capsys, command, scheme, selector):
        k = ["--k", "1"] if scheme == "hbac-kico" else []
        argv = ["--scheme", scheme, "--n", "25", "--eps", "0.5", *k, "--initial", selector]
        code, out, err, peak = run_traced(capsys, command, *argv)
        assert (code, out, err) == (2, "", "error: n must be in [1, 24], got 25\n")
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("initial", ["uniform", "thermal", "fixed-point", [0.25] * 4])
    def test_plain_cooling_rejects_initial_unbuilt(self, capsys, tmp_path, command, initial):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "hbac", "n": 20, "epsilon": 0.5, "initial": initial}))
        code, out, err, peak = run_traced(capsys, command, "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: hbac takes no initial state: it converges from any start\n"
        assert peak < 2**20


class TestSampleMemory:
    """``sample`` drops each chain row once its text exists, so rows and texts are never all held."""

    # traced bytes beyond the texts and one kernel slice of rows: for CSV the
    # float kernel's temporaries (about 0.4 MiB), the draw and the output
    # chunks; for JSON the encoder's pieces and the output chunks
    @pytest.mark.parametrize("fmt,trials,slack", [("csv", 20, 1.5), ("json", 3, 0.6)])
    def test_peak_is_the_texts_and_one_slice_of_rows(self, capsys, tmp_path, fmt, trials, slack):
        args = ["--n", "10", "--eps", "0.05", "--trials", str(trials), "--seed", "1"]
        target = tmp_path / f"out.{fmt}"
        code, out, err, peak = run_traced(
            capsys, "sample", "--scheme", "hbac-ico", *args, "--format", fmt, "--output", str(target)
        )
        assert (code, out, err) == (0, "", "")
        chain = sampling.AttemptChain(SchemeConfig(scheme="hbac-ico", n=10, epsilon=0.05, seed=1))
        sample_batch(chain, trials)
        rows = list(chain.states)
        if fmt == "csv":
            texts = cli._join_states(list(rows))
            per_slice = cli._FLOAT_SLICE // rows[0].size
        else:
            texts = [jsontext.json_text(row, cli._SAMPLE_STATE_DEPTH) for row in rows]
            per_slice = 1
        text_bytes = sum(map(sys.getsizeof, texts))
        bound = text_bytes + per_slice * rows[0].nbytes + slack * 2**20
        # every row held beside every text would break the bound on its own
        assert text_bytes + sum(row.nbytes for row in rows) > bound
        assert peak <= bound


class TestSampleCommand:
    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize(
        "initial,flags",
        # [0.4, 0.3, 0.2, 0.1] sums to 0.9999999999999999 in floats, [3, 1] to 4
        [([0.4, 0.3, 0.2, 0.1], []), ([3, 1], []), (None, ["--initial", "thermal"])],
    )
    def test_plain_cooling_takes_no_initial(self, capsys, tmp_path, command, initial, flags):
        spec = {"scheme": "hbac", "n": 2, "epsilon": 0.5}
        if initial is not None:
            spec.update(n=len(initial).bit_length() - 1, initial=initial)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        target = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--config", str(path), *flags, "--output", str(target)
        )
        assert (code, out) == (2, "")
        assert err == "error: hbac takes no initial state: it converges from any start\n"
        assert not target.exists()

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for target in (first, second):
            code, _out, _err = run_cli(
                capsys,
                "sample",
                "--scheme",
                "hbac-ico",
                "--n",
                "2",
                "--eps",
                "0.5",
                "--trials",
                "200",
                "--seed",
                "42",
                "--output",
                str(target),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for seed, target in (("42", first), ("43", second)):
            code, _out, _err = run_cli(
                capsys,
                "sample",
                "--scheme",
                "hbac-ico",
                "--n",
                "2",
                "--eps",
                "0.5",
                "--trials",
                "200",
                "--seed",
                seed,
                "--output",
                str(target),
            )
            assert code == 0
        assert first.read_bytes() != second.read_bytes()

    def test_rows_carry_states_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--scheme",
            "hbac-ico",
            "--n",
            "1",
            "--eps",
            "0.5",
            "--trials",
            "20",
            "--seed",
            "1",
        )
        assert code == 0
        rows = parse_csv(out)
        attempt_rows = [r for r in rows if r["outcome"] in ("+", "-")]
        assert attempt_rows
        state = [float(x) for x in attempt_rows[0]["value"].split("|")]
        assert len(state) == 2  # reduced register at n=1
        assert sum(state) == pytest.approx(1.0)
        summary = {r["outcome"]: r["value"] for r in rows if r["trials"] == ""}
        assert float(summary["trajectories"]) == 20
        assert float(summary["mean-trials"]) >= 1.0
        assert "expected-trials" in summary

    def test_plain_cooling_sample_is_the_stationary_profile(self, capsys):
        # at this gap the iterated rounds would not converge within their budget
        code, out, _ = run_cli(
            capsys, "sample", "--scheme", "hbac", "--n", "10", "--eps", "0.01", "--trials", "1"
        )
        assert code == 0
        attempt_rows = [r for r in parse_csv(out) if r["outcome"] == "+"]
        assert len(attempt_rows) == 1
        state = np.array(attempt_rows[0]["value"].split("|"), dtype=float)
        expected = fixed_point(10, make_thermal_params(0.01)).populations
        assert np.abs(state - expected).sum() < 1e-10

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--scheme",
            "ico-tree-sort",
            "--n",
            "2",
            "--trials",
            "5",
            "--seed",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["trajectories"] == 5
        assert obj["summary"]["mean_trials"] == 1.0
        for trajectory in obj["trajectories"]:
            assert trajectory["trials_used"] == 1
            assert len(trajectory["attempts"]) == 2  # one per level

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, _out, err = run_cli(
            capsys,
            "sample",
            "--scheme",
            "hbac",
            "--n",
            "2",
            "--eps",
            "0.5",
            "--trials",
            "1",
            "--output",
            str(target),
        )
        assert code == 4
        assert err

    def test_exhausted_attempts_is_clean_domain_error(self, capsys, tmp_path):
        # zero heralding weight: the sampler can never succeed
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "scheme": "ico-alone",
                    "n": 1,
                    "initial": [0.0, 0.5, 0.5, 0.0],
                    "max_attempts": 5,
                    "trials": 3,
                }
            )
        )
        code, _out, err = run_cli(capsys, "sample", "--config", str(path))
        assert code == 2
        assert "attempts" in err

    def test_mean_trials_close_to_expectation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--scheme",
            "ico-alone",
            "--n",
            "2",
            "--eps",
            "1.0",
            "--trials",
            "4000",
            "--seed",
            "7",
            "--format",
            "json",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        p = 1.0 / summary["expected_trials"]
        sigma = math.sqrt((1 - p) / p**2 / summary["trajectories"])
        assert abs(summary["mean_trials"] - summary["expected_trials"]) < 5 * sigma


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reprepared_input_is_rendered_once(self, capsys, monkeypatch, fmt):
        # every ico-alone retry re-prepares its input, so the render step sees
        # one state however many attempts the runs made
        rendered = []
        if fmt == "csv":
            float_rows = cli._float_rows

            def counting(block):
                rendered.extend(block)
                return float_rows(block)

            monkeypatch.setattr(cli, "_float_rows", counting)
        else:
            json_text = jsontext.json_text

            def counting(obj, depth):
                rendered.append(obj)
                return json_text(obj, depth)

            monkeypatch.setattr(jsontext, "json_text", counting)
        argv = "sample --scheme ico-alone --n 8 --eps 0.2 --trials 20 --seed 1 --format " + fmt
        code, out, _err = run_cli(capsys, *argv.split())
        assert code == 0
        assert len(rendered) == 1
        assert rendered[0].size == 2**9
        attempts = out.count(",-,") if fmt == "csv" else out.count('"outcome": "-"')
        assert attempts > 100


# validate --nmax 2: compare's cases in sorted order, the five invariants, the summary
_VALIDATE_NMAX_2_CHECKS = [
    "oracle diagonal [ideal +]",
    "oracle diagonal [ideal -]",
    "oracle diagonal [k=1 +]",
    "oracle diagonal [k=1 -]",
    "oracle diagonal [k=2 +]",
    "oracle diagonal [k=2 -]",
    "oracle diagonal [standard +]",
    "oracle diagonal [standard -]",
    "oracle diagonal [tree level=0 +]",
    "oracle diagonal [tree level=0 -]",
    "oracle diagonal [tree level=1 +]",
    "oracle diagonal [tree level=1 -]",
    "oracle off-diagonals vanish",
    "transfer columns sum to one",
    "branch matrices sum to transfer",
    "fixed point is stationary",
    "matrix-free round matches matrix",
    "closed-form success matches branch norm",
    "overall",
]


class TestValidateCommand:
    def test_report_shape(self, capsys):
        # deviations depend on the BLAS build, so only names and verdicts are pinned
        code, out, _ = run_cli(capsys, "validate", "--nmax", "2", "--trials", "5")
        assert code == 0
        lines = out.splitlines()
        assert [line[5:].split(":")[0] for line in lines] == _VALIDATE_NMAX_2_CHECKS
        assert all(line.startswith("ok   ") for line in lines)
        assert lines[-1] == "ok   overall: 18/18 checks passed"

    def test_passes_and_prints_per_family_lines(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nmax", "2", "--trials", "10")
        assert code == 0
        assert "oracle diagonal [standard +]" in out
        assert "oracle diagonal [tree level=1 -]" in out
        assert "overall" in out
        assert "FAIL" not in out

    def test_loads_no_numpy_random(self, run_probe):
        # its random inputs are the package's own Philox streams; numpy.random
        # alone would add about 5 MB to the command's peak RSS
        probe = (
            "import sys, ico_hbac.cli as cli\n"
            "code = cli.main(['validate', '--nmax', '2', '--trials', '5'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        assert run_probe(probe).splitlines()[-1] == "0 False"

    def test_injected_fault_fails(self, capsys, monkeypatch):
        import ico_hbac.switch  # noqa: F401  (documentation of the faulted layer)

        real = oracle.compare

        def corrupted(*args, **kwargs):
            report = real(*args, **kwargs)
            bad = dict(report.by_case)
            bad[("standard", "+")] = 1.0
            return oracle.CompareReport(report.max_offdiagonal, bad)

        monkeypatch.setattr(oracle, "compare", corrupted)
        code, out, _ = run_cli(capsys, "validate", "--nmax", "1", "--trials", "5")
        assert code == 3
        assert "FAIL" in out

    def test_faulty_fast_path_fails_its_own_line(self, capsys, monkeypatch):
        # a stacked minus kernel that leaves the first standard pair unswapped
        # in every row: norms still partition, only the diagonal is wrong
        real = oracle._minus_branch

        def faulty(lam, spec):
            minus = real(lam, spec)
            if np.array_equal(spec.one_mask, standard_pair(spec.n).one_mask):
                pair = spec.pair_starts[0] + np.arange(2)
                minus[..., pair] = lam[..., pair]
            return minus

        monkeypatch.setattr(oracle, "_minus_branch", faulty)
        code, out, _ = run_cli(capsys, "validate", "--nmax", "2", "--trials", "5")
        assert code == 3
        failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL oracle diagonal [standard -]", "FAIL overall"]

    def test_nan_success_probability_fails(self, capsys, monkeypatch):
        # a NaN deviation must not fold into a passing worst case
        monkeypatch.setattr(oracle, "success_probability", lambda config: math.nan)
        code, out, _ = run_cli(capsys, "validate", "--nmax", "1", "--trials", "2")
        assert code == 3
        assert "FAIL closed-form success matches branch norm: max dev nan" in out.splitlines()

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_in_the_dense_channel_fails(self, capsys, monkeypatch, entry):
        real = oracle.switch_channel

        def poisoned(rho, spec):
            outputs = real(rho, spec)
            for dense in outputs:
                dense[(..., *entry)] = math.nan
            return outputs

        monkeypatch.setattr(oracle, "switch_channel", poisoned)
        code, out, _ = run_cli(capsys, "validate", "--nmax", "1", "--trials", "2")
        assert code == 3
        lines = out.splitlines()
        diagonal = [line for line in lines if line[5:].startswith("oracle diagonal")]
        assert len(diagonal) == 8  # four families at n = 1, two signs each
        verdict = "FAIL" if entry == (0, 0) else "ok  "
        assert all(line.startswith(verdict) for line in diagonal)
        # a diagonal NaN reaches the off-diagonal check too, through its stripped copy
        assert "FAIL oracle off-diagonals vanish: max off-diag nan" in lines
        assert lines[-1].startswith("FAIL overall")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--nmax", "0", "nmax must be >= 1, got 0"),
            ("--trials", "0", "trials must be >= 1, got 0"),
            ("--seed", "-1", "seed must be a 64-bit unsigned integer, got -1"),
            ("--seed", str(2**64), f"seed must be a 64-bit unsigned integer, got {2**64}"),
            ("--trials", str(MAX_COMPARE_TRIALS + 1), f"trials is capped at {MAX_COMPARE_TRIALS}, got {MAX_COMPARE_TRIALS + 1}"),
        ],
    )
    def test_empty_run_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "validate", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, _out, _err = run_cli(
            capsys, "validate", "--nmax", "1", "--trials", "5", "--output", str(target)
        )
        assert code == 0
        assert "overall" in target.read_text()
        code, out, _err = run_cli(capsys, "validate", "--nmax", "1", "--trials", "5")
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")


class TestLargeEpsilon:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fixed-point", "--n", "3"),
            ("table1", "--n", "3"),
            ("sample", "--scheme", "hbac-ico", "--n", "3", "--trials", "5", "--seed", "1"),
        ],
        ids=["fixed-point", "table1", "sample"],
    )
    @pytest.mark.parametrize("eps", ["400", "700", "709.7", "710", "800", "1e300"])
    def test_finishes_or_fails_in_one_line(self, capsys, argv, eps):
        code, out, err = run_cli(capsys, *argv, "--eps", eps)
        if float(eps) < 710:
            assert code == 0
            assert out and err == ""
        else:
            assert code == 2
            assert out == ""
            assert err == f"error: epsilon={float(eps)} overflows the partition constant\n"


def _child_cli(*argv):
    """A fresh ``python -m ico_hbac.cli`` run of ``argv``, ended after 10 s."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "ico_hbac.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=10,
    )


class TestRepumpCap:
    def test_a_billion_rounds_fail_fast_without_output(self, tmp_path):
        # uncapped, every attempt of this run cooled the register 1e9 times:
        # it was still running at 15 s
        target = tmp_path / "out.csv"
        argv = ["sample", "--scheme", "hbac-kico", "--n", "3", "--k", "1", "--eps", "0.5"]
        argv += ["--repump-rounds", "1000000000", "--trials", "5", "--seed", "1"]
        result = _child_cli(*argv, "--output", str(target))
        assert result.returncode == 2
        assert result.stdout == ""
        message = f"error: repump_rounds is capped at {MAX_REPUMP_ROUNDS}, got 1000000000\n"
        assert result.stderr == message
        assert not target.exists()


class TestValidateTrialsCap:
    def test_a_huge_count_fails_fast_without_output(self, tmp_path):
        # uncapped, this run was still going when a 60 s timeout ended it
        target = tmp_path / "report.txt"
        trials = "100000000000000000000000"
        result = _child_cli("validate", "--nmax", "1", "--trials", trials, "--output", str(target))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: trials is capped at {MAX_COMPARE_TRIALS}, got {trials}\n"
        assert not target.exists()

    def test_the_cap_itself_runs(self, capsys):
        code, out, _err = run_cli(capsys, "validate", "--nmax", "1", "--trials", str(MAX_COMPARE_TRIALS))
        assert code == 0
        assert out.endswith("checks passed\n")


class TestRefusal:
    @pytest.mark.parametrize("trials", [2**60, 2**63 - 1, 10**20])
    def test_a_run_array_numpy_cannot_size_is_refused(self, capsys, trials):
        # numpy's "array is too big" and "Maximum allowed dimension exceeded"
        argv = ["sample", "--scheme", "hbac", "--n", "2", "--eps", "0.5", "--trials", str(trials)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: trials must be < 2**60, got {trials}\n"

    def test_the_largest_sizable_run_array_is_out_of_memory(self, capsys):
        argv = ["sample", "--scheme", "hbac", "--n", "2", "--eps", "0.5", "--trials", str(2**60 - 1)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: sample ran out of memory: Unable to allocate 8.00 EiB")

    @pytest.mark.parametrize("error", [ValueError, TypeError, ZeroDivisionError])
    def test_any_other_exception_is_a_bug_and_escapes(self, monkeypatch, error):
        def broken(*_args):
            raise error("a kernel bug")

        monkeypatch.setattr(cli, "fixed_point", broken)
        with pytest.raises(error, match="a kernel bug"):
            cli.main(["fixed-point", "--n", "2", "--eps", "0.5"])

    @pytest.mark.parametrize(
        "refused",
        [
            lambda: cli.validate_runspec({"colour": 1}),
            lambda: cli.build_parser().parse_args(["table1", "--n", "x"]),
            lambda: SchemeConfig(scheme="other", n=2),
            lambda: SchemeConfig(scheme="hbac", n=2, epsilon=0.5, seed=2**64),
            lambda: make_thermal_params(math.nan),
            lambda: fixed_point(25, make_thermal_params(0.5)),
            lambda: SchemeConfig(scheme="hbac-ico", n=1, epsilon=0.5, initial=[0.6, -0.1]),
            lambda: SchemeConfig(scheme="hbac-ico", n=1, epsilon=0.5, initial=[10**400, 1]),
            lambda: SchemeConfig(scheme="ico-alone", n=1, initial="thermal"),
            lambda: expected_trials(0.0, 0.9),
            lambda: oracle.compare(nmax=1, trials=1, seed=-1),
        ],
    )
    def test_outside_input_raises_the_refusal(self, refused):
        with pytest.raises(Refusal):
            refused()

    @pytest.mark.parametrize(
        "internal",
        [
            lambda: switch_branches(DiagonalState(np.full(4, 0.25)), standard_pair(2)),
            lambda: sampling._minus_step(np.array([1.0, 0.0]), 1.0, 0.0, standard_pair(1), 0),
            lambda: floattext.float_rows(np.array([[-1.0]])),
            lambda: jsontext.json_text(math.inf, 0),
            lambda: TransferMatrix(np.ones((2, 3))),
            lambda: ReducedState(np.array([0.5, -0.5])),
        ],
    )
    def test_internal_invariants_stay_plain_errors(self, internal):
        with pytest.raises((ValueError, TypeError)) as raised:
            internal()
        assert not isinstance(raised.value, Refusal)


def _or_edge(valid, edges):
    """``valid`` four times in five, else one of ``edges``."""
    return st.integers(0, 4).flatmap(lambda pick: valid if pick else st.sampled_from(edges))


# what the property test draws for each flag: mostly in range, else on an edge or past
# it, at n <= 6 and at most 20 trials; and how many times in ten each flag is given
_DRAWN = {
    "scheme": st.sampled_from(cli.SCHEMES),
    "n": _or_edge(st.integers(1, 6), ("-1", "0")),
    "k": _or_edge(st.integers(1, 3), ("-1", "0", "7")),
    "epsilon": _or_edge(
        st.floats(0.01, 3.0).map(repr), ("0", "-1", "nan", "inf", "1e-300", "709.7", "709.8")
    ),
    "initial": st.sampled_from(cli.INITIAL_SELECTORS),
    "seed": _or_edge(st.integers(0, 2**64 - 1), ("-1", str(2**64))),
    "desired_success": _or_edge(
        st.floats(0.01, 0.99).map(repr), ("0", "1e-300", "0.999999", "1", "1.5", "nan")
    ),
    "pair": st.sampled_from(cli.PAIR_CHOICES),
    "nondemolition": st.just(True),
    "repump_rounds": _or_edge(st.integers(0, 3), ("-1",)),
    "max_attempts": _or_edge(st.integers(1, 40), ("0",)),
    "trials": _or_edge(st.integers(1, 20), ("-1", "0")),
    "format": st.sampled_from(cli.FORMATS),
    "output": st.just("missing-directory/out"),
    "nmax": _or_edge(st.integers(1, 2), ("0", "7")),
}
_GIVEN = {"scheme": 9, "n": 9, "epsilon": 9, "k": 1, "initial": 3, "output": 1}
_SUBCOMMANDS = cli.build_parser()._subparsers._group_actions[0].choices


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        # only the k-switch reads k: other schemes get it once in ten
        given = 9 if action.dest == "k" and "hbac-kico" in argv else _GIVEN.get(action.dest, 5)
        if action.dest in _DRAWN and draw(st.integers(0, 9)) < given:
            value = draw(_DRAWN[action.dest])
            argv += [action.option_strings[0], *(() if value is True else (str(value),))]
    return argv


@st.composite
def _sample_argvs(draw):
    """``sample`` commands that its checks accept, at n <= 4: the test compares their rows."""
    scheme = draw(st.sampled_from(cli.SCHEMES))
    n = draw(st.integers(1, 4))
    argv = ["sample", "--scheme", scheme, "--n", str(n), "--eps", repr(draw(st.floats(0.05, 3.0)))]
    argv += ["--trials", str(draw(st.integers(1, 20))), "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    argv += ["--format", draw(st.sampled_from(cli.FORMATS))]
    if scheme in ("hbac-ico", "hbac-kico"):
        argv += ["--repump-rounds", str(draw(st.integers(0, 3)))]
    if scheme == "hbac-kico":
        argv += ["--k", str(draw(st.integers(1, n)))]
    if scheme == "ico-alone":
        argv += ["--pair", draw(st.sampled_from(cli.PAIR_CHOICES))]
    if scheme != "hbac" and draw(st.booleans()):
        argv += ["--initial", draw(st.sampled_from(cli.INITIAL_SELECTORS))]
    return argv


def _sampled_attempts(text: str, fmt: str):
    """Each trajectory of a ``sample`` output as its attempts' (round, outcome, probability, state)."""
    if fmt == "json":
        return [
            [
                (attempt["round"], attempt["outcome"], attempt["probability"], attempt["state"])
                for attempt in trajectory["attempts"]
            ]
            for trajectory in json.loads(text)["trajectories"]
        ]
    trajectories = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if cells[5] in ("+", "-"):
            attempt = (int(cells[4]), cells[5], float(cells[6]), list(map(float, cells[8].split("|"))))
            trajectories.setdefault(cells[7], []).append(attempt)
    return list(trajectories.values())


def _dense_attempts(config, outcomes):
    """(plus probability, pre-measurement populations) of each attempt, by the dense oracle."""
    retry, n, params = config._record.retry, config.n, config.params
    p = initial_state(config).normalized().populations
    sort = oracle.materialize(standard_pair(n), "two-sort")

    def cool(state):  # reset, then the two-sort unitary
        return oracle.conjugate(sort, oracle.dense_reset(state, params))

    def reduced(state):  # the reset slot traced out
        return np.einsum("ajbj->ab", state.reshape(2**n, 2, 2**n, 2)).diagonal().real

    if retry is None:  # the stationary profile, which always heralds
        assert np.abs(reduced(cool(np.diag(np.kron(p, [1.0, 0.0])).astype(complex))) - p).max() < 1e-12
        return [(1.0, p)]
    rows = []
    for level, outcome in enumerate(outcomes):
        rho = np.diag(np.kron(p, [1.0, 0.0]) if retry == "step" else p).astype(complex)
        if retry == "step":
            rho = oracle.dense_reset(rho, params)
        plus, minus = oracle.switch_channel(rho, tree_pair(n, level) if retry == "tree" else scheme_spec(config))
        rows.append((np.trace(plus).real, p))
        branch = plus if outcome == "+" else minus
        state = branch / np.trace(branch).real
        if retry == "step":
            for _ in range(config.repump_rounds):
                state = cool(state)
            p = reduced(state)
        elif retry == "tree":
            p = state.diagonal().real
    return rows


class TestEveryAcceptedArgv:
    @settings(max_examples=150, deadline=datetime.timedelta(seconds=5))
    @given(st.one_of(_argvs(), _sample_argvs()))
    def test_finishes_or_is_refused_in_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # an exception that escapes fails the test
        if code:
            assert code in (2, 3, 4)
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""
        if code or argv[0] != "sample":
            return
        spec = cli._merge_runspec(cli.build_parser().parse_args(argv))
        config = cli._config_from_runspec(spec)
        if config.n > 4:
            return
        dense = {}
        for attempts in _sampled_attempts(out.getvalue(), spec["format"]):
            outcomes = tuple(outcome for _round, outcome, _p, _state in attempts)
            if outcomes not in dense:
                dense[outcomes] = _dense_attempts(config, outcomes)
            assert [number for number, *_ in attempts] == list(range(1, len(attempts) + 1))
            for (*_, probability, state), (expected, populations) in zip(attempts, dense[outcomes]):
                assert abs(probability - expected) < 1e-12
                assert np.abs(np.array(state) - populations).max() < 1e-12


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        code, _out, err = run_cli(capsys)
        assert code == 2
        assert err

    def test_unknown_command(self, capsys):
        code, _out, _err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_float_formatting_is_17_digits(self):
        assert cli._fmt(0.1) == "0.10000000000000001"
        assert cli._fmt(1.0) == "1"
        assert cli._fmt(None) == ""
        assert cli._fmt(True) == "1"
        assert cli._fmt(12) == "12"

    def test_every_flag_is_typed_from_the_runspec(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command, sub in commands.choices.items():
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction) or action.dest in ("config", "nmax"):
                    continue
                key = cli._RUNSPEC[action.dest]
                flag = "--" + action.dest.replace("_", "-")
                assert action.option_strings in ([flag], ["--eps", flag]), (command, flag)
                if key.types is bool:
                    expected = (argparse._StoreConstAction, None, None, True)
                elif key.choices:
                    expected = (argparse._StoreAction, None, key.choices, None)
                else:
                    number = float if key.types == (int, float) else key.types
                    expected = (argparse._StoreAction, number, None, None)
                derived = (type(action), action.type, action.choices, action.const)
                assert derived == expected, (command, flag)
                if command in ("run", "sample"):
                    # a flag overrides a config key only when it is given
                    assert action.default is None, (command, flag)


# Each CSV quantity row and its JSON field: ``inf`` and ``none`` are JSON
# null, ``1`` and ``0`` JSON true and false where the field is a bool.
_CSV_AS_JSON = {"inf": None, "none": None, "1": True, "0": False}
# run specs that tools/byte_gate.py runs as well.  Explicit initial vectors for the
# schemes _PINNED_CONFIGS leave out: a reduced register for the k-switch, a full one
# for the others
_CONFIGS = {
    "hbac-kico-initial.json": {
        "scheme": "hbac-kico", "n": 2, "k": 1, "epsilon": 0.5, "repump_rounds": 1,
        "initial": [0.1, 0.2, 0.3, 0.4],
    },
    "ico-tree-sort-initial.json": {
        "scheme": "ico-tree-sort", "n": 2, "epsilon": 0.5,
        "initial": [0.3, 0.05, 0.1, 0.1, 0.1, 0.1, 0.05, 0.2],
    },
    "ico-alone-ideal-initial.json": {
        "scheme": "ico-alone", "n": 2, "pair": "ideal",
        "initial": [0.05, 0.3, 0.1, 0.1, 0.1, 0.1, 0.05, 0.2],
    },
    # a plus probability of zero from the first attempt: ``sample`` still heralds
    # (the chain re-pumps) but its analytic expected-trials is infinite
    "hbac-ico-zero-plus.json": {"scheme": "hbac-ico", "n": 2, "epsilon": 0.5, "initial": [0, 0.5, 0.5, 0]},
}
# run specs that ``run --desired-success 0.9`` refuses, one check each
_REFUSED_CONFIGS = {
    "not-an-object.json": [1, 2],
    "unknown-key.json": {"scheme": "hbac", "n": 2, "epsilon": 0.5, "colour": 1},
    "bool-n.json": {"scheme": "hbac", "n": True, "epsilon": 0.5},
    "string-n.json": {"scheme": "hbac", "n": "2", "epsilon": 0.5},
    "text-initial-entry.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.5, "x"]},
    "other-pair.json": {"scheme": "ico-alone", "n": 2, "pair": "other"},
    "no-scheme.json": {"n": 2, "epsilon": 0.5},
    "short-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.5, 0.2, 0.3]},
    "zero-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.0, 0.0]},
    "negative-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.6, -0.1]},
    "nan-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [math.nan, 0.5]},
    # ico-alone's plus weight is entries 0 and -1 of the full register: zero, then subnormal
    "ico-alone-zero-plus.json": {"scheme": "ico-alone", "n": 1, "initial": [0.0, 0.5, 0.5, 0.0]},
    "ico-alone-tiny-plus.json": {"scheme": "ico-alone", "n": 1, "initial": [5e-321, 0.5, 0.5, 0.0]},
}
# config files that are not JSON, written as they are
_RAW_CONFIGS = {"malformed.json": '{"scheme": "hbac", "n": '}


def _write_configs(directory: Path) -> None:
    """Every config file above and ``_PINNED_CONFIGS`` in ``directory``, as the byte gate has them."""
    for name, config in (_PINNED_CONFIGS | _CONFIGS | _REFUSED_CONFIGS).items():
        (directory / name).write_text(json.dumps(config))
    for name, text in _RAW_CONFIGS.items():
        (directory / name).write_text(text)
_SCHEME_ARGS = (
    ("--scheme", "hbac", "--eps", "0.5"),
    ("--scheme", "hbac-ico", "--eps", "0.5"),
    ("--scheme", "ico-alone"),
    ("--scheme", "ico-tree-sort", "--eps", "0.5"),
    ("--scheme", "hbac-kico", "--k", "1", "--eps", "0.5"),
)
_QUANTITY_COMMANDS = [
    ("run", "--n", "2", *scheme, *desired)
    for scheme in _SCHEME_ARGS
    for desired in ((), ("--desired-success", "0.9"))
] + [
    ("run", "--config", "ico-alone-zero-plus.json"),
    ("table1", "--n", "3", "--eps", "0.5"),
    ("table1", "--n", "3", "--eps", "0.5", "--k", "2", "--nondemolition"),
    ("sample", "--scheme", "hbac-ico", "--n", "2", "--eps", "0.5", "--trials", "5", "--seed", "1"),
    ("sample", "--config", "hbac-ico-zero-plus.json", "--trials", "5", "--seed", "1"),
]


def _quantity_groups(command, csv_text, json_text):
    """(CSV quantity rows, JSON fields) pairs: one per ``table1`` scheme, else one."""
    rows = [row for row in parse_csv(csv_text) if row["round"] == ""]
    doc = json.loads(json_text)
    if command == "table1":
        groups = []
        for fields in doc["rows"]:
            scheme = fields.pop("scheme")
            groups.append(([row for row in rows if row["scheme"] == scheme], fields))
        return groups
    if command == "run":
        fields = doc["report"]
        del fields["final_state"], fields["final_state_qubits"]
        return [(rows, fields)]
    return [(rows, doc["summary"])]


class TestRefusedConfigs:
    @pytest.mark.parametrize("name", [*_REFUSED_CONFIGS, *_RAW_CONFIGS])
    def test_run_refuses_in_one_line(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        _write_configs(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", name, "--desired-success", "0.9")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestQuantityNames:
    @pytest.mark.parametrize("argv", _QUANTITY_COMMANDS, ids=" ".join)
    def test_json_field_is_the_csv_quantity_renamed(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write_configs(tmp_path)
        code, csv_text, _ = run_cli(capsys, *argv)
        json_code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == json_code == 0
        for rows, fields in _quantity_groups(argv[0], csv_text, json_text):
            names = [row["outcome"].replace("-", "_") for row in rows]
            assert rows and len(set(names)) == len(names)
            # run's trials-for-desired has no CSV row without --desired-success
            unwritten = {"trials_for_desired"} - set(names) if argv[0] == "run" else set()
            assert set(fields) == set(names) | unwritten
            assert all(fields[name] is None for name in unwritten)
            for row, name in zip(rows, names):
                field = fields[name]
                if field is None or isinstance(field, bool):
                    assert _CSV_AS_JSON.get(row["value"], row["value"]) is field, name
                else:
                    assert float(row["value"]) == field, name


# SHA-256 of stdout, recorded before the output path was rewritten to stream:
# any change to these bytes is a change to the output format.  The JSON ``run``
# and ``sample`` digests were re-recorded when ``level`` and ``workers`` left
# the run specification: each document is the one written before, re-encoded
# without those two runspec keys.
_PINNED_STDOUT = (
    (
        "sample --scheme hbac --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "0d89db2fcedf9ef8f39746f4485ef70ce2406cd4affd23796ec4ebccb9c1143a",
    ),
    (
        "sample --scheme hbac --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "c2bc1485926c9b529b877d8d77dffd2f99afeadeb0f24207bc3d3e4cdb51bdbe",
    ),
    (
        "sample --scheme hbac --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "65c0f02e0393c0399edeefc527fa468a0bc58e9dd197277bbb0b952ab53fefbd",
    ),
    (
        "sample --scheme hbac --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "7a813f4e41bbe418f74f49e86fa23ac6504704a5eda7fa6004ec62b11111b023",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "753eb0e142a5e6dfdbebce4b56f432ef6ac794986ecb6d51961e140ba2f5588a",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "deede3b4d6ee0ad605e59755d67d88d011e61ede8a35f6e016dae32280b705c0",
    ),
    (
        "sample --scheme hbac-ico --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "6cf47a99ca06d5dde87c058420e3b551062718663c035d1fda9e585a8ffbd3a5",
    ),
    (
        "sample --scheme hbac-ico --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "ee32ab291cdd6666aa7919889c4a92865f4b718afbc4331123c9dbaadc42462f",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "1847e4539841c44e51fd3b253aa2e8ea8ccc9d287f66ab03a9f728e89f270b3a",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "858adccbdbe6d0c6b7d2387c4a43459ca3a2ae67d95d6d6bee773110cf62f338",
    ),
    (
        "sample --scheme ico-alone --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "3fa6c5ccb284bb339a11fbdf838f46fef919bc7e2504fb18458dfd3427996a26",
    ),
    (
        "sample --scheme ico-alone --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "a6a43066b3f42b65ac1639a0ec0fb874dac36ed12e11f53d3b78f34009b5ad68",
    ),
    (
        "sample --scheme ico-tree-sort --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "8a791421c47827f8760933feecf232340cfc10652bf1f7100e9969fe5906d546",
    ),
    (
        "sample --scheme ico-tree-sort --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "6cc5d6e8eab48c2d15590e3323926498d282da64552750efb917bc437c732dc9",
    ),
    (
        "sample --scheme ico-tree-sort --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "cff9179ffc004d2476a39af98a7ccf3fb66bb25667315087683c91c206e6a571",
    ),
    (
        "sample --scheme ico-tree-sort --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "537a6b9cfec4a3a658f49fa7c331620dc45a86b28743022888685a2674e7e459",
    ),
    (
        "sample --scheme hbac-kico --n 2 --eps 0.5 --trials 25 --seed 5 --format csv --k 1 --repump-rounds 1",
        "ac2c5389e83a99b4866a3db2e859c359f7e63e0d6d421e179e36837ae0ae7b86",
    ),
    (
        "sample --scheme hbac-kico --n 2 --eps 0.5 --trials 25 --seed 5 --format json --k 1 --repump-rounds 1",
        "0dc0b4b128a6146d0f1b68cfc8ad7efaa9047ddd10945cd17413ec54d6fbf43d",
    ),
    (
        "sample --scheme hbac-kico --n 3 --eps 0.5 --trials 25 --seed 5 --format csv --k 1 --repump-rounds 1",
        "6811f7e0eb9d6d61d69320f513e7ebf33f8bcaa4eec622fd484cf9e3dc84d6ce",
    ),
    (
        "sample --scheme hbac-kico --n 3 --eps 0.5 --trials 25 --seed 5 --format json --k 1 --repump-rounds 1",
        "b846c3c28f996554f7177dd02e28a43234f1242bca9ed77e174544ea9963cc63",
    ),
    (
        "run --scheme hbac-kico --n 3 --k 2 --eps 0.3 --desired-success 0.9",
        "d7d611236e66476ec65b8220e79d9fd0cea589868ca6e0896a334aad0eb705a8",
    ),
    (
        "run --scheme ico-tree-sort --n 3 --eps 0.3 --format json",
        "b79406439d9025529724cf69b1938428c149a33c1fe09ff29d0a8e56035fce01",
    ),
    (
        "table1 --n 4 --eps 0.2 --k 2",
        "f060e1be9bd98bfe0043516815133a20905f0676d088d6666a3b28db44a33e79",
    ),
    (
        "table1 --n 3 --eps 0.2 --format json",
        "57c84ae191e38bd36d70a1fe5c7277d391b0c230ded728d1ab8d15af35e6e123",
    ),
    (
        "fixed-point --n 3 --eps 0.3",
        "2560292f4f9f803c17f7e825517c2cafb6c753f7bf912deb57631fa771655604",
    ),
    (
        "fixed-point --n 2 --eps 0.3 --format json",
        "0bc548a65101e50773c963f34645dae0ea1faebd08b752da3c18e38206d0ffb7",
    ),
    # longer than one 64 KiB write chunk
    (
        "sample --scheme hbac-ico --n 5 --eps 0.5 --trials 40 --seed 5",
        "86b8dd842e9aa906686b0b6ab0a43a34bb28ed5fd8bfd8a7828f1d55cff55d85",
    ),
    (
        "run --scheme hbac --n 12 --eps 0.01",
        "92df873c45b404f69450fe0d2414852b2d4891edc026a4d4b6c18bc5a06192fa",
    ),
    # recorded before CSV lines were rendered without the csv module
    (
        "fixed-point --n 12 --eps 0.01",  # longer than one write chunk
        "a20efdbb8e170d8dff92eb69da06d8357de8f8585ba83080df8158054a83d17a",
    ),
    (
        "sample --scheme ico-alone --n 2 --trials 25 --seed 5",  # empty k and epsilon cells
        "834c0bcb3a71f003601dd699f488eadb42d100da8a89752949532b5abd4feaa6",
    ),
    (
        "sample --scheme hbac-kico --n 3 --k 2 --repump-rounds 1 --eps 0.5 --trials 25 --seed 5",
        "ab9ca7835a03873b34d8e0c3795483ab3d560968ac901e8c7bb2e3bd94e79971",
    ),
    (
        "run --scheme hbac-ico --n 3 --eps 0.5",
        "7ea468ad8772f315614656caf3d7a4739e8a659ac1edda5b32252c061129bbed",
    ),
    # recorded before JSON was streamed; each is longer than one write chunk,
    # and the run and fixed-point vectors are longer than one encoded slice
    (
        "sample --scheme ico-tree-sort --n 6 --eps 0.5 --trials 40 --seed 3 --format json",
        "cf7ca3853b419cf97a48992707bf4deaac9aedc22b9f5eca46724e3bfe467c00",
    ),
    (
        "sample --scheme hbac-ico --n 5 --eps 0.3 --trials 50 --seed 2 --format json",
        "de5b8c6f19bfa1f6b765044e0a21badca61c0846033d21387cde37bc07d911e3",
    ),
    (
        "run --scheme hbac --n 12 --eps 0.1 --format json",
        "7bbc0f2cee90512d81290397195282a8b22dd1fea9349c323eb644dbfed14986",
    ),
    (
        "fixed-point --n 12 --eps 0.01 --format json",
        "70c6fb66f7ff0943689c824606d417a97a8ec737ecc7a32cd30038cff0106390",
    ),
    # recorded before both state kinds shared one body: every initial selector
    # and an explicit vector from a config file in _PINNED_CONFIGS
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --format csv",
        "ac7a11985da1f5bba3f67dbb8a3e792f4e9da8b34b094d8916591edc3b62265e",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --format json",
        "4066cbcf998b04e8ddb485bf927aaa708a764170ced451409d3fbe88a9051915",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format csv",
        "01b440fa542f2877f6d90e1332a61786104970bc087c0d72ef4e698c3990f3f8",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format json",
        "ba35cef0d3a19bd80ae7d6a0960360fa2b02a843f40bd9b2cc658207faa6834d",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --format csv",
        "32e26f6b6a0b826f4c808c3ed1b10af864ac0e299224a2323f1ecc09a0e3d6f7",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --format json",
        "edcc8a98021d701dd45566c840bfaf2fa44994a072d1d46abbc8037f1cfb8447",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format csv",
        "79dd79162eebc55c0e81fe24ebfb886b232e2e292239caadad30e948546891bd",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format json",
        "2b8f3ec5088e9fc624eb366465b3891ccd4aee05afa1dec761a17a3d04706b0a",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --format csv",
        "da2f83cfbebff92b8d295781ab3c00013795db032899124e299aa0c308949dc9",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --format json",
        "889e14016e55384b99ccc4a2d2e548433577ed3f6b6d272906b0f8d778055d19",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format csv",
        "753eb0e142a5e6dfdbebce4b56f432ef6ac794986ecb6d51961e140ba2f5588a",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format json",
        "4a110484adff7197ac7afbbea388857d73dd80158f916b33ab2c418e859d8be7",
    ),
    (
        "run --config hbac-ico-initial.json --format csv",
        "59bc857299fdf1e9e4fa3a949c485f7b4006937d9e79e9839853a7ce58b49f71",
    ),
    (
        "run --config hbac-ico-initial.json --format json",
        "a30dd87ad3d391bfd186b57c9428b51ffedb62854ebb7f8230ee9391b036f916",
    ),
    (
        "sample --config hbac-ico-initial.json --trials 25 --seed 5 --format csv",
        "0a644c4224591eedfeaba6abdc4c9752f2e263b057734f1ca83ca18e180e1918",
    ),
    (
        "sample --config hbac-ico-initial.json --trials 25 --seed 5 --format json",
        "3924aad104c7ac17e532bd71c90c10dce353150a17ad31e63b6ad777fae0072f",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial uniform --format csv",
        "1283d4f7b456d71033ae0bafd8e924234b2b243ed017121ffa7f21b81f4b2e81",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial uniform --format json",
        "b24886995a9d386ef0b944fe563a314f03bd73520b13e1c8845ab605c1f37388",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format csv",
        "438d00f5cd68d8abda56304aaea23d065e5d239c09a716b01d568a21b54e07e3",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format json",
        "9333baa74eae212457f9d32997b7b2bf721d7f2d68cd4425ec69d53a17264a71",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial thermal --format csv",
        "4608d5bdf39a6fada64a17d84d53b9154697e20fcb03d628270d3275e72c9e01",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial thermal --format json",
        "1b7ea57cac27cd0aefdcbf09cd4976723d1b11ee466a4845de1547b9378810c2",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format csv",
        "1847e4539841c44e51fd3b253aa2e8ea8ccc9d287f66ab03a9f728e89f270b3a",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format json",
        "3e7a6639e05c933695831bccc1088195e1999bd732588fc2c6728989f7cafddc",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --format csv",
        "0853d0c0b4fa95842ed5f19d68d046dee4ba9fd22b0f3a88b7c78657a0ad94bc",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --format json",
        "e265a6d85877b7aae1f29f40295777577c77e12895df6a3964cc49e1c3dc425b",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format csv",
        "e681902cd2d17df2067230340aafd3a984a1f609e21e2dbce741265b920b9b25",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format json",
        "952844ae39357373648ef2f58603ad031420961018cc935ebac2dd22c0fa647b",
    ),
    (
        "run --config ico-alone-initial.json --format csv",
        "49c150ae07a19171ec8a2bc99fb2472d6ce5a9c98978f3ded1d3a63eea71ce19",
    ),
    (
        "run --config ico-alone-initial.json --format json",
        "4304f48cd43bde06ad2d1a3dd0de366b4918ceea3c09f792091303be4fafbd17",
    ),
    (
        "sample --config ico-alone-initial.json --trials 25 --seed 5 --format csv",
        "2a4bc4435fb3a9e9429f39602850b559948e06def8ea47b1fd0a2e5b8aac5a02",
    ),
    (
        "sample --config ico-alone-initial.json --trials 25 --seed 5 --format json",
        "943689c16cd5ede89b1c4400892adbeefc58052ffc9da28e2a4452d9275777de",
    ),
    # recorded before CSV floats were rendered by the vectorized kernel: an
    # exact 1, a subnormal and exact zeros; two- and three-digit exponents;
    # 0.0... fixed forms over several chain states; each distinct tree prefix
    (
        "fixed-point --n 3 --eps 357",
        "c355da7f233ec0b7f867079db57207c82f51c43df1c95cb36ab8fb865ff3ffd5",
    ),
    (
        "sample --scheme hbac-ico --n 10 --eps 0.05 --trials 3 --seed 1",
        "44adb30eb417b382fe54e415ad41c2b86e4b82191f6a06ff2fc69e3d57b5c83a",
    ),
    (
        "fixed-point --n 3 --eps 300",
        "d14bf101345a046c4f898b6f946f68023b3cb9eeae805d0eb75c02f82b15b62f",
    ),
    (
        "run --scheme hbac --n 3 --eps 300",
        "aee5f1e340cf2fa24e72ec2d306dee12f2c5d98c6f3af805e16b1d92d9e0f53a",
    ),
    (
        "run --scheme ico-tree-sort --n 2 --eps 0.5",
        "c1334a4332fc180204fc7fe06c8380a9fcc86c1800c92903426dca648b88eca5",
    ),
    (
        "sample --scheme ico-tree-sort --n 5 --eps 0.5 --trials 30 --seed 2",
        "0dc909d47aaa307b39c294c5ecf2abbafb3c4092dc1627098cc26dc7e34a66bd",
    ),
    # recorded before the chain held each distinct state once: one re-prepared
    # ico-alone input over 101 chain positions, both pairs; distinct tree prefixes
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --format csv",
        "786a81c8b34aef862677766e983d47f12ab2f204a49ee90ce9de783b5813e841",
    ),
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --format json",
        "208d8601a45d859eb5e410e92987f71a6c1711ca70a9e5281f47b726d16140e3",
    ),
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --pair ideal --format csv",
        "e4a8ad8da59c968fe741737885ecf3ea1ce4e4ebb4f30cb01b151e6d811d7fec",
    ),
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --pair ideal --format json",
        "80049014c0f38fd326aea88e3ea2c612d97f30a470050414bb287aa15587c547",
    ),
    (
        "sample --scheme ico-tree-sort --n 5 --eps 0.5 --trials 40 --seed 2",
        "78b4266a5c299525ebba808c9df29315f6f2d52352250d641f55af1784079110",
    ),
    # recorded before the failure chain was held as array rows: re-pump rounds
    # after each failure, a chain of 411 states, and a seven-level cascade
    (
        "sample --scheme hbac-kico --n 5 --k 3 --eps 0.3 --trials 60 --seed 1 --repump-rounds 2",
        "51a58c7b972ad09dde8cbf804aba5a66e7e1a517de57fb46bed214bdcceed6ec",
    ),
    (
        "sample --scheme hbac-kico --n 5 --k 3 --eps 0.3 --trials 60 --seed 1 --repump-rounds 2 "
        "--format json",
        "146346c258180d41e4e5f25dbe55126a261f3dee01c9d928755d9fd2edd416bd",
    ),
    (
        "sample --scheme hbac-ico --n 6 --eps 0.1 --trials 20 --seed 3",
        "4f9653d587942cce70fafe5cd1e5cf0ceeb3586d5e84393fd8f1f3e2f14e30ce",
    ),
    (
        "sample --scheme ico-tree-sort --n 7 --eps 0.5 --trials 30 --seed 4",
        "72bf4fc1fbf81d81d649b82ef09f75d6c7f8a0e2f2d8ff1a20348e16a9fec9d0",
    ),
    # recorded before tree-sort runs were held as integer codes: a uniform
    # input reaching all 16 leaves and all 15 chain rows, JSON, and a
    # uniform selector with a bath
    (
        "sample --scheme ico-tree-sort --n 4 --trials 500 --seed 7",
        "e5353b37bdd1c49f2b452d6d9e1612ac41520ec5138d3ac097f8d6347299e557",
    ),
    (
        "sample --scheme ico-tree-sort --n 4 --eps 0.5 --trials 500 --seed 7 --format json",
        "893d1cae62159c5eafae9322c723cd20fd188594ca04c2d0182b75556189b690",
    ),
    (
        "sample --scheme ico-tree-sort --n 4 --initial uniform --eps 0.5 --trials 300 --seed 2",
        "b34cd04b56daed70ccdc65bd6f2f3ed16ee0ff7c054ca6831ee8b26cf8dd0b68",
    ),
    # states and vectors longer than one float-kernel slice: 8192-float chain
    # states, and a 16384-line final state written over four slices
    (
        "sample --scheme hbac-ico --n 13 --eps 0.05 --trials 1 --seed 2",
        "eaf0b5ae07d5e07877a487297683ddebd029c949f1002c164e24019b2911b943",
    ),
    (
        "run --scheme hbac --n 14 --eps 0.1",
        "327b84d5f385ce059597c823dde0b684d9ae7052a4aa4c4ffd9ad55326945854",
    ),
    # recorded before CSV attempt lines were joined from cached halves: many
    # runs of each length over many write chunks, one shared state while the
    # round varies, repeated tree prefix codes, and a re-pumped k-switch chain
    (
        "sample --scheme hbac-ico --n 3 --eps 0.5 --trials 3000 --seed 1",
        "4033a3efeb9f0bf1da2e2e47bda07ac8774216c5af4219fd22dd53c313b254f3",
    ),
    (
        "sample --scheme ico-alone --n 3 --eps 0.2 --trials 300 --seed 2",
        "982735b45fbcf86c32bc9d1b999a1d23fb05d7b2f75f3e16a2b994195b986d4b",
    ),
    (
        "sample --scheme ico-tree-sort --n 6 --eps 0.5 --trials 400 --seed 3",
        "cc43ca0deed25cc61c3c7786fc1aaab8563fd7190a0c9ad5db524954dc438364",
    ),
    (
        "sample --scheme hbac-kico --n 4 --k 2 --repump-rounds 1 --eps 0.5 --trials 300 --seed 4",
        "7bff79d10acb85681e0564bc135f9f10ad670ea4a1cf3a21a53409ee0d5287dc",
    ),
)

# explicit initial vectors, written to the working directory of each pinned command
_PINNED_CONFIGS = {
    "hbac-ico-initial.json": {
        "scheme": "hbac-ico",
        "n": 2,
        "epsilon": 0.5,
        "initial": [0.4, 0.3, 0.2, 0.1],
    },
    "ico-alone-initial.json": {
        "scheme": "ico-alone",
        "n": 2,
        "epsilon": 0.5,
        "initial": [0.3, 0.05, 0.1, 0.1, 0.1, 0.1, 0.05, 0.2],
    },
}


@pytest.fixture
def pinned_configs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, config in _PINNED_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _plain(obj):
    """``obj`` with every numpy vector turned into a list, as ``json.dumps`` needs."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_plain(value) for value in obj]
    return obj


def _vector(size: int, seed: int):
    """A non-negative float vector over many magnitudes with 0.0 and the smallest subnormal in it."""
    rng = np.random.default_rng(seed)
    vector = rng.standard_exponential(size) * np.exp(rng.uniform(-700.0, 700.0, size))
    vector[::97] = 0.0
    vector[1::89] = 5e-324
    return vector


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e300, 0.1, 1 / 3]
)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | _FINITE_FLOATS
    | st.text()
    | st.builds(_vector, st.integers(0, 2 * jsontext._JSON_SLICE + 3), st.integers(0, 2**32 - 1))
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


class TestByteGuard:
    @pytest.mark.parametrize("argv,digest", _PINNED_STDOUT, ids=[argv for argv, _ in _PINNED_STDOUT])
    def test_stdout_digest(self, capsys, pinned_configs, argv, digest):
        code, out, _err = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv", [argv for argv, _ in _PINNED_STDOUT if "--format json" not in argv]
    )
    def test_csv_module_writes_the_same_bytes(self, capsys, pinned_configs, argv):
        # the csv module is the reference: no cell the commands write needs quoting
        code, out, _err = run_cli(capsys, *argv.split())
        assert code == 0
        # a state cell of 8192 floats is longer than the reader's default field limit
        limit = csv.field_size_limit(len(out))
        try:
            rows = csv.reader(io.StringIO(out, newline=""))
            rewritten = io.StringIO(newline="")
            csv.writer(rewritten, lineterminator="\r\n").writerows(rows)
        finally:
            csv.field_size_limit(limit)
        assert rewritten.getvalue() == out

    @pytest.mark.parametrize("argv", [argv for argv, _ in _PINNED_STDOUT if "--format json" in argv])
    def test_json_module_writes_the_same_bytes(self, capsys, pinned_configs, argv):
        # the json module is the reference for the streaming encoder
        code, out, _err = run_cli(capsys, *argv.split())
        assert code == 0
        assert _dumps(json.loads(out)) + "\n" == out

    @settings(deadline=None, max_examples=150)
    @given(_JSON_TREES)
    def test_json_chunks_match_json_dumps(self, obj):
        plain = _plain(obj)
        assert "".join(jsontext.json_chunks(obj)) == _dumps(plain)
        # an encoded fragment placed at its depth, and a generator read as a list
        nested = {"fragment": [jsontext.json_text(obj, 2)], "generator": (item for item in [obj])}
        assert "".join(jsontext.json_chunks(nested)) == _dumps({"fragment": [plain], "generator": [plain]})

    @settings(deadline=None, max_examples=60)
    @given(_JSON_TREES, st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
    def test_non_finite_floats_raise_like_json_dumps(self, obj, bad, in_vector):
        tainted = {"ok": obj, "bad": [np.array([1.0, bad]) if in_vector else bad]}
        with pytest.raises(ValueError):
            _dumps(_plain(tainted))
        with pytest.raises(ValueError):
            "".join(jsontext.json_chunks(tainted))

    @settings(deadline=None, max_examples=60)
    @given(
        st.builds(_vector, st.integers(1, 2 * jsontext._JSON_SLICE + 3), st.integers(0, 2**32 - 1)),
        st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), max_size=3),
    )
    def test_state_formatting_matches_format_17g(self, vector, specials):
        # each state (or line) holds what format(x, ".17g") writes per float;
        # a special entry, which no population is, raises instead
        vector = np.concatenate([vector, specials])
        lines = cli._vector_lines("hbac,2,,0.5", "final-state", vector)
        if specials:
            with pytest.raises(ValueError):
                cli._join_states([vector])
            with pytest.raises(ValueError):
                "".join(lines)
            return
        reference = [format(float(x), ".17g") for x in vector]
        assert cli._join_states([vector])[0] == "|".join(reference)
        assert "".join(lines) == "".join(
            f"hbac,2,,0.5,{i},final-state,,,{text}\r\n" for i, text in enumerate(reference, 1)
        )


def _texts(values) -> list[str]:
    """The reference: ``format(x, ".17g")`` of each float."""
    return [format(float(x), ".17g") for x in values]


def _edge_floats():
    """Non-negative floats at every layout and rounding edge of the ``.17g`` kernel."""
    edges = [
        5e-324,
        1.7976931348623157e308,
        1e-5,
        1e-4,
        1e16,
        1e17,
        1e15 + 0.25,  # exact decimal ties: ...0.2 and ...0.8 to even
        1e15 + 0.75,
        0.0,
    ]
    for exponent in range(-323, 309):  # powers of ten and their neighbours
        power = float(f"1e{exponent}")
        edges += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    edges += [2.0**exponent for exponent in range(-1074, 1024)]
    edges += [count * 5e-324 for count in (2, 3, 1000, 2**51, 2**52 - 1)]  # subnormals
    return np.array(edges)


def _reference_ascii_digits(digits):
    """The reference for ``floattext._ascii_digits``: 17 divisions by ten, last digit first."""
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


# decimal exponents of each .17g layout: exponent form, 0.000 prefix, plain, exponent form
_LAYOUTS = ((-320, -5), (-4, -1), (0, 16), (17, 307))


def _with_digits(count: int, layout: tuple[int, int]) -> float:
    """A float whose ``.17g`` text has ``count`` significant digits and an exponent in ``layout``."""
    rng = random.Random(count * 1000 + layout[0])
    for _ in range(100_000):
        digits = str(rng.randrange(10 ** (count - 1), 10**count))
        decimal = rng.randint(*layout)
        value = float(f"{digits[0]}.{digits[1:]}e{decimal}")
        mantissa, _, exponent = format(value, ".16e").partition("e")
        exact = mantissa.replace(".", "").rstrip("0") == digits
        if digits[-1] != "0" and exact and int(exponent) == decimal:
            return value
    raise AssertionError(f"no float with {count} digits in {layout}")


class TestFloatKernel:
    """``cli._float_rows`` against ``format(x, ".17g")``, byte for byte."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 10**17 - 1), min_size=1, max_size=60))
    def test_table_digits_match_the_division_loop(self, numbers):
        edges = [0, 1, 10**16, 10**17 - 1, 10**13, 10**12 + 10**4, 10**8, 10**4, 12345678901234567]
        digits = np.array(numbers + edges, dtype=np.uint64)
        text, keep = floattext._ascii_digits(digits)
        reference_text, reference_keep = _reference_ascii_digits(digits)
        assert np.array_equal(text, reference_text)
        assert np.array_equal(keep, reference_keep)

    def test_every_digit_count_in_every_layout(self):
        # 1 to 17 kept digits put a run of trailing zeros at every 4-digit
        # group boundary, in exponent form, after a 0.000 prefix and plain
        values = np.array(
            [_with_digits(count, layout) for count in range(1, 18) for layout in _LAYOUTS]
        )
        texts = _texts(values)
        assert cli._float_rows(values[:, None]) == texts
        assert cli._float_rows(values[None, :]) == ["|".join(texts)]

    def test_no_tables_are_built_at_import(self, run_probe):
        # the kernel's tables are built on first use: importing the CLI builds none
        caches = "kernel._power_of_ten, kernel._digit_table, kernel._frame_table"
        probe = (
            "import numpy as np, ico_hbac.cli as cli, ico_hbac.floattext as kernel\n"
            f"print([cache.cache_info().currsize for cache in ({caches})])\n"
            "cli._float_rows(np.array([[0.5, 1e-300]]))\n"
            f"print([cache.cache_info().currsize for cache in ({caches})])\n"
        )
        assert run_probe(probe).split("\n")[:2] == ["[0, 0, 0]", "[1, 1, 1]"]

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
    def test_bit_patterns_match_format_17g(self, patterns):
        values = (np.array(patterns, dtype=np.uint64) & np.uint64(2**63 - 1)).view(np.float64)
        values = values[np.isfinite(values)]  # sign bit cleared, non-finite patterns skipped
        assume(values.size)
        assert cli._float_rows(values[None, :]) == ["|".join(_texts(values))]

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs),  # -0.0 is 0.0
            min_size=1,
            max_size=80,
        )
    )
    def test_floats_match_format_17g(self, floats):
        values = np.array(floats)
        assert cli._float_rows(values[None, :]) == ["|".join(_texts(values))]

    def test_edge_table(self):
        values = _edge_floats()
        assert cli._float_rows(values[:, None]) == _texts(values)

    def test_exact_ties_round_to_even(self):
        block = np.array([[1e15 + 0.25, 1e15 + 0.75, 2.5, 0.125]])
        assert cli._float_rows(block) == ["1000000000000000.2|1000000000000000.8|2.5|0.125"]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_rows_split(self, rows, cols, seed):
        block = _vector(rows * cols, seed).reshape(rows, cols)
        expected = ["|".join(_texts(row)) for row in block]
        assert cli._float_rows(block) == expected
        assert cli._join_states(list(block)) == expected

    def test_states_longer_than_a_slice(self):
        vectors = [_vector(cli._FLOAT_SLICE + 5, seed) for seed in range(3)]
        expected = ["|".join(_texts(vector)) for vector in vectors]
        # the vectors are swapped for their texts in the list they came in
        assert cli._join_states(vectors) is vectors
        assert vectors == expected

    @pytest.mark.parametrize("size", [1, 7, cli._FLOAT_SLICE // 3, cli._FLOAT_SLICE])
    def test_states_are_swapped_for_text_in_place(self, size):
        vectors = [_vector(size, seed) for seed in range(2 * cli._FLOAT_SLICE // size + 3)]
        expected = ["|".join(_texts(vector)) for vector in vectors]
        assert cli._join_states(vectors) is vectors
        assert vectors == expected

    @pytest.mark.parametrize("bad", [-1.0, -0.0, math.nan, math.inf, -math.inf])
    def test_entries_that_are_not_populations_raise(self, bad):
        # a population is finite with its sign bit clear: any other entry
        # raises rather than being written without its sign or as nan/inf
        vector = np.array([0.5, bad, 0.25])
        with pytest.raises(ValueError, match="non-negative"):
            cli._join_states([vector, np.array([0.5, 0.5, 0.0])])
        with pytest.raises(ValueError, match="non-negative"):
            "".join(cli._vector_lines("hbac,2,,0.5", "final-state", vector))


class TestOutputSink:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--scheme", "hbac-ico", "--n", "3", "--eps", "0.5", "--trials", "30", "--seed", "4"),
            ("sample", "--scheme", "ico-tree-sort", "--n", "3", "--eps", "0.5", "--trials", "30", "--seed", "4"),
            ("run", "--scheme", "hbac-kico", "--n", "3", "--k", "2", "--eps", "0.5"),
            ("fixed-point", "--n", "3", "--eps", "0.3"),
            ("table1", "--n", "3", "--eps", "0.2", "--k", "2", "--nondemolition"),
            # longer than one write chunk in both formats
            ("sample", "--scheme", "ico-tree-sort", "--n", "6", "--eps", "0.5", "--trials", "40", "--seed", "3"),
        ],
        ids=["sample-hbac-ico", "sample-tree-sort", "run-kico", "fixed-point", "table1", "sample-long"],
    )
    def test_output_file_equals_stdout(self, capsys, tmp_path, argv, fmt):
        target = tmp_path / "out"
        code, out, _err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        code, written, _err = run_cli(capsys, *argv, "--format", fmt, "--output", str(target))
        assert code == 0
        assert written == ""
        data = target.read_bytes().decode("utf-8")
        if fmt == "json" and argv[0] in ("run", "sample"):
            # the echoed run specification names the output file; nothing else differs
            echo = f'    "output": {json.dumps(str(target))},\n'
            assert data.count(echo) == 1
            data = data.replace(echo, "")
        assert data == out

    def test_failed_sample_writes_no_file(self, capsys, tmp_path):
        # zero heralding weight: the draw fails before any output is opened
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"scheme": "ico-alone", "n": 1, "initial": [0.0, 0.5, 0.5, 0.0], "trials": 3})
        )
        target = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "sample", "--config", str(spec), "--output", str(target))
        assert code == 2
        assert "attempts" in err
        assert out == ""
        assert not target.exists()


# One value for every run-spec key.  ``initial`` is a selector here so that it
# can also be given as a flag; _ALL_KEYS_CONFIG swaps in an explicit vector.
_RUNSPEC_VALUES = {
    "scheme": "hbac-kico",
    "n": 3,
    "k": 2,
    "epsilon": 0.5,
    "initial": "thermal",
    "trials": 4,
    "seed": 5,
    "output": "out.json",
    "format": "json",
    "pair": "ideal",
    "nondemolition": True,
    "repump_rounds": 1,
    "max_attempts": 1000,
    "desired_success": 0.9,
}

# the flag that sets each key to its value in _RUNSPEC_VALUES
_RUNSPEC_FLAGS = {
    "scheme": ["--scheme", "hbac-kico"],
    "n": ["--n", "3"],
    "k": ["--k", "2"],
    "epsilon": ["--eps", "0.5"],
    "initial": ["--initial", "thermal"],
    "trials": ["--trials", "4"],
    "seed": ["--seed", "5"],
    "output": ["--output", "out.json"],
    "format": ["--format", "json"],
    "pair": ["--pair", "ideal"],
    "nondemolition": ["--nondemolition"],
    "repump_rounds": ["--repump-rounds", "1"],
    "max_attempts": ["--max-attempts", "1000"],
    "desired_success": ["--desired-success", "0.9"],
}

_ALL_KEYS_CONFIG = {
    **_RUNSPEC_VALUES,
    "initial": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05],
}

# SHA-256 of the file written by a config that sets all 14 run-spec keys,
# re-recorded when ``level`` and ``workers`` were retired: each file is the one
# written before, re-encoded without those two runspec keys
_PINNED_RUNSPEC_ECHO = (
    ("run", "4e558b5ec782f3f9de32551fee29b1246fb2d9443886e98a95ca02161ffcca72"),
    ("sample", "ef20bd9b8b688b20d43fabd4b7b8268c04ac077157b73b42d45cab890c56e7b7"),
)


_HERALDED = {"scheme": "hbac-ico", "n": 2, "epsilon": 0.5}
_SAMPLED = {**_HERALDED, "trials": 20}

# For every run-spec key: a command, a spec, and a second value of the key that
# changes the command's exit code, stdout or ``--output`` bytes.  A key no
# output reads has no such value, so it cannot be added to the table.
_LIVE_KEYS = {
    "scheme": ("run", _HERALDED, "hbac"),
    "n": ("run", _HERALDED, 3),
    "k": ("run", {"scheme": "hbac-kico", "n": 3, "k": 1, "epsilon": 0.5}, 2),
    "epsilon": ("run", _HERALDED, 0.3),
    "initial": ("run", _HERALDED, "uniform"),
    "seed": ("sample", _SAMPLED, 1),
    "desired_success": ("run", _HERALDED, 0.9),
    "pair": ("run", {"scheme": "ico-alone", "n": 2, "epsilon": 0.5}, "ideal"),
    "nondemolition": ("run", {"scheme": "ico-tree-sort", "n": 2}, True),
    "repump_rounds": ("sample", _SAMPLED, 1),
    "max_attempts": ("sample", _SAMPLED, 1),
    "trials": ("sample", _SAMPLED, 21),
    "format": ("run", _HERALDED, "json"),
    "output": ("run", _HERALDED, "out.json"),
}


def _run_in(capsys, directory, config, *argv):
    """Exit code, stdout and the bytes of ``out.json`` (or None) of one command in ``directory``."""
    (directory / "spec.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", "spec.json")
    written = directory / "out.json"
    data = written.read_bytes() if written.exists() else None
    if data is not None:
        written.unlink()
    return code, out, err, data


class TestRunSpecKeys:
    @pytest.mark.parametrize("command,digest", _PINNED_RUNSPEC_ECHO, ids=[c for c, _ in _PINNED_RUNSPEC_ECHO])
    def test_all_keys_config_digest(self, capsys, tmp_path, monkeypatch, command, digest):
        monkeypatch.chdir(tmp_path)
        code, out, err, data = _run_in(capsys, tmp_path, _ALL_KEYS_CONFIG, command)
        assert (code, out, err) == (0, "", "")
        assert json.loads(data)["runspec"] == _ALL_KEYS_CONFIG
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "command,key",
        [("run", key) for key in _RUNSPEC_FLAGS if key != "trials"]
        + [("sample", key) for key in _RUNSPEC_FLAGS],
    )
    def test_flag_and_config_give_the_same_bytes(self, capsys, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        base = {name: value for name, value in _RUNSPEC_VALUES.items() if name != "output"}
        if command == "run":
            del base["trials"]
        by_config = _run_in(capsys, tmp_path, {**base, key: _RUNSPEC_VALUES[key]}, command)
        without = {name: value for name, value in base.items() if name != key}
        by_flag = _run_in(capsys, tmp_path, without, command, *_RUNSPEC_FLAGS[key])
        assert by_config[0] == 0
        assert by_flag == by_config

    def test_liveness_table_covers_the_runspec(self):
        assert set(_LIVE_KEYS) == set(cli._RUNSPEC)

    @pytest.mark.parametrize("key", sorted(_LIVE_KEYS))
    def test_every_key_changes_some_output(self, capsys, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        command, spec, other = _LIVE_KEYS[key]
        code, out, _err, data = _run_in(capsys, tmp_path, spec, command)
        assert code == 0
        changed = _run_in(capsys, tmp_path, {**spec, key: other}, command)
        assert (changed[0], changed[1], changed[3]) != (code, out, data)

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("flag", ["--level", "--workers"])
    def test_retired_flags_are_usage_errors(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, "--scheme", "hbac-ico", "--n", "2", flag, "1")
        assert (code, out) == (2, "")
        assert err == f"error: unrecognized arguments: {flag} 1\n"

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("trials", 0, "trials must be >= 1, got 0"),
            ("level", 0, "unknown run specification keys: ['level']"),
            ("workers", 1, "unknown run specification keys: ['workers']"),
            ("pair", "other", "pair must be one of ('standard', 'ideal'), got 'other'"),
            (
                "initial",
                "bogus",
                "initial must be one of ('uniform', 'thermal', 'fixed-point'), got 'bogus'",
            ),
        ],
    )
    def test_run_and_sample_reject_the_same_specs(self, capsys, tmp_path, command, key, value, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "hbac-ico", "n": 2, "epsilon": 0.5, key: value}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "entries,bad",
        [
            (["0.25", "0.25", "0.25", "0.25"], "str '0.25'"),
            ([0.25, 0.25, 0.25, "0.25"], "str '0.25'"),
            ([True, False, False, False], "bool True"),
            ([0.5, None, 0.5, 0.0], "NoneType None"),
            ([[0.5, 0.5], [0.0, 0.0]], "list [0.5, 0.5]"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sample"])
    def test_initial_vector_entries_must_be_numbers(self, capsys, tmp_path, command, entries, bad):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "ico-alone", "n": 1, "initial": entries}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: run specification key 'initial' expects a list of numbers, got {bad}\n"

    def test_integer_initial_entries_are_numbers(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "ico-alone", "n": 1, "initial": [2, 1, 1, 0], "format": "json"}))
        code, out, _err = run_cli(capsys, "run", "--config", str(path))
        assert code == 0
        assert json.loads(out)["report"]["success_probability"] == 0.5

    @pytest.mark.parametrize("scheme", ["hbac-ico", "hbac"])
    def test_unallocatable_trials_is_one_line_error(self, capsys, scheme):
        # 2**59 int64 trial counts are 4 EiB, beyond any 64-bit address space
        code, out, err = run_cli(
            capsys, "sample", "--scheme", scheme, "--n", "3", "--eps", "0.5", "--trials", str(2**59)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
