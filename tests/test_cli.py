"""CLI tests: argument handling, output formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ico_hbac.cli as cli
import ico_hbac.oracle as oracle
from ico_hbac.hbac_core import fixed_point
from ico_hbac.register import make_thermal_params


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

    def test_exponent_above_cap_fails_before_allocating(self, capsys, monkeypatch):
        monkeypatch.delenv("ICO_HBAC_MAX_N", raising=False)
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

    def test_env_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("ICO_HBAC_MAX_N", "3")
        code, _out, err = run_cli(capsys, "run", "--scheme", "hbac-ico", "--n", "5", "--eps", "0.5")
        assert code == 2
        assert "n must be in" in err

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


class TestSampleCommand:
    @pytest.mark.parametrize("initial", [[0.4, 0.3, 0.2, 0.1], [3, 1]])
    def test_plain_cooling_prints_the_profile_whatever_the_initial(self, capsys, tmp_path, initial):
        # [0.4, 0.3, 0.2, 0.1] sums to 0.9999999999999999 in floats, [3, 1] to 4
        n = len(initial).bit_length() - 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scheme": "hbac", "n": n, "epsilon": 0.5, "initial": initial}))
        code, out, _ = run_cli(capsys, "sample", "--config", str(path), "--trials", "3")
        assert code == 0
        cells = {row["value"] for row in parse_csv(out) if row["outcome"] == "+"}
        code, out, _ = run_cli(capsys, "fixed-point", "--n", str(n), "--eps", "0.5")
        assert code == 0
        profile = [row["value"] for row in parse_csv(out) if row["outcome"] == "fixed-point"]
        assert cells == {"|".join(profile)}

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

    def test_workers_do_not_change_bytes(self, capsys, tmp_path):
        outputs = []
        for workers, name in (("1", "a.csv"), ("2", "b.csv")):
            target = tmp_path / name
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
                "101",
                "--seed",
                "9",
                "--workers",
                workers,
                "--output",
                str(target),
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

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
            json_text = cli._json_text

            def counting(obj, depth):
                rendered.append(obj)
                return json_text(obj, depth)

            monkeypatch.setattr(cli, "_json_text", counting)
        argv = "sample --scheme ico-alone --n 8 --eps 0.2 --trials 20 --seed 1 --format " + fmt
        code, out, _err = run_cli(capsys, *argv.split())
        assert code == 0
        assert len(rendered) == 1
        assert rendered[0].size == 2**9
        attempts = out.count(",-,") if fmt == "csv" else out.count('"outcome": "-"')
        assert attempts > 100


class TestValidateCommand:
    def test_passes_and_prints_per_family_lines(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nmax", "2", "--trials", "10")
        assert code == 0
        assert "oracle diagonal [standard +]" in out
        assert "oracle diagonal [tree level=1 -]" in out
        assert "overall" in out
        assert "FAIL" not in out

    def test_injected_fault_fails(self, capsys, monkeypatch):
        import ico_hbac.switch  # noqa: F401  (documentation of the faulted layer)

        real = oracle.compare

        def corrupted(*args, **kwargs):
            report = real(*args, **kwargs)
            bad = dict(report.by_case)
            bad[("standard", "+")] = 1.0
            return oracle.CompareReport(1.0, report.max_offdiagonal, bad)

        monkeypatch.setattr(oracle, "compare", corrupted)
        code, out, _ = run_cli(capsys, "validate", "--nmax", "1", "--trials", "5")
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize("flag", ["--nmax", "--trials"])
    def test_empty_run_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "validate", flag, "0")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag[2:]} must be >= 1, got 0\n"

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


# SHA-256 of stdout, recorded before the output path was rewritten to stream:
# any change to these bytes is a change to the output format
_PINNED_STDOUT = (
    (
        "sample --scheme hbac --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "0d89db2fcedf9ef8f39746f4485ef70ce2406cd4affd23796ec4ebccb9c1143a",
    ),
    (
        "sample --scheme hbac --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "9cf38c6b40656d39c1838435b00a34ba6c440564a1cbe0a7fb13a8b7825cf70d",
    ),
    (
        "sample --scheme hbac --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "65c0f02e0393c0399edeefc527fa468a0bc58e9dd197277bbb0b952ab53fefbd",
    ),
    (
        "sample --scheme hbac --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "9eb8c60d8e6422a05116623c75f53665a3c91e3c8fd138a8407025cd86f67f7b",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "753eb0e142a5e6dfdbebce4b56f432ef6ac794986ecb6d51961e140ba2f5588a",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "a5e4ec49177816d21a4ed5f8ba7fc389f62c2cf05ba4014528d08ea7fe49ad72",
    ),
    (
        "sample --scheme hbac-ico --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "6cf47a99ca06d5dde87c058420e3b551062718663c035d1fda9e585a8ffbd3a5",
    ),
    (
        "sample --scheme hbac-ico --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "66c8c1754ce9218bebd9a5cdb6bffc97e8ce7f2c3cecb50b10fc1192440fce26",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "1847e4539841c44e51fd3b253aa2e8ea8ccc9d287f66ab03a9f728e89f270b3a",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "f9baef2c6f2688faf14bce768716fb5e97c09e54fd5e328e6e23c7402cdee27b",
    ),
    (
        "sample --scheme ico-alone --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "3fa6c5ccb284bb339a11fbdf838f46fef919bc7e2504fb18458dfd3427996a26",
    ),
    (
        "sample --scheme ico-alone --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "cbc8df5643947709ca80313374b35f50ecb0f1a98950f15adf30c37dc446ff0f",
    ),
    (
        "sample --scheme ico-tree-sort --n 2 --eps 0.5 --trials 25 --seed 5 --format csv",
        "8a791421c47827f8760933feecf232340cfc10652bf1f7100e9969fe5906d546",
    ),
    (
        "sample --scheme ico-tree-sort --n 2 --eps 0.5 --trials 25 --seed 5 --format json",
        "1be37f6c52b76aaae56268513c998df2c42f49e1c832947b2c4d4f95d2157768",
    ),
    (
        "sample --scheme ico-tree-sort --n 3 --eps 0.5 --trials 25 --seed 5 --format csv",
        "cff9179ffc004d2476a39af98a7ccf3fb66bb25667315087683c91c206e6a571",
    ),
    (
        "sample --scheme ico-tree-sort --n 3 --eps 0.5 --trials 25 --seed 5 --format json",
        "0f165f07cc9123d3cb062ab92a36ffb28e4e12bd19a9ed0f33c12e418d6867c3",
    ),
    (
        "sample --scheme hbac-kico --n 2 --eps 0.5 --trials 25 --seed 5 --format csv --k 1 --repump-rounds 1",
        "ac2c5389e83a99b4866a3db2e859c359f7e63e0d6d421e179e36837ae0ae7b86",
    ),
    (
        "sample --scheme hbac-kico --n 2 --eps 0.5 --trials 25 --seed 5 --format json --k 1 --repump-rounds 1",
        "866428126ce5fbe9e368d0522ec86361bec02874c4275b836de57de7d327ef7d",
    ),
    (
        "sample --scheme hbac-kico --n 3 --eps 0.5 --trials 25 --seed 5 --format csv --k 1 --repump-rounds 1",
        "6811f7e0eb9d6d61d69320f513e7ebf33f8bcaa4eec622fd484cf9e3dc84d6ce",
    ),
    (
        "sample --scheme hbac-kico --n 3 --eps 0.5 --trials 25 --seed 5 --format json --k 1 --repump-rounds 1",
        "a9d2ccfbc4619a0126bf50c45b83738c9a02336785d645a43d61ea1a855c122c",
    ),
    (
        "run --scheme hbac-kico --n 3 --k 2 --eps 0.3 --desired-success 0.9",
        "d7d611236e66476ec65b8220e79d9fd0cea589868ca6e0896a334aad0eb705a8",
    ),
    (
        "run --scheme ico-tree-sort --n 3 --eps 0.3 --format json",
        "625e14bfbf35312172623ea997a9fdef26ff4449784ddeb9257a585d14613a58",
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
        "641a27c164abf4042f83db70cda8b8938760622528829e085f0f55edc175f328",
    ),
    (
        "sample --scheme hbac-ico --n 5 --eps 0.3 --trials 50 --seed 2 --format json",
        "4285d029c9ecb235e84a295ba2208925cbb5aba801da55dbaada5037bec3dece",
    ),
    (
        "run --scheme hbac --n 12 --eps 0.1 --format json",
        "06221e402abf1013ce3d6b10ac885429b7ccc304fad5a9c2ced1c82e09a54ca9",
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
        "8bb51a5c097ef8b3a62b46e8586d5e1c74bb9063cc19b22ac559bebd7de89c01",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format csv",
        "01b440fa542f2877f6d90e1332a61786104970bc087c0d72ef4e698c3990f3f8",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format json",
        "6747f4f5a48191a79fc7ed3d18bdaca6ada77e0e6ef68d98b2ed2d8a0a030d21",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --format csv",
        "32e26f6b6a0b826f4c808c3ed1b10af864ac0e299224a2323f1ecc09a0e3d6f7",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --format json",
        "62ebd1ed0318b76fc8f7ab65a3373164ef3b773f5b3789da8dbc48a478a06178",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format csv",
        "79dd79162eebc55c0e81fe24ebfb886b232e2e292239caadad30e948546891bd",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format json",
        "e6ffd2f4dceeebc3d9560b3eeb5cdbbf36d27a1f4f1d261e43a6e9a31c44c2ea",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --format csv",
        "da2f83cfbebff92b8d295781ab3c00013795db032899124e299aa0c308949dc9",
    ),
    (
        "run --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --format json",
        "1c53e7d3610ffb50685f446c9afc8ed86f9d3cefcd8bdd71382807798aff5eaf",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format csv",
        "753eb0e142a5e6dfdbebce4b56f432ef6ac794986ecb6d51961e140ba2f5588a",
    ),
    (
        "sample --scheme hbac-ico --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format json",
        "4cfc6c3e07dbf38d9f51f4aa19560b378791f92faab805001f5009799bc5a7e1",
    ),
    (
        "run --config hbac-ico-initial.json --format csv",
        "59bc857299fdf1e9e4fa3a949c485f7b4006937d9e79e9839853a7ce58b49f71",
    ),
    (
        "run --config hbac-ico-initial.json --format json",
        "2d7699aa6d6431429e60b9dff8a51f597bea04c2e757840795cb3c9dc8865137",
    ),
    (
        "sample --config hbac-ico-initial.json --trials 25 --seed 5 --format csv",
        "0a644c4224591eedfeaba6abdc4c9752f2e263b057734f1ca83ca18e180e1918",
    ),
    (
        "sample --config hbac-ico-initial.json --trials 25 --seed 5 --format json",
        "f60e2ebe188df54e63ae0e6a4135681ae21bd252fdb17f20dfec652b576f44da",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial uniform --format csv",
        "1283d4f7b456d71033ae0bafd8e924234b2b243ed017121ffa7f21b81f4b2e81",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial uniform --format json",
        "6d5b096fe56e746335ce19d279119644c31845c47dd82c37252ed7e939098d11",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format csv",
        "438d00f5cd68d8abda56304aaea23d065e5d239c09a716b01d568a21b54e07e3",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial uniform --trials 25 --seed 5 --format json",
        "782ab6e74ce1fc999813467d15ab3234edc240a65744535a8c2ffcde244b25dd",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial thermal --format csv",
        "4608d5bdf39a6fada64a17d84d53b9154697e20fcb03d628270d3275e72c9e01",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial thermal --format json",
        "1e6378801e7cdb9a6713674fec5c8ace6faf04c3b4aac09c70bbe71d886531b6",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format csv",
        "1847e4539841c44e51fd3b253aa2e8ea8ccc9d287f66ab03a9f728e89f270b3a",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial thermal --trials 25 --seed 5 --format json",
        "92c985c579085876ab2eeac35974272798f8b3d5b5a66f6d0602c1c1f03a12f9",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --format csv",
        "0853d0c0b4fa95842ed5f19d68d046dee4ba9fd22b0f3a88b7c78657a0ad94bc",
    ),
    (
        "run --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --format json",
        "8372dc0bb692196f9b700a46f56d18832eb37ec0e1b066e9f18298a062dad781",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format csv",
        "e681902cd2d17df2067230340aafd3a984a1f609e21e2dbce741265b920b9b25",
    ),
    (
        "sample --scheme ico-alone --n 2 --eps 0.5 --initial fixed-point --trials 25 --seed 5 --format json",
        "8d18ebe94dcfbd25796da2357d02243c1f974f21934cb3dccd76997f7311377e",
    ),
    (
        "run --config ico-alone-initial.json --format csv",
        "49c150ae07a19171ec8a2bc99fb2472d6ce5a9c98978f3ded1d3a63eea71ce19",
    ),
    (
        "run --config ico-alone-initial.json --format json",
        "25a897ef694e1a28d879be4ff2c8e96b89db9fbb5a6d47545de54c1aea64befb",
    ),
    (
        "sample --config ico-alone-initial.json --trials 25 --seed 5 --format csv",
        "2a4bc4435fb3a9e9429f39602850b559948e06def8ea47b1fd0a2e5b8aac5a02",
    ),
    (
        "sample --config ico-alone-initial.json --trials 25 --seed 5 --format json",
        "9c17917378a2f384d922b5289f74b02ffcafc4d9af6afd7af99698b84afaeed3",
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
        "0a9d05833a6af1958fb354af75330348b86a41bc5be2ef18889b3936312725c3",
    ),
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --pair ideal --format csv",
        "e4a8ad8da59c968fe741737885ecf3ea1ce4e4ebb4f30cb01b151e6d811d7fec",
    ),
    (
        "sample --scheme ico-alone --n 6 --eps 0.2 --trials 10 --seed 1 --pair ideal --format json",
        "b8776f5015d196c433798b19f1ca931b3a00b42b35938a0bf0d12907e7dedf44",
    ),
    (
        "sample --scheme ico-tree-sort --n 5 --eps 0.5 --trials 40 --seed 2",
        "78b4266a5c299525ebba808c9df29315f6f2d52352250d641f55af1784079110",
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
    """A float vector over many magnitudes with -0.0 and the smallest subnormal in it."""
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(size) * np.exp(rng.uniform(-700.0, 700.0, size))
    vector[::97] = -0.0
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
    | st.builds(_vector, st.integers(0, 2 * cli._JSON_SLICE + 3), st.integers(0, 2**32 - 1))
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
        rows = csv.reader(io.StringIO(out, newline=""))
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten, lineterminator="\r\n").writerows(rows)
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
        assert "".join(cli._json_chunks(obj)) == _dumps(plain)
        # an encoded fragment placed at its depth, and a generator read as a list
        nested = {"fragment": [cli._json_text(obj, 2)], "generator": (item for item in [obj])}
        assert "".join(cli._json_chunks(nested)) == _dumps({"fragment": [plain], "generator": [plain]})

    @settings(deadline=None, max_examples=60)
    @given(_JSON_TREES, st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
    def test_non_finite_floats_raise_like_json_dumps(self, obj, bad, in_vector):
        tainted = {"ok": obj, "bad": [np.array([1.0, bad]) if in_vector else bad]}
        with pytest.raises(ValueError):
            _dumps(_plain(tainted))
        with pytest.raises(ValueError):
            "".join(cli._json_chunks(tainted))

    @settings(deadline=None, max_examples=60)
    @given(
        st.builds(_vector, st.integers(1, 2 * cli._JSON_SLICE + 3), st.integers(0, 2**32 - 1)),
        st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), max_size=3),
    )
    def test_state_formatting_matches_format_17g(self, vector, specials):
        # one %-format per vector (or line) writes what format(x, ".17g") writes per float
        vector = np.concatenate([vector, specials])
        reference = [format(float(x), ".17g") for x in vector]
        assert cli._join_states([vector])[0] == "|".join(reference)
        lines = list(cli._vector_lines("hbac,2,,0.5", "final-state", vector))
        assert lines == [
            f"hbac,2,,0.5,{i},final-state,,,{text}\r\n" for i, text in enumerate(reference, 1)
        ]


def _texts(values) -> list[str]:
    """The reference: ``format(x, ".17g")`` of each float."""
    return [format(float(x), ".17g") for x in values]


def _edge_floats():
    """Floats at every layout and rounding edge of the ``.17g`` kernel."""
    edges = [
        5e-324,
        1.7976931348623157e308,
        1e-5,
        1e-4,
        1e16,
        1e17,
        1e15 + 0.25,  # exact decimal ties: ...0.2 and ...0.8 to even
        1e15 + 0.75,
        -0.0,
        0.0,
        math.nan,
        math.inf,
        -math.inf,
    ]
    for exponent in range(-323, 309):  # powers of ten and their neighbours
        power = float(f"1e{exponent}")
        edges += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    edges += [2.0**exponent for exponent in range(-1074, 1024)]
    edges += [count * 5e-324 for count in (2, 3, 1000, 2**51, 2**52 - 1)]  # subnormals
    return np.array(edges)


class TestFloatKernel:
    """``cli._float_rows`` against ``format(x, ".17g")``, byte for byte."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
    def test_bit_patterns_match_format_17g(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert cli._float_rows(values[None, :]) == ["|".join(_texts(values))]

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(), min_size=1, max_size=80))
    def test_floats_match_format_17g(self, floats):
        values = np.array(floats)
        assert cli._float_rows(values[None, :]) == ["|".join(_texts(values))]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_table(self, sign):
        values = sign * _edge_floats()
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
        assert cli._join_states(vectors) == ["|".join(_texts(vector)) for vector in vectors]


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
    "level": 2,
    "nondemolition": True,
    "repump_rounds": 1,
    "max_attempts": 1000,
    "desired_success": 0.9,
    "workers": 2,
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
    "level": ["--level", "2"],
    "nondemolition": ["--nondemolition"],
    "repump_rounds": ["--repump-rounds", "1"],
    "max_attempts": ["--max-attempts", "1000"],
    "desired_success": ["--desired-success", "0.9"],
    "workers": ["--workers", "2"],
}

_ALL_KEYS_CONFIG = {
    **_RUNSPEC_VALUES,
    "initial": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05],
}

# SHA-256 of the file written by a config that sets all 16 run-spec keys,
# recorded before the run-spec keys were declared in one table
_PINNED_RUNSPEC_ECHO = (
    ("run", "b9b9af10b9f7ba9c7760a04924af830e1cfca49a5a5c1875e2756f988f727695"),
    ("sample", "de0868a61601d0a75a0821553ba05b0fd1ee77554497a609acc95fa17f2cc7bd"),
)


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
        [("run", key) for key in _RUNSPEC_FLAGS if key not in ("trials", "workers")]
        + [("sample", key) for key in _RUNSPEC_FLAGS],
    )
    def test_flag_and_config_give_the_same_bytes(self, capsys, tmp_path, monkeypatch, command, key):
        monkeypatch.chdir(tmp_path)
        base = {name: value for name, value in _RUNSPEC_VALUES.items() if name != "output"}
        if command == "run":
            del base["trials"], base["workers"]
        by_config = _run_in(capsys, tmp_path, {**base, key: _RUNSPEC_VALUES[key]}, command)
        without = {name: value for name, value in base.items() if name != key}
        by_flag = _run_in(capsys, tmp_path, without, command, *_RUNSPEC_FLAGS[key])
        assert by_config[0] == 0
        assert by_flag == by_config

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("trials", 0, "trials must be >= 1, got 0"),
            ("workers", -1, "workers must be >= 1, got -1"),
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
