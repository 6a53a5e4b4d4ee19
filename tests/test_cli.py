import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nnscontrol import controllability
from nnscontrol.cli import console_main, main, run_command
from nnscontrol.controllability import check_sparse
from nnscontrol.fixtures import fixture_path
from nnscontrol.matrixcore import Tolerances
from nnscontrol.systemio import dump_system_file, parse_system_file

from helpers import rank_cut_disagreement

COB = fixture_path("cob_system.json")
COB_T = fixture_path("cob_transformed.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_cob_controllable(self, capsys):
        code, out, _ = run(capsys, "check", COB, "--s", "1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "controllable"
        assert report["command"] == "check"
        assert report["tolerances"]["ineq_tol"] == 1e-8

    def test_cob_transformed_uncontrollable_with_certificate(self, capsys):
        code, out, _ = run(capsys, "check", COB_T, "--s", "1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "uncontrollable"
        cert = report["result"]["condition_ii"]["certificate"]
        assert abs(cert["lambda"]["re"]) <= 1e-10
        z = np.array(cert["z"]["re"])
        np.testing.assert_allclose(np.abs(z), [0, 0, 1], atol=1e-10)

    def test_s_zero_is_input_error(self, capsys):
        code, out, err = run(capsys, "check", COB, "--s", "0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.json", "--s", "1")
        assert code == 1
        assert "not found" in err

    def test_variant_nonneg_without_s(self, capsys):
        code, out, _ = run(capsys, "check", COB, "--variant", "nonneg")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["mode"] == "nonneg"
        assert report["result"]["condition_iii"] is None

    def test_pretty_writes_summary_to_stderr(self, capsys):
        code, out, err = run(capsys, "check", COB, "--s", "1", "--pretty")
        assert code == 0
        assert "verdict: controllable" in err
        json.loads(out)  # stdout stays machine readable

    def test_abbreviated_pretty_writes_summary(self, capsys):
        code, out, err = run(capsys, "check", COB, "--s", "1", "--pret")
        assert code == 0
        assert "verdict: controllable" in err
        json.loads(out)

    def test_pretty_prints_the_certificate(self, capsys):
        code, _, err = run(capsys, "check", COB_T, "--pretty")
        assert code == 0
        lines = err.splitlines()
        assert "  condition_iii: pass" in lines
        assert (
            "  certificate: violates_condition_ii at lambda = +0+0j, z = [0.0, 0.0, 1.0]" in lines
        )

    def test_pretty_nonneg_has_no_condition_iii_line(self, capsys):
        code, _, err = run(capsys, "check", COB_T, "--pretty", "--variant", "nonneg")
        assert code == 0
        assert "  condition_ii: FAIL" in err.splitlines()
        assert "condition_iii" not in err


class TestMinSparsity:
    def test_cob(self, capsys):
        code, out, _ = run(capsys, "min-sparsity", COB)
        assert code == 0
        assert json.loads(out)["result"]["min_sparsity"] == 1

    def test_uncontrollable_reports_infeasible(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[1.0]], "B": [[1.0]]}')
        code, out, _ = run(capsys, "min-sparsity", str(path))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["min_sparsity"] is None
        assert result["feasible"] is False

    def test_pretty_writes_summary_to_stderr(self, capsys):
        code, out, err = run(capsys, "min-sparsity", COB, "--pretty")
        assert code == 0
        assert err.splitlines() == ["nnscontrol min-sparsity", "  min sparsity: 1 (feasible: True)"]
        assert json.loads(out)["result"]["required"] == 1


class TestOracle:
    @pytest.mark.parametrize(
        "path, pinned",
        [(COB, ("covered_at", 5, 2036, 0)), (COB_T, ("uncovered", 6, 992, 34))],
        ids=["cob_system", "cob_transformed"],
    )
    def test_cob_covered(self, capsys, path, pinned):
        # The outcome and question count with the default probes: a change in
        # how many membership questions a sweep asks fails this test.
        code, out, _ = run(capsys, "oracle", path, "--s", "1")
        assert code == 0
        result = json.loads(out)["result"]
        assert (
            result["outcome"], result["k_used"], result["lp_count"],
            len(result["uncovered_directions"]),
        ) == pinned

    def test_pretty_counts_membership_questions(self, capsys):
        code, out, err = run(capsys, "oracle", COB, "--samples", "16", "--seed", "3", "--pretty")
        assert code == 0
        result = json.loads(out)["result"]
        assert err.splitlines()[-1] == (
            f"  outcome: covered_at at K = {result['k_used']} "
            f"({result['lp_count']} membership questions, 0 uncovered)"
        )

    def test_requires_sparsity(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[1.0]], "B": [[1.0]]}')
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: the oracle needs a sparsity level (--s or the file)\n"

    def test_overflowing_power_exits_two(self, capsys, tmp_path):
        # A valid system whose A^2 B overflows: a numeric failure, not an input error.
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[1e200, 0], [0, 1]], "B": [[1, 0], [0, 1]], "s": 1}')
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2
        assert out == ""
        assert err == "numeric failure: A^2 B overflows\n"

    def test_flat_cone_completes(self, capsys, tmp_path):
        # A pair whose cone solve ends on positive columns that span R^2
        # (tests/test_oracle.py::flat_cone_pair): one JSON report, exit 0.
        turn = -1e-9
        a = [[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": a, "B": [[1.0, -1.0], [0.0, 5e-9]]}))
        code, out, err = run(capsys, "oracle", str(path), "--s", "2", "--kmax", "2")
        assert code == 0
        assert err == ""
        result = json.loads(out)["result"]
        assert (result["outcome"], result["k_used"]) == ("uncovered", 2)


class TestDecompose:
    def test_cob_structure(self, capsys):
        code, out, _ = run(capsys, "decompose", COB)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["structure"]["n"] == 1
        assert result["structure"]["q"] == 2
        assert result["verification"]["all_passed"] is True

    def test_pretty_writes_summary_to_stderr(self, capsys):
        code, out, err = run(capsys, "decompose", COB, "--pretty")
        assert code == 0
        assert err.splitlines() == [
            "nnscontrol decompose",
            "  largest zero block n = 1, nonsingular part q = 2, block counts [1]",
            "  verification: pass",
        ]
        json.loads(out)


class TestVerifyCert:
    def test_roundtrip_from_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", COB_T, "--s", "1")
        cert = json.loads(out)["result"]["condition_ii"]["certificate"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))

        code, out, _ = run(capsys, "verify-cert", COB_T, "--cert", str(cert_path))
        assert code == 0
        assert json.loads(out)["result"]["check"]["valid"] is True

        # The same witness must be rejected against the original system.
        code, out, _ = run(capsys, "verify-cert", COB, "--cert", str(cert_path))
        assert code == 0
        assert json.loads(out)["result"]["check"]["valid"] is False

    def test_short_imaginary_part_exits_one(self, capsys, tmp_path):
        # z.re and z.im of unequal length once broadcast to a valid witness.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({
            "kind": "violates_condition_ii", "lambda": {"re": 0.0, "im": 0.0},
            "z": {"re": [0.0, 0.0, 1.0], "im": [0.0]},
        }))
        code, out, err = run(capsys, "verify-cert", COB_T, "--cert", str(cert_path))
        assert code == 1
        assert out == ""
        assert err == "error: certificate z must be a nonempty vector, got lengths re 3, im 1\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"residual_eig": "abc"}, "residual_eig entry 1 is not a number: 'abc'"),
            ({"max_zb": None}, "max_zb entry 1 is not a number: None"),
            ({"z": {"re": [0, 0, 10**400], "im": [0, 0, 0]}}, "z.re entry 3 is not finite"),
        ],
        ids=["string-residual", "null-max-zb", "int-1e400-z"],
    )
    def test_bad_number_exits_one_without_traceback(self, capsys, tmp_path, fields, message):
        cert = {"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
                "z": {"re": [0, 0, 1], "im": [0, 0, 0]}, **fields}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, err = run(capsys, "verify-cert", COB_T, "--cert", str(cert_path))
        assert code == 1
        assert out == ""
        assert err == f"error: malformed certificate: {message}\n"

    def test_array_is_refused_by_the_loader(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("[1, 2]")
        code, out, err = run(capsys, "verify-cert", COB_T, "--cert", str(cert_path))
        assert code == 1
        assert out == ""
        assert err == "error: certificate file must be a JSON object\n"

    @pytest.mark.parametrize("cert", ["./missing.json", "{missing}.json", "missing/"])
    def test_missing_file_is_named_as_typed(self, capsys, tmp_path, monkeypatch, cert):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify-cert", COB_T, "--cert", cert)
        assert code == 1
        assert out == ""
        assert err == f"error: certificate file not found: {cert}\n"

    def test_pretty_writes_summary_to_stderr(self, capsys, cert_file):
        code, out, err = run(capsys, "verify-cert", COB_T, "--cert", cert_file, "--pretty")
        assert code == 0
        assert err.splitlines() == ["nnscontrol verify-cert", "  certificate valid: True"]
        json.loads(out)


class TestGen:
    def test_gen_output_feeds_check(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--kind", "random_nonsingular_paired",
            "--n", "2", "--m", "4", "--seed", "1",
        )
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run(capsys, "check", str(path), "--s", "1")
        assert code == 0
        json.loads(out)

    def test_gen_planted_is_uncontrollable(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--kind", "planted_uncontrollable_ii",
            "--n", "2", "--m", "2", "--seed", "7",
        )
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        code, out, _ = run(capsys, "check", str(path), "--s", "1")
        report = json.loads(out)
        assert report["result"]["verdict"] == "uncontrollable"


class TestConsoleMain:
    """``console_main`` is what ``[project.scripts]`` installs as ``nnscontrol``."""

    @pytest.mark.parametrize("missing, code", [(False, 0), (True, 1)], ids=["cob", "missing-file"])
    def test_exits_with_the_code_of_main(self, capsys, monkeypatch, tmp_path, missing, code):
        path = str(tmp_path / "missing.json") if missing else COB
        monkeypatch.setattr(sys, "argv", ["nnscontrol", "check", path])
        with pytest.raises(SystemExit) as excinfo:
            console_main()
        assert excinfo.value.code == code
        assert (capsys.readouterr().out == "") == missing


class TestModuleMain:
    def test_python_m_runs_the_cli(self):
        # python -m nnscontrol.cli prints the report that main prints.
        paths = [str(Path(controllability.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "nnscontrol.cli", "check", COB, "--s", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report, _ = run_command(["check", COB, "--s", "1"])
        assert json.loads(proc.stdout)["result"] == report["result"]


class TestExitCodes:
    def test_numeric_failure_exits_two(self, capsys, monkeypatch):
        from nnscontrol import cli
        from nnscontrol.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("synthetic solver failure")

        monkeypatch.setattr(cli, "check_nonneg_sparse", boom)
        code, out, err = run(capsys, "check", COB, "--s", "1")
        assert code == 2
        assert out == ""
        assert "numeric failure" in err


class TestInternalOverflow:
    """Valid entries whose analysis overflows: a numeric failure (exit 2), not
    an input error, and no warning on the way."""

    @pytest.fixture
    def overflow_file(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"A": [[1e308, 1e308], [1e308, 1e308]], "B": [[1.0], [1.0]]}))
        return str(path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check"], "an eigenvalue of A overflows"),
            (["min-sparsity"], "an eigenvalue of A overflows"),
            (["check", "--variant", "sparse", "--s", "1"], "an eigenvalue of A overflows"),
            (["decompose"], "P A P^-1 overflows"),
        ],
        ids=["check", "min-sparsity", "check-sparse", "decompose"],
    )
    def test_exits_two(self, capsys, overflow_file, argv, message):
        code, out, err = run(capsys, *argv[:1], overflow_file, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"numeric failure: {message}\n"

    def test_unreached_block_exits_two(self, capsys, tmp_path):
        # B spans ker A, so the block of A that no input reaches is 2e308.
        path = tmp_path / "unreached.json"
        path.write_text(json.dumps({"A": [[1e308, 1e308], [1e308, 1e308]], "B": [[1.0], [-1.0]]}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err == "numeric failure: the block of A that no input reaches overflows\n"

    def test_huge_nilpotent_report_is_strict_json(self, capsys, tmp_path):
        # The eigen-residuals once overflowed to inf and the report held Infinity.
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps({"A": [[1e308, 1e308], [-1e308, -1e308]], "B": [[1.0], [0.0]]}))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        report = json.loads(out, parse_constant=refuse)
        assert all(group["max_residual"] < 1e308 for group in report["result"]["eigenvalues"])

    def test_huge_jordan_block_is_uncontrollable(self, capsys, tmp_path):
        # The cluster mean of the eigenvalues 1e308 once overflowed, and the
        # command exited 1 on an inf it had computed itself.
        path = tmp_path / "jordan.json"
        path.write_text(json.dumps({"A": [[1e308, 1e308], [0.0, 1e308]], "B": [[-1.0], [-1.0]]}))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "uncontrollable"

    def test_verify_cert_rejects_a_wrong_eigenvalue(self, capsys, overflow_file, tmp_path):
        # z = -e1 is no left eigenvector (residual 1e308); the bound once was inf.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({
            "kind": "violates_condition_ii", "lambda": {"re": 5.0, "im": 0.0},
            "z": {"re": [-1.0, 0.0], "im": [0.0, 0.0]},
        }))
        code, out, _ = run(capsys, "verify-cert", overflow_file, "--cert", str(cert_path))
        assert code == 0
        assert json.loads(out)["result"]["check"]["valid"] is False


class TestDeterminism:
    def strip_wall_time(self, report):
        report = dict(report)
        report.pop("wall_time_s", None)
        return json.dumps(report, sort_keys=True)

    def test_reports_are_reproducible(self):
        baseline = None
        for _ in range(3):
            report, code = run_command(["check", COB, "--s", "1"])
            assert code == 0
            snapshot = self.strip_wall_time(report)
            if baseline is None:
                baseline = snapshot
            assert snapshot == baseline

    def test_oracle_reports_are_reproducible(self):
        baseline = None
        for _ in range(3):
            report, code = run_command(["oracle", COB_T, "--samples", "8", "--seed", "5"])
            assert code == 0
            snapshot = self.strip_wall_time(report)
            if baseline is None:
                baseline = snapshot
            assert snapshot == baseline


class TestCheckVariants:
    @pytest.mark.parametrize("path", [COB, COB_T])
    def test_sparse_matches_library(self, capsys, path):
        system = parse_system_file(path).system
        for s in range(1, system.m + 1):
            code, out, _ = run(capsys, "check", path, "--variant", "sparse", "--s", str(s))
            assert code == 0
            expected = json.loads(json.dumps(check_sparse(system, s).to_dict()))
            assert json.loads(out)["result"] == expected

    @pytest.mark.parametrize("variant", ["sparse", "nonneg-sparse"])
    def test_missing_sparsity_is_input_error(self, capsys, tmp_path, variant):
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[1.0]], "B": [[1.0]]}')
        code, out, err = run(capsys, "check", str(path), "--variant", variant)
        assert code == 1
        assert out == ""
        assert err == f"error: variant '{variant}' needs a sparsity level (--s or the file)\n"


class TestMinSparsityInfeasible:
    def test_rank_cut_disagreement_is_reported(self, capsys, tmp_path, monkeypatch):
        # rank(A) reads 0, so N - rank(A) = 2 exceeds m = 1 on a controllable pair.
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [1.0]]}))
        monkeypatch.setattr(controllability, "rank", lambda a, tol: 0)
        code, out, _ = run(capsys, "min-sparsity", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {
            "min_sparsity": None,
            "feasible": False,
            "nonneg_controllable": True,
            "reason": "N - rank(A) = 2 exceeds the input dimension m = 1",
        }

    def test_rank_cut_fixture_is_not_nonneg_controllable(self, capsys, tmp_path):
        system = rank_cut_disagreement()
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": system.A.tolist(), "B": system.B.tolist()}))
        code, out, _ = run(capsys, "min-sparsity", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {
            "min_sparsity": None,
            "feasible": False,
            "nonneg_controllable": False,
            "reason": "system is not controllable with nonnegative inputs",
        }


ENVELOPE_KEYS = {
    "tool", "version", "command", "input_digest", "name", "tolerances", "result", "wall_time_s",
}


@pytest.fixture
def cert_file(tmp_path):
    report, _ = run_command(["check", COB_T, "--s", "1"])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report["result"]["condition_ii"]["certificate"]))
    return str(path)


class TestEnvelope:
    @pytest.mark.parametrize(
        "command, path, options, tolerances",
        [
            ("check", COB, [], {}),
            ("min-sparsity", COB, ["--rank-rtol", "1e-10"], {"rank_rtol": 1e-10}),
            ("oracle", COB, ["--samples", "4", "--tol", "1e-7"],
             {"eig_imag_tol": 1e-7, "ineq_tol": 1e-7}),
            ("decompose", COB_T, [], {}),
            ("verify-cert", COB_T, ["--cert", "{cert}"], {}),
        ],
    )
    def test_file_commands_share_one_envelope(self, cert_file, command, path, options, tolerances):
        options = [value.format(cert=cert_file) for value in options]
        report, code = run_command([command, path, *options])
        assert code == 0
        assert set(report) == ENVELOPE_KEYS
        assert report["command"] == command
        data = Path(path).read_bytes()
        assert report["input_digest"] == hashlib.sha256(data).hexdigest()
        assert report["name"] == json.loads(data)["name"]
        assert report["tolerances"] == Tolerances(**tolerances).to_dict()

    def test_digest_names_the_bytes_parsed(self, tmp_path, monkeypatch):
        # The system file is replaced as soon as it is opened: a second read
        # would digest bytes that were never analysed.
        path = tmp_path / "sys.json"
        first = b'{"name": "first",\r\n "A": [[1.0]], "B": [[1.0]]}\r\n'
        path.write_bytes(first)
        (tmp_path / "next.json").write_bytes(b'{"name": "second", "A": [[2.0]], "B": [[1.0]]}')
        original_open = Path.open

        def open_then_replace(self, *args, **kwargs):
            handle = original_open(self, *args, **kwargs)
            if self == path and (tmp_path / "next.json").exists():
                os.replace(tmp_path / "next.json", path)
            return handle

        monkeypatch.setattr(Path, "open", open_then_replace)
        report, code = run_command(["check", str(path)])
        assert code == 0
        assert report["name"] == "first"
        assert report["input_digest"] == hashlib.sha256(first).hexdigest()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", COB, "--pretty"],
            ["decompose", COB],
            ["gen", "--kind", "planted_rank_deficient", "--n", "4", "--m", "3", "--seed", "1"],
        ],
        ids=["check", "decompose", "gen"],
    )
    def test_stdout_is_written_by_dump_system_file(self, capsys, argv):
        # One writer for every document: sorted keys, two-space indent and a
        # trailing newline, as dump_system_file writes it.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == dump_system_file(json.loads(out))
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_gen_returns_only_the_system_file(self):
        report, code = run_command(
            ["gen", "--kind", "random_nonsingular_paired", "--n", "2", "--m", "2", "--seed", "0"]
        )
        assert code == 0
        assert set(report) == {"system_file"}


class TestParserReuse:
    """The parser is built once per process, so no option may leak into the next call."""

    def test_check_options_do_not_leak(self, tmp_path):
        data = json.loads(Path(COB).read_text())
        path = tmp_path / "no_s.json"
        path.write_text(json.dumps({"A": data["A"], "B": data["B"]}))
        calls = [
            (["--s", "1"], "nonneg_sparse"),
            ([], "nonneg"),
            (["--variant", "sparse", "--s", "2"], "sparse"),
            ([], "nonneg"),
        ]
        for options, mode in calls:
            report, _ = run_command(["check", str(path), *options])
            assert report["result"]["mode"] == mode

    def test_oracle_options_do_not_leak(self):
        first, _ = run_command(["oracle", COB, "--samples", "4", "--no-axes"])
        second, _ = run_command(["oracle", COB, "--samples", "4"])
        assert first["result"]["config"]["include_axes"] is False
        assert second["result"]["config"]["include_axes"] is True


BAD_INPUTS = ["missing", "missing_brace", "directory", "not_utf8", "malformed", "array"]


def bad_input(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "missing_brace":
        return '{"A": [[1]], "B": [[1]]}'  # a missing path, never JSON text
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'{"A": [[1]], "B": [[1]], "name": "\xff"}')
    elif kind == "malformed":
        path.write_text('{"A": [[1]], ')
    elif kind == "array":
        path.write_text("[[1]]")
    return str(path)


class TestExitCodeContract:
    """Every unusable input exits 1 with empty stdout and one "error:" line on stderr."""

    @pytest.mark.parametrize("kind", BAD_INPUTS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{bad}"],
            ["min-sparsity", "{bad}"],
            ["oracle", "{bad}"],
            ["decompose", "{bad}"],
            ["verify-cert", "{bad}", "--cert", "{cert}"],
            ["verify-cert", COB_T, "--cert", "{bad}"],
        ],
        ids=["check", "min-sparsity", "oracle", "decompose", "verify-cert", "verify-cert-cert"],
    )
    def test_unusable_input_exits_one(self, capsys, tmp_path, cert_file, argv, kind):
        bad = bad_input(tmp_path, kind)
        argv = [arg.format(bad=bad, cert=cert_file) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["check"],
            ["check", COB, "--s", "abc"],
            ["zzz"],
            ["check", COB, "--variant", "zzz"],
            ["check", COB, "--bogus"],
            ["oracle", COB, "--s", "1", "--seed", "-1"],
            ["gen", "--kind", "planted_rank_deficient", "--n", "3", "--m", "2", "--seed", "-1"],
            ["gen", "--kind", "planted_rank_deficient", "--n", "3", "--m", "2", "--seed", "1",
             "--pretty"],
            ["gen", "--kind", "planted_rank_deficient", "--n", "3", "--m", "2", "--seed", "1",
             "--tol", "0.5"],
            ["gen", "--kind", "planted_rank_deficient", "--n", "3", "--m", "2", "--seed", "1",
             "--rank-rtol", "0.1"],
        ],
        ids=[
            "no-command",
            "no-file",
            "bad-int",
            "unknown-command",
            "bad-choice",
            "unknown-option",
            "negative-seed",
            "gen-negative-seed",
            "gen-pretty",
            "gen-tol",
            "gen-rank-rtol",
        ],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out

