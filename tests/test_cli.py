import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nnscontrol.cli import main, run_command
from nnscontrol.controllability import check_sparse
from nnscontrol.fixtures import fixture_path
from nnscontrol.matrixcore import Tolerances
from nnscontrol.systemio import parse_system_file

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


class TestOracle:
    def test_cob_covered(self, capsys):
        code, out, _ = run(capsys, "oracle", COB, "--samples", "16", "--seed", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["outcome"] == "covered_at"
        assert result["k_used"] <= 6

    def test_requires_sparsity(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"A": [[1.0]], "B": [[1.0]]}')
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 1
        assert "sparsity" in err


class TestDecompose:
    def test_cob_structure(self, capsys):
        code, out, _ = run(capsys, "decompose", COB)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["structure"]["n"] == 1
        assert result["structure"]["q"] == 2
        assert result["verification"]["all_passed"] is True


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
    def test_rank_cut_disagreement_is_reported(self, capsys, tmp_path):
        system = rank_cut_disagreement()
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": system.A.tolist(), "B": system.B.tolist()}))
        code, out, _ = run(capsys, "min-sparsity", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {
            "min_sparsity": None,
            "feasible": False,
            "nonneg_controllable": True,
            "reason": "N - rank(A) = 3 exceeds the input dimension m = 2",
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
        ],
        ids=["no-command", "no-file", "bad-int", "unknown-command", "bad-choice", "unknown-option"],
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

