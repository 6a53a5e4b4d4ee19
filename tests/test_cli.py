import json

import numpy as np
import pytest

from nnscontrol.cli import main, run_command
from nnscontrol.controllability import check_sparse
from nnscontrol.fixtures import fixture_path
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
