"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them). The
agreement suite of criterion 2 is built once and shared with criterion 3.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from helpers import planted_structure_matrix

from nnscontrol import (
    DEFAULT_TOL,
    KINDS,
    OracleConfig,
    certificate_direction,
    check_nonneg,
    check_nonneg_sparse,
    coverage_probe,
    direction_uncovered,
    generate_system,
    is_positive_spanning_subspace,
    left_eigensystem,
    random_rollout,
    rank,
    sparsify_positive_combination,
    verify_certificate,
    verify_decomposition,
    zero_structure,
)
from nnscontrol.cli import run_command
from nnscontrol.conelp import _stiemke_ray
from nnscontrol.fixtures import fixture_path
from nnscontrol.jordan import build_decomposition
from nnscontrol.systemio import parse_system_file

DEFAULT_ORACLE_SEED = 2024


def report_line(index: int, label: str, passed: bool, note: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {index}: {status} {label}{suffix}")


@dataclass
class SuiteEntry:
    kind: str
    n: int
    m: int
    seed: int
    s: int
    system: object
    report: object
    oracle: object


@pytest.fixture(scope="module")
def agreement_suite():
    """>= 50 generated systems with theorem verdicts and oracle runs."""
    started = time.perf_counter()
    entries = []
    for kind in KINDS:
        for n in (2, 3):
            for m in (2, 3, 4):
                for seed in (0, 1, 2):
                    rng = np.random.default_rng([n, m, seed])
                    s = int(rng.integers(1, m + 1))
                    gen = generate_system(kind, n, m, seed)
                    report = check_nonneg_sparse(gen.system, s)
                    oracle = coverage_probe(
                        gen.system, s, OracleConfig(seed=DEFAULT_ORACLE_SEED)
                    )
                    entries.append(
                        SuiteEntry(kind, n, m, seed, s, gen.system, report, oracle)
                    )
    elapsed = time.perf_counter() - started
    return entries, elapsed


def test_acceptance_1_counterexample_reproduction():
    label = "change-of-basis counterexample reproduction"
    started = time.perf_counter()
    ok = True
    try:
        original = parse_system_file(fixture_path("cob_system.json"))
        transformed = parse_system_file(fixture_path("cob_transformed.json"))

        report_ok = check_nonneg_sparse(original.system, 1)
        assert report_ok.verdict == "controllable"

        report_bad = check_nonneg_sparse(transformed.system, 1)
        assert report_bad.verdict == "uncontrollable"
        cert = report_bad.certificate
        assert cert is not None
        assert verify_certificate(transformed.system, cert).valid
        assert abs(cert.eigenvalue) <= 1e-8
        direction = certificate_direction(cert)
        cosine = abs(direction @ np.array([0.0, 0.0, 1.0]))
        assert cosine >= 1 - 1e-8

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(1, label, ok, f"{time.perf_counter() - started:.2f}s")


def test_acceptance_2_oracle_agreement(agreement_suite):
    label = "oracle agreement over the generated suite"
    entries, build_time = agreement_suite
    ok = True
    started = time.perf_counter()
    try:
        assert len(entries) >= 50
        controllable = [e for e in entries if e.report.controllable]
        uncontrollable = [e for e in entries if not e.report.controllable]
        assert controllable and uncontrollable

        covered = sum(1 for e in controllable if e.oracle.covered)
        assert covered >= 0.9 * len(controllable)
        assert all(e.oracle.k_used <= 6 for e in controllable if e.oracle.covered)

        assert not any(e.oracle.covered for e in uncontrollable)

        for e in uncontrollable:
            cert = e.report.certificate
            assert cert is not None
            direction = certificate_direction(cert)
            assert direction_uncovered(e.system, e.s, direction, k_max=6)

        total = build_time + (time.perf_counter() - started)
        assert total < 300.0
    except AssertionError:
        ok = False
        raise
    finally:
        note = (
            f"{len(entries)} systems, "
            f"{sum(1 for e in entries if e.report.controllable)} controllable, "
            f"{build_time + (time.perf_counter() - started):.1f}s"
        )
        report_line(2, label, ok, note)


def test_acceptance_3_certificate_halfspace_invariance(agreement_suite):
    label = "certificate half-space holds on 1000 rollouts per system"
    entries, _ = agreement_suite
    ok = True
    violations = 0
    systems = 0
    try:
        for e in entries:
            if e.report.controllable:
                continue
            cert = e.report.certificate
            systems += 1
            # A sign witness pins the half-space z^T x <= 0; an orthogonality
            # witness pins the hyperplane z^T x = 0, which also satisfies it.
            z = certificate_direction(cert)
            for i in range(1000):
                k = (i % 10) + 1
                x = random_rollout(e.system, e.s, k, seed=int(1000 * systems + i))
                if z @ x > 1e-8 * (1 + np.linalg.norm(x)):
                    violations += 1
        assert systems > 0
        assert violations == 0
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(3, label, ok, f"{systems} systems, {violations} violations")


def test_acceptance_4_decomposition_suite():
    label = "zero-structure decomposition on 50 planted integer matrices"
    ok = True
    try:
        rng = np.random.default_rng(99)
        for _ in range(50):
            a, _sizes = planted_structure_matrix(rng, max_n=6)
            st = zero_structure(a)
            n_dim = a.shape[0]
            nullity = n_dim - st.rank_sequence[1]
            # Integer identities hold exactly.
            assert sum(st.q_sizes) == nullity
            assert st.q == n_dim - sum((i + 1) * qi for i, qi in enumerate(st.q_sizes))
            assert all(rk <= nullity for rk in st.r_tail)
            assert sum((i + 1) * qi for i, qi in enumerate(st.q_sizes)) + st.q == n_dim

            dec = build_decomposition(a)
            report = verify_decomposition(a, dec)
            failing = [c.name for c in report.checks if not c.passed]
            assert report.all_passed, (a.tolist(), failing)
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(4, label, ok)


def test_acceptance_5_sparsification_suite():
    label = "basic-feasible sparsification on 100 positively spanning sets"
    ok = True
    try:
        rng = np.random.default_rng(1234)
        accepted = 0
        while accepted < 100:
            n = int(rng.integers(1, 5))
            base = rng.standard_normal((n, n))
            z_mat = np.hstack(
                [base, -base @ np.ones((n, 1)), rng.standard_normal((n, 2))]
            )
            if not is_positive_spanning_subspace(z_mat):
                continue
            accepted += 1
            target = z_mat @ rng.uniform(0.0, 1.0, z_mat.shape[1])
            alpha = sparsify_positive_combination(z_mat, target)
            assert np.all(alpha >= -1e-8)
            assert np.count_nonzero(alpha > 1e-8) <= rank(z_mat)
            assert np.abs(z_mat @ alpha - target).max() <= 1e-8 * (
                1 + np.abs(target).max()
            )
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(5, label, ok)


def test_acceptance_6_sparsity_bound_from_input_count():
    label = "nonnegative controllable systems pass at s = m - 1 (25/25)"
    ok = True
    found = 0
    try:
        seed = 0
        while found < 25:
            seed += 1
            kind = ("random_nonsingular_paired", "planted_rank_deficient")[seed % 2]
            n = 2 + seed % 2
            m = 2 + seed % 3
            gen = generate_system(kind, n, m, seed)
            if not check_nonneg(gen.system).controllable:
                continue
            found += 1
            s = max(1, m - 1)
            assert check_nonneg_sparse(gen.system, s).controllable, (kind, n, m, seed)
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(6, label, ok, f"{found} systems")


def test_acceptance_7_nonsingular_sparsity_irrelevance():
    label = "nonsingular A: verdict identical at s = 1 and s = m (25/25)"
    ok = True
    try:
        checked = 0
        seed = 0
        while checked < 25:
            seed += 1
            n = 2 + seed % 2
            m = 2 + seed % 3
            gen = generate_system("random_nonsingular_paired", n, m, seed)
            checked += 1
            low = check_nonneg_sparse(gen.system, 1).verdict
            high = check_nonneg_sparse(gen.system, m).verdict
            assert low == high, (n, m, seed)
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(7, label, ok)


def test_acceptance_8_sign_test_cross_check():
    label = "cone solver agrees with the direct sign test on simple eigenvalues"
    ok = True
    try:
        rng = np.random.default_rng(77)
        agreed = 0
        attempts = 0
        while agreed < 100:
            attempts += 1
            assert attempts < 5000
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            a = rng.integers(-3, 4, size=(n, n)).astype(float)
            b = rng.integers(-3, 4, size=(n, m)).astype(float)
            eig = left_eigensystem(a)
            nonneg = [
                g
                for g in eig.groups
                if g.is_real and g.eigenvalue.real >= -1e-8
            ]
            if not nonneg or any(g.geometric_multiplicity != 1 for g in nonneg):
                continue
            consistent = True
            for g in nonneg:
                z = g.basis[:, 0]
                zb = z @ b
                expected = bool(np.all(zb <= 1e-8) or np.all(-zb <= 1e-8))
                # homogeneous_nonzero itself takes the sign test for one
                # column, so the multi-column routine is called directly.
                ray = _stiemke_ray(b.T @ g.basis, DEFAULT_TOL)
                if (ray is not None) != expected:
                    consistent = False
            assert consistent
            agreed += 1
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(8, label, ok)


def test_acceptance_9_report_determinism():
    label = "byte-identical reports across 10 repetitions"
    ok = True
    try:
        commands = [
            ["check", fixture_path("cob_transformed.json"), "--s", "1"],
            [
                "oracle",
                fixture_path("cob_system.json"),
                "--samples",
                "16",
                "--seed",
                "11",
            ],
        ]
        for argv in commands:
            baseline = None
            for _ in range(10):
                report, code = run_command(list(argv))
                assert code == 0
                report.pop("wall_time_s", None)
                snapshot = json.dumps(report, sort_keys=True).encode()
                if baseline is None:
                    baseline = snapshot
                assert snapshot == baseline
    except AssertionError:
        ok = False
        raise
    finally:
        report_line(9, label, ok)
