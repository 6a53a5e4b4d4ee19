import itertools

import numpy as np
import pytest

from nnscontrol import InputError
from nnscontrol.controllability import SystemPair, check_nonneg_sparse
from nnscontrol.fixtures import change_of_basis_system, change_of_basis_transformed
from nnscontrol.generators import generate_system
from nnscontrol.oracle import (
    OracleConfig,
    OracleVerdict,
    _canonical_column,
    _powers_times_b,
    _sequence_cone_ladder,
    coverage_probe,
    enumerate_supports,
    random_rollout,
    reachable_membership,
)

COB = change_of_basis_system()
COB_T = change_of_basis_transformed()

SCALAR_FLIP = SystemPair(A=np.array([[-1.0]]), B=np.array([[1.0]]))
SCALAR_GROW = SystemPair(A=np.array([[1.0]]), B=np.array([[1.0]]))


class TestEnumerateSupports:
    def test_four_choose_two(self):
        assert enumerate_supports(4, 2) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_full_support(self):
        assert enumerate_supports(3, 3) == [(0, 1, 2)]

    def test_singletons(self):
        assert enumerate_supports(2, 1) == [(0,), (1,)]

    def test_guard(self):
        with pytest.raises(InputError):
            enumerate_supports(30, 15)


class TestReachableMembership:
    def test_scalar_flip_two_steps(self):
        # (-1)^1 * 5 + 0 = -5: the first step carries the weight.
        witness = reachable_membership(SCALAR_FLIP, 1, 2, [-5.0])
        assert witness is not None
        sequence, inputs = witness
        total = sum(
            np.linalg.matrix_power(SCALAR_FLIP.A, 2 - j - 1) @ SCALAR_FLIP.B @ u
            for j, u in enumerate(inputs)
        )
        np.testing.assert_allclose(total, [-5.0], atol=1e-8)
        assert all(np.all(u >= -1e-10) for u in inputs)

    def test_nonnegative_sums_cannot_go_negative(self):
        for k in (1, 2, 3):
            assert reachable_membership(SCALAR_GROW, 1, k, [-1.0]) is None

    def test_cob_axis_column(self):
        witness = reachable_membership(COB, 1, 1, [0.0, 0.0, 1.0])
        assert witness is not None
        sequence, inputs = witness
        assert sequence == ((2,),)
        np.testing.assert_allclose(inputs[0], [0, 0, 1, 0], atol=1e-10)

    def test_sequence_guard(self):
        sys = SystemPair(A=np.eye(2), B=np.ones((2, 10)))
        with pytest.raises(InputError):
            reachable_membership(sys, 5, 5, [1.0, 1.0])

    def test_witness_support_size(self):
        # Needs three steps: the two positive axis pushes must come from
        # different steps whose power of A preserves sign.
        witness = reachable_membership(COB, 1, 3, [1.0, 1.0, 0.0])
        assert witness is not None
        _, inputs = witness
        for u in inputs:
            assert np.count_nonzero(u > 1e-10) <= 1
        total = sum(
            np.linalg.matrix_power(COB.A, 3 - j - 1) @ COB.B @ u
            for j, u in enumerate(inputs)
        )
        np.testing.assert_allclose(total, [1.0, 1.0, 0.0], atol=1e-8)


class TestCoverageProbe:
    def test_scalar_flip_covered_at_two(self):
        verdict = coverage_probe(SCALAR_FLIP, 1, OracleConfig(seed=1))
        assert verdict.covered
        assert verdict.k_used == 2

    def test_cob_covered(self):
        verdict = coverage_probe(COB, 1, OracleConfig(seed=1))
        assert verdict.covered
        assert verdict.k_used <= 6

    def test_negated_identity_covered_at_four(self):
        # One negative axis push per horizon step: the third quadrant first
        # becomes reachable when two sign-preserving steps coexist.
        sys = SystemPair(A=-np.eye(2), B=np.eye(2))
        verdict = coverage_probe(sys, 1, OracleConfig(seed=1))
        assert verdict.covered
        assert verdict.k_used == 4

    def test_cob_transformed_uncovered_in_certificate_direction(self):
        verdict = coverage_probe(COB_T, 1, OracleConfig(seed=1))
        assert not verdict.covered
        e3 = np.array([0.0, 0.0, 1.0])
        assert any(
            np.allclose(d, e3, atol=1e-9) for d in verdict.uncovered_directions
        )

    def test_monotone_coverage_in_horizon(self):
        # A probe covered at horizon K stays covered at K + 1.
        rng = np.random.default_rng(12)
        for _ in range(5):
            sys = SystemPair(
                A=rng.integers(-2, 3, size=(2, 2)).astype(float),
                B=rng.integers(-2, 3, size=(2, 2)).astype(float),
            )
            probe = rng.standard_normal(2)
            probe /= np.linalg.norm(probe)
            hit_at = None
            for k in range(1, 5):
                member = reachable_membership(sys, 1, k, probe) is not None
                if hit_at is None and member:
                    hit_at = k
                if hit_at is not None:
                    assert member

    def test_lp_count_reported(self):
        verdict = coverage_probe(SCALAR_FLIP, 1, OracleConfig(seed=1, n_directions=4))
        assert verdict.lp_count > 0


class TestRandomRollout:
    def test_zero_amplitude_gives_zero_state(self):
        x = random_rollout(COB, 1, 5, seed=0, amplitude=0.0)
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_nonnegative_scalar_accumulator(self):
        for seed in range(10):
            assert random_rollout(SCALAR_GROW, 1, 4, seed=seed)[0] >= 0.0

    def test_cob_transformed_rollouts_respect_halfspace(self):
        for seed in range(50):
            x = random_rollout(COB_T, 1, 1 + seed % 10, seed=seed)
            assert x[2] <= 1e-10 * (1 + np.linalg.norm(x))

    def test_deterministic_per_seed(self):
        a = random_rollout(COB, 2, 6, seed=123)
        b = random_rollout(COB, 2, 6, seed=123)
        np.testing.assert_array_equal(a, b)


class TestAgreementWithVerdicts:
    def test_oracle_never_contradicts_certificates(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(8):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            sys = SystemPair(
                A=rng.integers(-2, 3, size=(n, n)).astype(float),
                B=rng.integers(-2, 3, size=(n, m)).astype(float),
            )
            s = int(rng.integers(1, m + 1))
            report = check_nonneg_sparse(sys, s)
            verdict = coverage_probe(sys, s, OracleConfig(seed=2, n_directions=16, k_max=4))
            if report.controllable:
                continue
            checked += 1
            assert not verdict.covered
        assert checked > 0


def product_sequence_cones(sys, supports, k, blocks):
    """Reference: the distinct sequence cones of horizon k from the product of
    all support sequences, in the order the sequences first reach them."""
    column_by_key = {}
    step_keys = []
    for step in range(k):
        block = blocks[k - step - 1]
        per_support = {}
        for sup in supports:
            keys = []
            for j in sup:
                key = _canonical_column(block[:, j])
                if key is None:
                    continue
                keys.append(key)
                column_by_key.setdefault(key, np.frombuffer(key, dtype=float))
            per_support[sup] = frozenset(keys)
        step_keys.append(per_support)
    generators = {}
    for sequence in itertools.product(supports, repeat=k):
        merged = frozenset().union(*(step_keys[step][sup] for step, sup in enumerate(sequence)))
        if merged in generators:
            continue
        ordered = sorted(merged)
        if ordered:
            generators[merged] = np.column_stack([column_by_key[key] for key in ordered])
        else:
            generators[merged] = np.zeros((sys.n, 0))
    return generators


SHIFT = SystemPair(A=np.eye(3, k=1), B=np.eye(3))  # nilpotent: key sets recur


class TestSequenceConeLadder:
    @pytest.mark.parametrize(
        "sys, s",
        [
            (COB, 2),
            (COB_T, 2),
            (SCALAR_FLIP, 1),
            (SHIFT, 2),
            (generate_system("planted_rank_deficient", 3, 4, 0).system, 2),
        ],
        ids=["cob", "cob_t", "scalar_flip", "shift", "generated"],
    )
    def test_matches_product_enumeration(self, sys, s):
        supports = enumerate_supports(sys.m, s)
        blocks = _powers_times_b(sys, 4)
        ladder = list(_sequence_cone_ladder(sys, supports, blocks))
        assert len(ladder) == 4
        for k, cones in enumerate(ladder, start=1):
            expected = product_sequence_cones(sys, supports, k, blocks)
            assert list(cones) == list(expected)
            for key, generators in cones.items():
                assert np.array_equal(generators, expected[key])

    def test_coverage_guard(self):
        # 18 singleton supports: 18^3 = 5,832 sequences pass, 18^4 do not.
        turn = np.pi / 6
        rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        sys = SystemPair(A=rotation, B=np.tile([[1.0], [0.0]], 18))
        with pytest.raises(InputError) as excinfo:
            coverage_probe(sys, 1, OracleConfig(k_max=4))
        assert str(excinfo.value) == (
            "104976 support sequences exceed the guard (100000); lower the horizon or s"
        )
        verdict = coverage_probe(sys, 1, OracleConfig(k_max=3))
        assert verdict.outcome == "uncovered"
        assert verdict.lp_count == 207
