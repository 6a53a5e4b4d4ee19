import collections
import itertools
import json
import warnings

import numpy as np
import pytest
from helpers import canonical_column, count_cone_solves, ladder_cones

from nnscontrol import DEFAULT_TOL, InputError, NumericError, oracle
from nnscontrol.controllability import (
    SystemPair,
    certificate_direction,
    check_nonneg,
    check_nonneg_sparse,
)
from nnscontrol.conelp import feasible_nonneg_solution
from nnscontrol.fixtures import change_of_basis_system, change_of_basis_transformed
from nnscontrol.generators import KINDS, generate_system
from nnscontrol.oracle import (
    OracleConfig,
    OracleVerdict,
    _guard_sequences,
    _powers_times_b,
    _probe_directions,
    _sequence_cone_ladder,
    _sweep_coverage,
    _valid_separators,
    coverage_probe,
    direction_uncovered,
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
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_boolean_sparsity(self, flag):
        with pytest.raises(InputError, match="must be an integer"):
            coverage_probe(COB, flag)

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


class TestRecordEquality:
    def test_reports_and_verdicts_of_one_pair(self):
        # The report carries a certificate and the verdict its uncovered
        # directions, both arrays: == compares the records without raising,
        # and the two runs agree value for value.
        sys = SystemPair(A=np.array([[0.0, 0.0], [1.0, 0.0]]), B=np.array([[1.0], [0.0]]))
        reports = (check_nonneg(sys), check_nonneg(sys))
        verdicts = (coverage_probe(sys, 1), coverage_probe(sys, 1))
        assert reports[0].condition_ii.certificate is not None
        assert verdicts[0].outcome == "uncovered" and verdicts[0].uncovered_directions
        for first, second in (reports, verdicts):
            assert isinstance(first == second, bool)
            assert first == first
            assert first.to_dict() == second.to_dict()


class TestRandomRollout:
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

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")],
    )
    def test_bad_seed_is_an_input_error(self, seed, message):
        with pytest.raises(InputError) as excinfo:
            random_rollout(COB, 1, 2, seed=seed)
        assert str(excinfo.value) == message


class TestVectorInputs:
    """The oracle's vectors go through ``as_vector`` under their own names."""

    @pytest.mark.parametrize(
        "value, message",
        [
            (["a", 0.0, 0.0], "^direction entry 1 is not a number: 'a'$"),
            ([np.nan, 0.0, 0.0], "^direction entry 1 is not finite$"),
            ([1.0, 0.0], r"^direction must have length 3, got shape \(2,\)$"),
        ],
    )
    def test_direction(self, value, message):
        with pytest.raises(InputError, match=message):
            direction_uncovered(COB, 1, value)

    @pytest.mark.parametrize(
        "value, message",
        [
            (["a", 0.0, 0.0], "^x entry 1 is not a number: 'a'$"),
            ([0.0, np.inf, 0.0], "^x entry 2 is not finite$"),
            ([1.0, 0.0], r"^x must have length 3, got shape \(2,\)$"),
        ],
    )
    def test_target(self, value, message):
        with pytest.raises(InputError, match=message):
            reachable_membership(COB, 1, 2, value)


HORIZON_CALLS = {
    "reachable_membership": lambda k: reachable_membership(COB, 1, k, [1.0, 1.0, 0.0]),
    "random_rollout": lambda k: random_rollout(COB, 2, k, seed=5),
    "direction_uncovered": lambda k: direction_uncovered(COB_T, 1, [0.0, 0.0, 1.0], k_max=k),
}


class TestIntegerParameters:
    """Counts and horizons must be integers: numpy integers are accepted,
    bools and floats are refused with an InputError."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k_max", True, "k_max must be an integer, got True"),
            ("k_max", 2.5, "k_max must be an integer, got 2.5"),
            ("k_max", 0, "k_max must be >= 1, got 0"),
            ("n_directions", 3.0, "n_directions must be an integer, got 3.0"),
            ("n_directions", 0, "n_directions must be >= 1, got 0"),
            ("seed", False, "seed must be an integer, got False"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("include_axes", "no", "include_axes must be a bool, got 'no'"),
            ("include_axes", 1, "include_axes must be a bool, got 1"),
            ("include_axes", None, "include_axes must be a bool, got None"),
        ],
    )
    def test_config_rejects(self, field, value, message):
        with pytest.raises(InputError) as excinfo:
            OracleConfig(**{field: value})
        assert str(excinfo.value) == message

    def test_config_accepts_numpy_integers(self):
        cfg = OracleConfig(k_max=np.int64(3), n_directions=np.int32(4), seed=np.uint8(7))
        assert cfg == OracleConfig(k_max=3, n_directions=4, seed=7)
        assert json.dumps(cfg.to_dict()) == json.dumps(OracleConfig(3, 4, 7).to_dict())

    @pytest.mark.parametrize("flag", (np.True_, np.False_, True, False))
    def test_config_stores_include_axes_as_bool(self, flag):
        cfg = OracleConfig(include_axes=flag)
        assert cfg.include_axes is bool(flag)
        assert json.loads(json.dumps(cfg.to_dict()))["include_axes"] is bool(flag)

    @pytest.mark.parametrize(
        "k, message",
        [
            (2.5, "horizon must be an integer, got 2.5"),
            (True, "horizon must be an integer, got True"),
            (0, "horizon must be >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("call", HORIZON_CALLS.values(), ids=HORIZON_CALLS)
    def test_horizon_rejects(self, call, k, message):
        with pytest.raises(InputError) as excinfo:
            call(k)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("call", HORIZON_CALLS.values(), ids=HORIZON_CALLS)
    def test_horizon_accepts_numpy_integer(self, call):
        np.testing.assert_equal(call(np.int64(3)), call(3))


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
                key = canonical_column(block[:, j])
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


def assert_ladder_matches_product(sys, s, horizons):
    """Each horizon of the ladder holds the product enumeration's cones, cone
    by cone: in its order, one distinct key per cone, the same generator
    bytes, NaN padding after them. Returns the keys of each horizon."""
    supports = enumerate_supports(sys.m, s)
    blocks = _powers_times_b(sys, horizons)
    ladder = list(_sequence_cone_ladder(sys, supports, blocks))
    assert len(ladder) == horizons
    for k, (keys, stack) in enumerate(ladder, start=1):
        expected = list(product_sequence_cones(sys, supports, k, blocks).values())
        assert len(set(keys)) == len(keys) == len(expected)
        assert stack.shape == (len(keys), sys.n, max(g.shape[1] for g in expected))
        for cone, generators in zip(stack, expected):
            width = generators.shape[1]
            assert cone[:, :width].tobytes() == generators.tobytes()
            assert np.isnan(cone[:, width:]).all()
    return [keys for keys, _ in ladder]


SHIFT = SystemPair(A=np.eye(3, k=1), B=np.eye(3))  # nilpotent: key sets recur
ZERO_B = SystemPair(A=np.eye(2), B=np.zeros((2, 2)))  # one cone of width 0 per horizon
# At s = 1 the support {0} picks only the zero column: an all-NaN cone.
ZERO_COLUMN = SystemPair(A=np.eye(2), B=np.array([[0.0, 1.0, 2.0], [0.0, 3.0, -1.0]]))


class TestSequenceConeLadder:
    @pytest.mark.parametrize(
        "sys, s",
        [
            (COB, 2),
            (COB_T, 2),
            (SCALAR_FLIP, 1),
            (SHIFT, 2),
            (generate_system("planted_rank_deficient", 3, 4, 0).system, 2),
            (ZERO_B, 1),
            (ZERO_COLUMN, 1),
        ],
        ids=["cob", "cob_t", "scalar_flip", "shift", "generated", "zero_b", "zero_column"],
    )
    def test_matches_product_enumeration(self, sys, s):
        assert_ladder_matches_product(sys, s, 4)

    def test_keys_longer_than_a_machine_word(self):
        # 66 distinct canonical columns over three horizons: each key packs
        # 66 bits, so it spans two 64-bit words.
        sys = generate_system("random_nonsingular_paired", 3, 22, 0).system
        blocks = _powers_times_b(sys, 3)
        assert len({canonical_column(b[:, j]) for b in blocks for j in range(22)}) == 66
        keys = assert_ladder_matches_product(sys, 1, 3)
        assert {len(key) for key in keys[-1]} == {9}

    @pytest.mark.parametrize("seed", range(8))
    def test_keys_match_the_per_column_reference(self, seed):
        # Seeded random columns at scales 1e-8, 1 and 1e8, two of them zero
        # and one a positive multiple of another: the ladder keys them all at
        # once, the product enumeration one column at a time.
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((3, 9)) * 10.0 ** rng.choice([-8, 0, 8], size=9)
        b[:, 1 + rng.choice(7, size=2, replace=False)] = 0.0
        b[:, 8] = 3.0 * b[:, 0]
        sys = SystemPair(A=rng.standard_normal((3, 3)), B=b)
        assert_ladder_matches_product(sys, 1, 3)
        assert_ladder_matches_product(sys, 2, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_padded_columns_match_stable_argsort(self, seed):
        # Random boolean rows, with an empty and a full one among them, and a
        # grid with no True entry at all: one np.nonzero lists each row's
        # columns as the stable argsort of its negation did.
        rng = np.random.default_rng(seed)
        for rows in (rng.uniform(size=(40, 13)) < rng.uniform(), np.zeros((3, 5), dtype=bool)):
            if rows.any():
                rows[rng.choice(len(rows), size=2, replace=False)] = [[False], [True]]
            sizes = rows.sum(axis=1)
            index = np.argsort(~rows, axis=1, kind="stable")[:, : sizes.max()]
            index[np.arange(sizes.max()) >= sizes[:, None]] = 99
            padded = oracle._padded_columns(rows, 99)
            assert (padded.dtype, padded.shape) == (index.dtype, index.shape)
            assert padded.tolist() == index.tolist()

    @pytest.mark.parametrize("s", (1, 2))
    def test_recurring_key_sets_keep_their_key(self, s):
        # SHIFT's powers repeat columns (A e2 = e1, A^2 e3 = e1), so one set of
        # generators is a cone at several horizons: it has one key at all of
        # them, and no two sets share a key.
        ladder = _sequence_cone_ladder(SHIFT, enumerate_supports(3, s), _powers_times_b(SHIFT, 4))
        horizons_of = collections.defaultdict(set)
        cone_of = collections.defaultdict(set)
        for k, (keys, stack) in enumerate(ladder, start=1):
            for key, generators in ladder_cones(keys, stack).items():
                cone = (generators.shape, generators.tobytes())
                horizons_of[cone].add(k)
                cone_of[cone].add(key)
        assert all(len(keys) == 1 for keys in cone_of.values())
        assert len(set.union(*cone_of.values())) == len(cone_of)
        assert max(len(horizons) for horizons in horizons_of.values()) == 4

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


def lp_sweep_coverage(sys, s, probes, k_max, tol=DEFAULT_TOL):
    """Reference: the coverage sweep that settles every membership question
    with an LP, as (first covering horizon or None, survivors, LP count)."""
    supports = enumerate_supports(sys.m, s)
    uncovered = list(range(len(probes)))
    lp_count = 0
    blocks = _powers_times_b(sys, k_max)
    ladder = _sequence_cone_ladder(sys, supports, blocks)
    cones = []
    outside = set()
    for k in range(1, k_max + 1):
        relaxation = np.hstack([blocks[k - step - 1] for step in range(k)])
        survivors = []
        for idx in uncovered:
            probe = probes[idx]
            lp_count += 1
            if not feasible_nonneg_solution(relaxation, probe, tol).member:
                survivors.append(idx)
                continue
            if s == sys.m:
                continue
            if len(cones) < k:
                _guard_sequences(supports, k)
                cones.extend(ladder_cones(*h) for h in itertools.islice(ladder, k - len(cones)))
            for key, generators in cones[k - 1].items():
                if (idx, key) in outside:
                    continue
                lp_count += 1
                if feasible_nonneg_solution(generators, probe, tol).member:
                    break
                outside.add((idx, key))
            else:
                survivors.append(idx)
        uncovered = survivors
        if not uncovered:
            return k, [], lp_count
    return None, uncovered, lp_count


def lp_coverage_probe(sys, s, cfg):
    probes = _probe_directions(sys.n, cfg)
    covered_at, uncovered, lp_count = lp_sweep_coverage(sys, s, probes, cfg.k_max)
    if covered_at is not None:
        return OracleVerdict(outcome="covered_at", k_used=covered_at, lp_count=lp_count)
    return OracleVerdict(
        outcome="uncovered",
        k_used=cfg.k_max,
        lp_count=lp_count,
        uncovered_directions=tuple(probes[idx] for idx in uncovered),
    )


def assert_sweep_matches_lp_reference(sys, s, cfg):
    verdict = coverage_probe(sys, s, cfg)
    expected = lp_coverage_probe(sys, s, cfg)
    assert json.dumps(verdict.to_dict()) == json.dumps(expected.to_dict())
    directions = [np.eye(sys.n)[0], -np.ones(sys.n) / np.sqrt(sys.n)]
    report = check_nonneg_sparse(sys, s)
    if report.certificate is not None:
        directions.append(certificate_direction(report.certificate))
    for direction in directions:
        expected_uncovered = lp_sweep_coverage(sys, s, [direction], 6)[0] is None
        assert direction_uncovered(sys, s, direction) == expected_uncovered


SWEEP_CONFIG = OracleConfig(n_directions=16, seed=2024)


def returned_separators(solves):
    """The separators the solves returned, at unit max modulus, as bytes."""
    return [
        (result.separator / np.abs(result.separator).max()).tobytes()
        for _, result in solves
        if not result.member
    ]


def solve_widths(solves):
    """The generator count of each solve."""
    return [generators.shape[1] for generators, _ in solves]


def watched_validity(monkeypatch):
    """Wrap the cone solves and the oracle's validity decisions. Returns the
    list of (generators, result) of the solves, the list of decision calls
    and the list of decided (separator, cone) pairs, as bytes."""
    solves = count_cone_solves(monkeypatch)
    valid_separators = oracle._valid_separators
    decisions, pairs = [], []

    def watched_decision(separators, stack, floors):
        decisions.append(len(separators))
        pairs.extend(
            (w.tobytes(), cone[:, ~np.isnan(cone[0])].tobytes())
            for w in separators
            for cone in stack
        )
        return valid_separators(separators, stack, floors)

    monkeypatch.setattr(oracle, "_valid_separators", watched_decision)
    return solves, decisions, pairs


def assert_decided_once(returned, pairs):
    """Each (separator, cone) pair is decided at most once per solve that
    returned that separator."""
    times = collections.Counter(returned)
    for (w, _), count in collections.Counter(pairs).items():
        assert count <= times[w]


class TestSeparatorReuse:
    """Stored Farkas hyperplanes and simplicial bases settle questions
    exactly as the LP would."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_systems(self, kind, n, m, seed):
        sys = generate_system(kind, n, m, seed).system
        for s in range(1, m + 1):
            assert_sweep_matches_lp_reference(sys, s, SWEEP_CONFIG)

    @pytest.mark.parametrize("n", (4, 5))
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_larger_systems(self, kind, n):
        sys = generate_system(kind, n, 3, 0).system
        for s in range(1, 4):
            assert_sweep_matches_lp_reference(sys, s, OracleConfig(n_directions=4, seed=2024))

    @pytest.mark.parametrize(
        "sys", [COB, COB_T, SCALAR_FLIP, SHIFT], ids=["cob", "cob_t", "scalar_flip", "shift"]
    )
    def test_fixtures(self, sys):
        for s in range(1, sys.m + 1):
            assert_sweep_matches_lp_reference(sys, s, OracleConfig(seed=1))

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_column_gives_the_empty_cone(self, seed):
        # At s = 1 the support {0} picks only the zero column, so the first
        # horizon's cone for it has no generators.
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((3, 3))
        b[:, 0] = 0.0
        sys = SystemPair(A=rng.standard_normal((3, 3)), B=b)
        assert_sweep_matches_lp_reference(sys, 1, OracleConfig(n_directions=8, seed=seed))

    def test_member_within_feas_tol_is_not_rejected(self):
        # A flat cone in R^3 spanned by two nearly opposite generators. The
        # first probe's LP yields the separator w = e3, and the second probe
        # has w^T p < 0 but is a member within the LP's feas_tol.
        sys = SystemPair(A=np.eye(3), B=np.array([[1.0, -1.0], [0.0, 1e-3], [0.0, 0.0]]))
        below = np.array([0.0, 0.0, -1.0])
        edge = np.array([1.0, 0.0, -5e-9])
        w = feasible_nonneg_solution(sys.B, below).separator
        assert w @ edge < 0
        assert feasible_nonneg_solution(sys.B, edge).member
        for s in (1, 2):
            result = _sweep_coverage(sys, s, [below, edge], 3, DEFAULT_TOL)
            assert result == lp_sweep_coverage(sys, s, [below, edge], 3)
            assert result[1] == [0]

    def test_basis_settles_probes_in_its_simplicial_cone(self, monkeypatch):
        # cone(B) is the upper half-plane. The first probe's solve ends on
        # the basis {e1, e2}, which then settles the probe on its face
        # (coefficients (0, 1), one exactly 0) without a solve. The others
        # have a negative coefficient on every stored basis, so each is
        # solved: one just outside {e1, e2} but inside cone(B), one outside
        # cone(B) within feas_tol (a member), one outside by more.
        sys = SystemPair(A=np.eye(2), B=np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]]))
        probes = [
            np.array([1.0, 1.0]) / np.sqrt(2.0),
            np.array([0.0, 1.0]),
            np.array([-1e-9, 1.0]),
            np.array([1.0, -1e-9]),
            np.array([1.0, -1e-6]),
        ]
        expected = lp_sweep_coverage(sys, 3, probes, 1)
        calls = count_cone_solves(monkeypatch)
        assert _sweep_coverage(sys, 3, probes, 1, DEFAULT_TOL) == expected
        assert expected == (None, [4], 5)
        assert len(calls) == 4

    def test_no_basis_below_full_rank(self, monkeypatch):
        # A flat cone in R^3: every member has at most two positive
        # coefficients, so no basis is stored and every question is solved.
        sys = SystemPair(A=np.eye(3), B=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        probes = [np.array([1.0, t, 0.0]) / np.hypot(1.0, t) for t in (0.0, 0.5, 1.0, 2.0)]
        expected = lp_sweep_coverage(sys, 2, probes, 2)
        calls = count_cone_solves(monkeypatch)
        assert _sweep_coverage(sys, 2, probes, 2, DEFAULT_TOL) == expected
        assert expected == (1, [], 4)
        assert len(calls) == 4

    def test_heavy_tail_lp_guard(self, monkeypatch):
        # The acceptance suite's costliest system: 11,598 membership
        # questions, nearly all settled by reused hyperplanes or an earlier
        # horizon's relaxation, with 40 solves (51 while every relaxation
        # question was asked afresh). A hyperplane valid at every horizon is
        # stored at horizon 1, so no whole-space question is asked. No key
        # set recurs across horizons here, so each (separator, cone)
        # validity is decided at most once in the sweep, and the grid of
        # open questions is updated once per solve (each returned separator
        # is decided against it once), not once per question.
        calls, decisions, pairs = watched_validity(monkeypatch)
        sys = generate_system("planted_uncontrollable_ii", 3, 4, 0).system
        verdict = coverage_probe(sys, 1, OracleConfig(seed=2024))
        assert verdict.lp_count == 11598
        assert len(calls) <= 40
        returned = returned_separators(calls)
        assert_decided_once(returned, pairs)
        # One decision per separator a solve returns, plus one decision of
        # the stored separators per grid: two grids (the relaxation, the
        # sequence cones) per horizon, six horizons.
        assert len(decisions) <= len(returned) + 2 * 6

    @pytest.mark.parametrize(
        "sys, s",
        [(SHIFT, 1), (SHIFT, 2), (generate_system("planted_rank_deficient", 3, 3, 0).system, 1)],
        ids=["shift-s1", "shift-s2", "generated"],
    )
    def test_recurring_cones_decided_once_per_grid(self, monkeypatch, sys, s):
        # Key sets recur across horizons here. Each grid decides its cones
        # afresh against the stored separators, and against each separator a
        # solve in it returns, so a pair is decided at most once per grid
        # for each solve that returned its separator.
        solves, _, pairs = watched_validity(monkeypatch)
        settle = oracle._Witnesses.settle

        def watched_settle(witnesses, *args):
            start = len(pairs)
            found = settle(witnesses, *args)
            assert_decided_once(returned_separators(solves), pairs[start:])
            return found

        monkeypatch.setattr(oracle._Witnesses, "settle", watched_settle)
        verdict = coverage_probe(sys, s, OracleConfig(seed=2024))
        assert verdict.lp_count == lp_coverage_probe(sys, s, OracleConfig(seed=2024)).lp_count

    def test_grids_without_new_cones(self, monkeypatch):
        # A e2 = e1 and A^2 = 0, so every block past A B is zero and each
        # horizon from 3 on has horizon 2's cones: cone(e1, e2), cone(e1, e3),
        # cone(e2) and cone(e3). The probe (1, 1, 1) lies in the relaxation,
        # the first orthant, and in none of them, so it is asked about them
        # again at every later horizon, in grids that bring no new cone.
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        sys = SystemPair(A=a, B=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        probes = list(_probe_directions(3, SWEEP_CONFIG)) + [np.ones(3) / np.sqrt(3.0)]
        expected = lp_sweep_coverage(sys, 1, probes, 6)
        settle = oracle._Witnesses.settle
        grown = []

        def watched_settle(witnesses, rows, keys, stack):
            before = witnesses.outside.shape[1]
            found = settle(witnesses, rows, keys, stack)
            grown.append((len(keys), witnesses.outside.shape[1] - before))
            return found

        monkeypatch.setattr(oracle._Witnesses, "settle", watched_settle)
        result = _sweep_coverage(sys, 1, probes, 6, DEFAULT_TOL)
        assert result == expected
        assert result[0] is None and len(probes) - 1 in result[1]
        assert grown[-4:] == [(4, 0)] * 4

    def test_valid_separators(self):
        # A cone with no generators, padded or of width 0, is valid for every
        # separator; cone(e1, e2) only for those with w >= 0 on both.
        # The floors are -tau max|G_c|: -0 for no generators, -tau for cone(e1, e2).
        separators = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        stack = np.full((2, 2, 2), np.nan)
        stack[1] = np.eye(2)
        floors = -oracle._SEPARATOR_TAU * np.array([0.0, 1.0])
        valid = _valid_separators(separators, stack, floors)
        assert valid.tolist() == [[True, True], [True, False], [True, False]]
        assert _valid_separators(separators, np.zeros((1, 2, 0)), -np.zeros(1)).all()

    def test_controllable_solve_guard(self, monkeypatch):
        # A covered system: 210 membership questions, most of them members
        # settled by a stored basis, an earlier horizon's relaxation or a
        # relaxation that spans R^3 positively (7 solves; 14 while each
        # relaxation question was asked in its grid, 142 before bases were
        # kept).
        sys = generate_system("random_nonsingular_paired", 3, 4, 0).system
        expected = lp_coverage_probe(sys, 2, OracleConfig(seed=2024))
        calls = count_cone_solves(monkeypatch)
        verdict = coverage_probe(sys, 2, OracleConfig(seed=2024))
        assert verdict.lp_count == expected.lp_count == 210
        assert len(calls) <= 7

    def test_earlier_relaxation_settles_without_a_solve(self, monkeypatch):
        # The probe lies in cone(B), the horizon-1 relaxation, but in neither
        # one-column sequence cone; cone(B) lies inside [A B | B], so the
        # horizon-2 relaxation question is counted as asked and answered
        # "member", and no solve sees its four columns.
        turn = np.pi / 6
        rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        sys = SystemPair(A=rotation, B=np.eye(2))
        probes = [np.array([1.0, 1.0]) / np.sqrt(2.0)]
        expected = lp_sweep_coverage(sys, 1, probes, 2)
        solves = count_cone_solves(monkeypatch)
        result = _sweep_coverage(sys, 1, probes, 2, DEFAULT_TOL)
        assert result == expected
        assert result[0] == 2
        assert 2 in solve_widths(solves) and 4 not in solve_widths(solves)


def rotation(degrees):
    turn = np.radians(degrees)
    return np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])


def unit(degrees):
    return rotation(degrees)[:, 0]


def watched_sweep(monkeypatch):
    """Wrap the cone solves and the oracle's grids and whole-space rule.
    Returns the (generators, result) of the solves, the (keys, rows) of each
    grid, and the (rows, fits) of each whole-space answer, as lists."""
    solves = count_cone_solves(monkeypatch)
    settle, spanned = oracle._Witnesses.settle, oracle._Witnesses.spanned
    grids, spans = [], []

    def watched_settle(witnesses, rows, keys, stack):
        grids.append((list(keys), rows.tolist()))
        return settle(witnesses, rows, keys, stack)

    def watched_spanned(witnesses, rows, relaxation):
        fits = spanned(witnesses, rows, relaxation)
        spans.append((rows.tolist(), fits.tolist()))
        return fits

    monkeypatch.setattr(oracle._Witnesses, "settle", watched_settle)
    monkeypatch.setattr(oracle._Witnesses, "spanned", watched_spanned)
    return solves, grids, spans


class TestKnownOutside:
    """A stored separator valid for the widest relaxation, against the
    least negative floor, answers "outside" at every later horizon."""

    def test_separator_valid_for_every_block_keeps_its_probe_out(self, monkeypatch):
        # cone(B) is the first quadrant and A shears it upwards: w = (1, 1),
        # the separator of the third-quadrant probe at horizon 1, has
        # w^T A^j B >= 0 for every block. That probe never enters a later
        # relaxation grid, and no solve sees the 4 or 6 relaxation columns;
        # the other probe is covered at horizon 2 by a sequence cone.
        sys = SystemPair(A=np.array([[1.0, 0.0], [1.0, 1.0]]), B=np.eye(2))
        probes = [unit(225), np.array([1.0, 2.0]) / np.sqrt(5.0)]
        expected = lp_sweep_coverage(sys, 1, probes, 3)
        solves, grids, spans = watched_sweep(monkeypatch)
        assert _sweep_coverage(sys, 1, probes, 3, DEFAULT_TOL) == expected
        assert expected[:2] == (None, [0])
        assert grids[0] == ([1], [0, 1])
        assert [rows for keys, rows in grids if keys in ([2], [3])] == []
        assert 4 not in solve_widths(solves) and 6 not in solve_widths(solves)
        assert spans == []

    def test_separator_valid_only_at_first_returns_to_the_grid(self, monkeypatch):
        # B = (1, 1) and A reflects it to (1, -1). The horizon-1 separator of
        # the probe -e2 is w = e2, valid for cone(B) but not for A B, so at
        # horizon 2 the probe is asked in the relaxation grid again and
        # solved. That solve's separator (1, 1) is valid for every block, so
        # at horizon 3 the probe stays out without entering a grid.
        sys = SystemPair(A=np.diag([1.0, -1.0]), B=np.array([[1.0], [1.0]]))
        probes = [np.array([0.0, -1.0])]
        expected = lp_sweep_coverage(sys, 1, probes, 3)
        solves, grids, _ = watched_sweep(monkeypatch)
        assert _sweep_coverage(sys, 1, probes, 3, DEFAULT_TOL) == expected
        assert expected == (None, [0], 3)
        assert grids == [([1], [0]), ([2], [0])]
        assert 3 not in solve_widths(solves)


class TestWholeSpace:
    """A relaxation that spans R^n positively holds every probe; one
    Stiemke question finds it, and each probe's witness is checked."""

    def test_one_solve_settles_every_open_probe(self, monkeypatch):
        # Rotations by 120 degrees: the horizon-3 relaxation spans R^2
        # positively, and no horizon-1 separator is valid for it. The
        # Stiemke question of horizon 3 is its only solve, and it settles
        # every probe still open there.
        sys = SystemPair(A=rotation(120), B=np.array([[1.0], [0.0]]))
        probes = _probe_directions(2, SWEEP_CONFIG)
        expected = lp_sweep_coverage(sys, 1, probes, 3)
        solves, grids, spans = watched_sweep(monkeypatch)
        assert _sweep_coverage(sys, 1, probes, 3, DEFAULT_TOL) == expected
        assert expected[0] == 3
        assert solve_widths(solves).count(3) == 1
        rows, fits = spans[-1]
        assert rows and all(fits)
        assert [keys for keys, _ in grids if keys == [3]] == []

    def test_cone_short_of_a_half_plane_falls_back_to_solves(self, monkeypatch):
        # Generators at 0, 90 and 170 degrees, then turned by 5: the
        # horizon-2 relaxation covers 0 to 175 degrees and misses the thin
        # wedge beyond it. The Stiemke question says no, and each open probe
        # is solved: the one at 172.5 degrees is inside, the one at 177.5
        # is not.
        sys = SystemPair(A=rotation(5), B=np.column_stack([unit(0), unit(90), unit(170)]))
        probes = [unit(60), unit(172.5), unit(177.5)]
        expected = lp_sweep_coverage(sys, 3, probes, 2)
        solves, grids, spans = watched_sweep(monkeypatch)
        assert _sweep_coverage(sys, 3, probes, 2, DEFAULT_TOL) == expected
        assert expected == (None, [2], 5)
        assert spans == [([1, 2], [False, False])]
        assert grids[-1] == ([2], [1, 2])
        assert solve_widths(solves).count(6) == 3

    def test_witness_failing_the_residual_test_goes_to_settle(self, monkeypatch):
        # The horizon-2 relaxation has columns (-1, 9e-9), (0, -eps), (1, 0)
        # and (0, eps): G 1 = (0, 9e-9) is within the solver's tolerance, so
        # the Stiemke question is answered with y = 1 and G y is not 0. The
        # probe -e1 needs t = 1/2 and passes; -e2 needs t = 1/(2 eps), which
        # leaves a residual of 9e-9 t, and goes to settle, where it is
        # solved and found inside.
        eps = 0.01
        a = np.array([[-1.0, 0.0], [9e-9, -1.0]])
        sys = SystemPair(A=a, B=np.diag([1.0, eps]))
        probes = [np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
        expected = lp_sweep_coverage(sys, 2, probes, 2)
        _, grids, spans = watched_sweep(monkeypatch)
        assert _sweep_coverage(sys, 2, probes, 2, DEFAULT_TOL) == expected
        assert expected == (2, [], 4)
        assert spans == [([0, 1], [True, False])]
        assert grids[-1] == ([2], [1])


def flat_cone_pair():
    """B's columns (1, 0) and (-1, 5e-9) span a wedge just above the
    horizontal axis, and A turns it by -1e-9 rad. The solve of (0, 1)
    against B ends on both columns with a residual above tolerance, so its
    separator is the negated residual (see tests/test_conelp.py)."""
    turn = -1e-9
    a = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return SystemPair(A=a, B=np.array([[1.0, -1.0], [0.0, 5e-9]]))


class TestSpanningPositiveColumns:
    """A solve whose positive columns span R^n returns a nonzero separator,
    which the sweep scales and stores like any other."""

    def test_sweep_matches_reference(self):
        sys = flat_cone_pair()
        probes = [np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([0.0, 1.0])]
        result = _sweep_coverage(sys, 2, probes, 2, DEFAULT_TOL)
        assert result == lp_sweep_coverage(sys, 2, probes, 2)
        assert result == (None, [1, 2], 5)

    def test_coverage_probe_completes(self):
        # Under the suite's warnings-as-errors: a zero separator would warn
        # when scaled to unit max modulus. The default probes are not
        # compared with lp_sweep_coverage here: on this cone, with condition
        # number 4e8, some probes pass the member test at G_P^{-1} p but not
        # at the solver's own u.
        verdict = coverage_probe(flat_cone_pair(), 2, OracleConfig(k_max=2))
        assert (verdict.outcome, verdict.k_used) == ("uncovered", 2)
        assert any((d == [0.0, -1.0]).all() for d in verdict.uncovered_directions)

    def test_disagreements_are_members_the_reference_misses(self):
        # Where the sweep and the solve-every-question reference differ on
        # this cone, the sweep covers the probe and B^{-1} p >= 0: the probe
        # is in cone(B), and the reference's solver is the one that misses
        # it. The counts are not pinned, so a better solver still passes.
        sys = flat_cone_pair()
        probes = _probe_directions(2, OracleConfig(k_max=2))
        swept = set(_sweep_coverage(sys, 2, probes, 2, DEFAULT_TOL)[1])
        reference = set(lp_sweep_coverage(sys, 2, probes, 2)[1])
        assert swept <= reference
        missed = sorted(reference - swept)
        assert (np.linalg.solve(sys.B, probes[missed].T) >= 0.0).all()


def assert_order_free(sys, s, probes, seed):
    """A permuted probe list permutes the survivors and keeps the covering
    horizon and the question count, and both match the LP reference."""
    order = np.random.default_rng(seed).permutation(len(probes))
    covered_at, survivors, lp_count = _sweep_coverage(sys, s, probes, 6, DEFAULT_TOL)
    permuted = _sweep_coverage(sys, s, probes[order], 6, DEFAULT_TOL)
    assert permuted == lp_sweep_coverage(sys, s, probes[order], 6)
    assert permuted[0] == covered_at and permuted[2] == lp_count
    assert sorted(order[permuted[1]].tolist()) == survivors


class TestProbeOrder:
    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_systems(self, kind, n, m):
        sys = generate_system(kind, n, m, 1).system
        probes = _probe_directions(n, SWEEP_CONFIG)
        for s in range(1, m + 1):
            assert_order_free(sys, s, probes, seed=s)

    def test_heavy_tail(self):
        sys = generate_system("planted_uncontrollable_ii", 3, 4, 0).system
        assert_order_free(sys, 1, _probe_directions(3, OracleConfig(seed=2024)), seed=0)


class TestProbeMemo:
    @pytest.mark.parametrize(
        "seed, n, n_directions, include_axes",
        [(0, 1, 1, True), (0, 3, 64, True), (7, 2, 5, False), (2024, 4, 16, True)],
    )
    def test_matches_fresh_streams(self, seed, n, n_directions, include_axes):
        cfg = OracleConfig(n_directions=n_directions, seed=seed, include_axes=include_axes)
        fresh = []
        for i in range(n_directions):
            vec = np.random.default_rng([seed, i]).standard_normal(n)
            fresh.append(vec / np.linalg.norm(vec))
        if include_axes:
            for axis in np.eye(n):
                fresh += [axis, -axis]
        probes = _probe_directions(n, cfg)
        assert probes.tobytes() == np.array(fresh).tobytes()
        assert probes.shape == (len(fresh), n)
        assert not probes.flags.writeable
        assert _probe_directions(n, cfg) is probes

    def test_uncovered_directions_are_copies(self):
        cfg = OracleConfig(seed=1)
        first = coverage_probe(COB_T, 1, cfg)
        expected = json.dumps(first.to_dict())
        assert first.uncovered_directions
        first.uncovered_directions[0][:] = 7.0
        assert json.dumps(coverage_probe(COB_T, 1, cfg).to_dict()) == expected


class TestPowerOverflow:
    def test_overflowing_power_is_numeric_failure(self):
        sys = SystemPair(A=np.array([[1e200, 0.0], [0.0, 1.0]]), B=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"A\^2 B overflows"):
                coverage_probe(sys, 1)

    def test_overflowing_whole_space_target_is_numeric_failure(self):
        # The relaxation [1e308, 1e308, -1e308] spans R^1 but its row sum
        # overflows: the whole-space question is refused, not answered on
        # an infinite tolerance.
        relaxation = np.array([[1e308, 1e308, -1e308]])
        witnesses = oracle._Witnesses(np.array([[1.0], [-1.0]]), DEFAULT_TOL, [relaxation])
        with pytest.raises(NumericError, match="target overflows"):
            witnesses.spanned(np.arange(2), relaxation)
