import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import _box_lp_ray, _solve_lp, ladder_cones, reference_nnls

from nnscontrol import (
    DEFAULT_TOL,
    InputError,
    NotInConeError,
    NumericError,
    feasible_nonneg_solution,
    homogeneous_nonzero,
    is_positive_spanning_subspace,
    rank,
    sparsify_positive_combination,
)
from nnscontrol import conelp
from nnscontrol.conelp import membership_tol
from nnscontrol.matrixcore import Tolerances, as_matrix, as_vector
from nnscontrol.generators import generate_system
from nnscontrol.oracle import _powers_times_b, _sequence_cone_ladder, enumerate_supports

# Minimal positive basis of R^2: e1, e2 and -(e1+e2).
Z_MPB = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])

small_ints = st.integers(min_value=-3, max_value=3)


def bf_two_column_solutions(z_mat, z):
    """Oracle: enumerate all 2-column bases and solve the 2x2 systems."""
    solutions = []
    for i, j in itertools.combinations(range(z_mat.shape[1]), 2):
        sub = z_mat[:, [i, j]]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        coeff = np.linalg.solve(sub, z)
        if np.all(coeff >= -1e-12):
            alpha = np.zeros(z_mat.shape[1])
            alpha[[i, j]] = coeff
            solutions.append(alpha)
    return solutions


class TestFeasibleNonnegSolution:
    def test_sign_split(self):
        res = feasible_nonneg_solution(np.array([[1.0, -1.0]]), [-3.0])
        assert res.member
        np.testing.assert_allclose(res.coefficients, [0.0, 3.0], atol=1e-10)

    def test_negative_coordinate_unreachable(self):
        res = feasible_nonneg_solution(np.eye(2), [1.0, -1.0])
        assert not res.member
        assert res.coefficients is None

    def test_cob_input_column(self):
        b = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, -1.0]])
        res = feasible_nonneg_solution(b, [0.0, 0.0, 1.0])
        assert res.member
        np.testing.assert_allclose(res.coefficients, [0, 0, 1, 0], atol=1e-10)

    def test_zero_target_in_empty_cone(self):
        res = feasible_nonneg_solution(np.zeros((2, 0)), np.zeros(2))
        assert res.member
        assert res.coefficients.size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            feasible_nonneg_solution(np.eye(2), [1.0, 2.0, 3.0])

    def test_non_numeric_target(self):
        with pytest.raises(InputError, match="^x entry 1 is not a number: 'a'$"):
            feasible_nonneg_solution(np.eye(2), ["a", "b"])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda r: st.tuples(
                arrays(np.int64, (r, 5), elements=small_ints),
                arrays(np.int64, (r,), elements=small_ints),
            )
        )
    )
    def test_bfs_sparsity_and_residual(self, mx):
        m, x = np.asarray(mx[0], float), np.asarray(mx[1], float)
        res = feasible_nonneg_solution(m, x)
        if res.member:
            u = res.coefficients
            assert np.all(u >= -DEFAULT_TOL.ineq_tol)
            assert np.abs(m @ u - x).max() <= DEFAULT_TOL.ineq_tol * (
                1 + np.abs(x).max(initial=0.0)
            )
            assert np.count_nonzero(u > DEFAULT_TOL.ineq_tol) <= rank(m)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda r: st.tuples(
                arrays(np.int64, (r, 4), elements=small_ints),
                arrays(np.int64, (r,), elements=small_ints),
            )
        )
    )
    def test_farkas_alternative(self, mx):
        # A separating z with z^T M <= 0 and z^T x > 0 must exist exactly
        # when x is not in the cone; skip instances where the homogeneous
        # solver returns a witness on the x-neutral face (inconclusive).
        m, x = np.asarray(mx[0], float), np.asarray(mx[1], float)
        res = feasible_nonneg_solution(m, x)
        witness = homogeneous_nonzero(np.vstack([m.T, -x[None, :]]))
        if witness is None:
            assert res.member or np.abs(x).max(initial=0.0) == 0
            return
        gain = float(x @ witness)
        if gain > 1e-6:
            assert not res.member


def reference_membership(m, x, tol=DEFAULT_TOL):
    """Reference: phase one of the dense simplex, as (member, coefficients,
    residual)."""
    result = _solve_lp(m, x, np.zeros(m.shape[1]), membership_tol(x, tol))
    if result.status == "infeasible":
        return False, None, result.objective
    return True, result.x, float(np.abs(m @ result.x - x).max(initial=0.0))


def degenerate_cone_cases(seed, count):
    """Cones with 1-4 rows and 0-8 columns, with duplicate, zero and opposite
    columns, and targets inside, outside and on their boundary."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(0, 9))
        if rng.uniform() < 0.5:
            g = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        else:
            g = rng.standard_normal((rows, cols))
        for j in range(1, cols):
            pick = rng.uniform()
            if pick < 0.15:
                g[:, j] = g[:, rng.integers(0, j)]
            elif pick < 0.25:
                g[:, j] = 0.0
            elif pick < 0.4:
                g[:, j] = -g[:, rng.integers(0, j)]
        pick = rng.uniform()
        if pick < 0.3 and cols:
            x = g @ (rng.uniform(0.0, 1.0, cols) * (rng.uniform(size=cols) < 0.5))
        elif pick < 0.6:
            x = rng.integers(-3, 4, size=rows).astype(float)
        else:
            x = rng.standard_normal(rows)
        yield g, x


def assert_basic_member(g, x, res):
    """A member's coefficients are nonnegative, basic and reconstruct x."""
    assert res.member
    assert res.separator is None
    u = res.coefficients
    assert np.all(u >= 0.0)
    assert np.abs(g @ u - x).max(initial=0.0) <= membership_tol(x, DEFAULT_TOL)
    assert np.count_nonzero(u > DEFAULT_TOL.ineq_tol) <= rank(g)


def assert_separates(g, x, res):
    """A non-member's separator has w^T x < 0 and w^T G >= -1e-12 max|G| max|w|."""
    assert not res.member
    assert res.coefficients is None
    w = res.separator
    assert w @ x < 0
    floor = -1e-12 * np.abs(g).max(initial=0.0) * np.abs(w).max()
    assert (w @ g).min(initial=np.inf) >= floor


def degenerate_cone_case(seed, index):
    return next(itertools.islice(degenerate_cone_cases(seed, index + 1), index, None))


class TestSeparator:
    def test_outside_orthant(self):
        res = feasible_nonneg_solution(np.eye(2), [1.0, -1.0])
        np.testing.assert_allclose(res.separator, [0.0, 1.0], atol=1e-12)

    def test_empty_cone(self):
        res = feasible_nonneg_solution(np.zeros((2, 0)), [1.0, -2.0])
        assert not res.member
        assert res.separator @ np.array([1.0, -2.0]) < 0

    def test_member_has_none(self):
        assert feasible_nonneg_solution(Z_MPB, [1.0, 2.0]).separator is None

    def test_positive_columns_spanning_the_space_leave_a_nonzero_separator(self):
        # Lawson-Hanson ends on both columns, which span R^2, with a residual
        # of 6e-8 left by rounding. Projecting it onto their orthogonal
        # complement leaves zero, so -r itself is the separator.
        g, x = np.array([[1.0, -1.0], [0.0, 5e-9]]), np.array([0.0, 1.0])
        res = feasible_nonneg_solution(g, x)
        assert not res.member
        assert res.residual > membership_tol(x, DEFAULT_TOL)
        assert np.abs(res.separator).max() > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 29, 91, 153, 176])
    def test_separator_is_a_certificate(self, seed):
        outside = 0
        for g, x in degenerate_cone_cases(seed, 150):
            res = feasible_nonneg_solution(g, x)
            assert res.member == reference_membership(g, x)[0]
            if res.member:
                assert_basic_member(g, x, res)
            else:
                outside += 1
                assert_separates(g, x, res)
        assert outside > 20

    @pytest.mark.parametrize("seed, index", [(37, 125), (126, 74), (128, 49), (153, 61), (176, 46)])
    def test_edge_cones(self, seed, index):
        # Cones with duplicate or opposite columns. In the first three the
        # NNLS must refuse a column that leaves its positive block
        # rank-deficient. In (153, 61) the raw residual misses the floor
        # (-2.5e-12 max|G| max|w|) until its component along the positive
        # columns is projected out; (176, 46) is within 6x of it (-1.6e-13).
        g, x = degenerate_cone_case(seed, index)
        res = feasible_nonneg_solution(g, x)
        assert res.member == reference_membership(g, x)[0]
        if res.member:
            assert_basic_member(g, x, res)
        else:
            assert_separates(g, x, res)


class TestNearBoundary:
    """Points within tolerance of a cone's boundary, and Stiemke queries
    "-G 1 in cone(G)?" on sequence cones, where phase one of a simplex
    ended at a vertex outside the tolerance."""

    @pytest.mark.parametrize(
        "g, x",
        [
            ([[1.0, -1.0], [0.0, 1e-3]], [1.0, -5e-9]),
            ([[1.0, -1.0], [1e-9, 1e-9]], [1.0, -4e-9]),
        ],
    )
    def test_member_within_tolerance(self, g, x):
        g, x = np.array(g), np.array(x)
        assert_basic_member(g, x, feasible_nonneg_solution(g, x))

    @staticmethod
    def assert_consistent(g):
        x = -g.sum(axis=1)
        res = feasible_nonneg_solution(g, x)
        if res.member:
            assert_basic_member(g, x, res)
        else:
            assert_separates(g, x, res)

    @pytest.mark.parametrize(
        "kind, m, s, k, count",
        [("random_nonsingular_paired", 3, 2, 5, 243), ("planted_rank_deficient", 4, 1, 4, 256)],
    )
    def test_stiemke_queries(self, kind, m, s, k, count):
        # Every horizon-k cone; 3 and 4 of them end the simplex at an
        # infeasible vertex. In the planted_rank_deficient cones the
        # positive columns are nearly opposite, and the separator meets the
        # floor only when fitted to the column they refuse as dependent.
        sys = generate_system(kind, 3, m, 2).system
        ladder = _sequence_cone_ladder(sys, enumerate_supports(m, s), _powers_times_b(sys, k))
        cones = ladder_cones(*list(itertools.islice(ladder, k))[-1])
        assert len(cones) == count
        for g in cones.values():
            self.assert_consistent(g)

    def test_separator_choice(self):
        # Horizon-6 cones in a plane of ten columns that deviate from it by
        # about 1e-12: for the first two only the fitted separator meets
        # the floor, for the last two only the plain projection does.
        sys = generate_system("planted_rank_deficient", 3, 4, 2).system
        ladder = _sequence_cone_ladder(sys, enumerate_supports(4, 2), _powers_times_b(sys, 6))
        cones = list(ladder_cones(*list(itertools.islice(ladder, 6))[-1]).values())
        for index in (72, 84, 2111, 40332):
            self.assert_consistent(cones[index])


def degenerate_nnls_problem(seed):
    """A seeded cone in R^n, n in {2, 3, 4}, of up to 24 columns, some of
    them repeated, positively or negatively parallel, nearly parallel or
    zero, and a target inside it, outside it or near its boundary."""
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(2, 5))
    g = rng.standard_normal((n, int(rng.integers(1, 9))))
    picks = rng.integers(0, g.shape[1], size=4)
    scales = rng.uniform(0.1, 10.0, size=3) * [1.0, 1.0, -1.0]
    g = np.column_stack(
        [g, g[:, picks[0]], scales[0] * g[:, picks[1]], scales[2] * g[:, picks[2]]]
        + [g[:, picks[3]] + 10.0 ** -rng.uniform(6, 12) * rng.standard_normal(n)]
        + [np.zeros(n)] * int(rng.integers(0, 3))
    )
    g = g[:, rng.permutation(g.shape[1])[: int(rng.integers(1, 25))]]
    u = rng.uniform(0.0, 1.0, g.shape[1]) * (rng.uniform(size=g.shape[1]) < 0.5)
    x = [g @ u, -(g @ u), rng.standard_normal(n), g @ u + 1e-9 * rng.standard_normal(n)]
    return g, x[int(rng.integers(0, 4))]


def reference_nnls_residual(g, x, feas_tol):
    """``helpers.reference_nnls`` with the residual x - g u and its max-abs,
    computed afterwards as the solver did before ``_nnls`` returned them."""
    u, passive = reference_nnls(g, x, feas_tol)
    r = x - g @ u
    return u, passive, r, float(np.abs(r).max(initial=0.0))


def assert_same_result(got, want):
    """Two membership results agree field by field, in bytes."""
    assert (got.member, got.residual) == (want.member, want.residual)
    for a, b in [(got.coefficients, want.coefficients), (got.separator, want.separator)]:
        assert (a is None) == (b is None)
        assert a is None or (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestLawsonHansonReference:
    """``conelp._nnls`` against the loop it replaced (``helpers.reference_nnls``):
    the same arithmetic, so the same bits."""

    PROBLEMS = [degenerate_nnls_problem(seed) for seed in range(1000)]

    def test_bitwise_equal_to_reference(self):
        members = 0
        for g, x in self.PROBLEMS:
            feas_tol = membership_tol(x, DEFAULT_TOL)
            u, passive, r, size = conelp._nnls(g, x, feas_tol)
            expected_u, expected_passive = reference_nnls(g, x, feas_tol)
            assert u.tobytes() == expected_u.tobytes()
            assert passive == expected_passive
            assert r.tobytes() == (x - g @ u).tobytes()
            assert size == float(np.abs(x - g @ u).max(initial=0.0))
            members += bool(size <= feas_tol)
        assert 200 < members < 800  # both answers are exercised

    def test_feasible_nonneg_solution_is_unchanged(self, monkeypatch):
        results = [feasible_nonneg_solution(g, x) for g, x in self.PROBLEMS]
        monkeypatch.setattr(conelp, "_nnls", reference_nnls_residual)
        for (g, x), result in zip(self.PROBLEMS, results):
            assert_same_result(result, feasible_nonneg_solution(g, x))


def door_inputs():
    """(M, x) as outside callers pass them: the reference problems, and the
    same numbers as integer lists, with -0.0 entries, and as F-ordered or
    strided views."""
    cases = list(TestLawsonHansonReference.PROBLEMS)
    rng = np.random.default_rng(11)
    for g, x in cases[:50]:
        signed = g.copy()
        signed[rng.uniform(size=g.shape) < 0.3] = -0.0
        wide = np.zeros((g.shape[0], 2 * g.shape[1]))
        wide[:, ::2] = g
        long = np.zeros(2 * x.size)
        long[::2] = x
        cases += [
            (signed, np.where(rng.uniform(size=x.size) < 0.5, -0.0, x)),
            (np.asfortranarray(g), x),
            (wide[:, ::2], long[::2]),
            (g.T.copy().T, x[::-1].copy()[::-1]),
            (np.round(3 * g).astype(int).tolist(), np.round(3 * x).astype(int).tolist()),
        ]
    return cases


class TestDoor:
    """``feasible_nonneg_solution`` is its input checks followed by the core,
    ``conelp._solve``, which the library's own questions call directly."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(ineq_tol=1e-6)])
    def test_door_is_validation_then_core(self, tol):
        for m, x in door_inputs():
            canonical, vector = as_matrix(m), as_vector(x)
            expected = conelp._solve(canonical, vector, membership_tol(vector, tol))
            assert_same_result(feasible_nonneg_solution(m, x, tol), expected)

    def test_core_takes_any_layout(self):
        # F-ordered, strided and -0.0 matrices reach the core as they are;
        # it answers as on their canonical copy, to the bit.
        for m, x in door_inputs():
            vector = np.asarray(x, dtype=float)
            feas_tol = membership_tol(vector, DEFAULT_TOL)
            expected = conelp._solve(as_matrix(m), vector, feas_tol)
            assert_same_result(conelp._solve(np.asarray(m, dtype=float), vector, feas_tol), expected)


class TestHomogeneousNonzero:
    def test_cob_transformed_column(self):
        # B^T Z for the transformed example system at its zero eigenvalue.
        m = np.array([[0.0], [-1.0], [-1.0], [-1.0]])
        witness = homogeneous_nonzero(m)
        assert witness is not None
        np.testing.assert_allclose(witness, [1.0], atol=1e-10)

    def test_pinned_cone_is_trivial(self):
        m = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert homogeneous_nonzero(m) is None

    def test_half_line(self):
        witness = homogeneous_nonzero(np.array([[1.0]]))
        assert witness is not None
        np.testing.assert_allclose(witness, [-1.0], atol=1e-10)

    def test_no_rows_means_full_space(self):
        witness = homogeneous_nonzero(np.zeros((0, 2)))
        assert witness is not None
        assert np.abs(witness).max() == pytest.approx(1.0)

    def test_rejects_zero_columns(self):
        with pytest.raises(InputError):
            homogeneous_nonzero(np.zeros((2, 0)))

    def test_overflowing_stiemke_target_is_numeric_failure(self):
        # Full rank, so the Stiemke question is asked, and its target
        # -M^T 1 overflows: once the solver stopped at u = 0 on an infinite
        # tolerance and called the cone {0}, though rho = (-1, -1) holds.
        m = np.array([[1e308, 0.0], [0.0, 1e308], [1e308, 1e308]])
        with pytest.raises(NumericError, match="target overflows"):
            homogeneous_nonzero(m)

    @settings(max_examples=120, deadline=None)
    @given(arrays(np.int64, (4, 1), elements=small_ints))
    def test_single_column_matches_sign_enumeration(self, col):
        m = np.asarray(col, float)
        witness = homogeneous_nonzero(m)
        expected = np.all(m <= 0) or np.all(-m <= 0)
        assert (witness is not None) == expected
        if witness is not None:
            assert (m @ witness).max(initial=0.0) <= DEFAULT_TOL.ineq_tol


def random_ray_cases(seed, count):
    """M with 2-6 columns and at least as many rows: integer, Gaussian, or
    with a planted ray rho (M rho <= 0) that some rows hold at equality."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = int(rng.integers(2, 7))
        rows = int(rng.integers(g, 12))
        pick = rng.uniform()
        if pick < 0.3:
            m = rng.integers(-3, 4, size=(rows, g)).astype(float)
        else:
            m = rng.standard_normal((rows, g))
        if pick > 0.65:
            rho = rng.standard_normal(g)
            m[m @ rho > 0] *= -1.0
            edge = rng.uniform(size=rows) < 0.3
            m[edge] -= np.outer(m[edge] @ rho, rho) / (rho @ rho)
        yield m


class TestWitnessScaling:
    def test_witness_is_an_array_of_unit_max_modulus(self):
        witnesses = 0
        for m in random_ray_cases(7, 200):
            rho = homogeneous_nonzero(m)
            if rho is None:
                continue
            witnesses += 1
            assert type(rho) is np.ndarray
            assert rho.shape == (m.shape[1],)
            assert np.abs(rho).max() == 1.0
        assert witnesses > 20


class TestMatchesBoxLPs:
    def test_witness_or_none(self):
        witnesses = 0
        for m in random_ray_cases(5, 500):
            witness = homogeneous_nonzero(m)
            assert (witness is None) == (_box_lp_ray(m, DEFAULT_TOL) is None)
            witnesses += witness is not None
        assert 100 < witnesses < 450


class TestSparsifyPositiveCombination:
    def test_non_numeric_target(self):
        with pytest.raises(InputError, match="^z entry 1 is not a number: 'a'$"):
            sparsify_positive_combination(np.eye(2), ["a", "b"])

    def test_row_mismatch(self):
        with pytest.raises(InputError, match="^Z has 3 rows but z has 2 entries$"):
            sparsify_positive_combination(np.eye(3), np.ones(2))

    def test_single_generator_match(self):
        alpha = sparsify_positive_combination(Z_MPB, [-2.0, -2.0])
        np.testing.assert_allclose(alpha, [0.0, 0.0, 2.0], atol=1e-10)

    def test_matches_basis_enumeration_oracle(self):
        z = np.array([1.0, -1.0])
        solutions = bf_two_column_solutions(Z_MPB, z)
        assert len(solutions) == 1  # the oracle finds exactly one valid BFS
        np.testing.assert_allclose(solutions[0], [2.0, 0.0, 1.0], atol=1e-12)
        alpha = sparsify_positive_combination(Z_MPB, z)
        np.testing.assert_allclose(alpha, [2.0, 0.0, 1.0], atol=1e-10)
        assert np.count_nonzero(alpha > DEFAULT_TOL.ineq_tol) <= rank(Z_MPB)

    def test_zero_target(self):
        alpha = sparsify_positive_combination(Z_MPB, [0.0, 0.0])
        np.testing.assert_allclose(alpha, np.zeros(3), atol=1e-10)

    def test_outside_cone_raises(self):
        with pytest.raises(NotInConeError):
            sparsify_positive_combination(np.array([[1.0, 2.0]]), [-1.0])

    def test_reconstruction_on_random_spanning_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            base = rng.standard_normal((n, n))
            z_mat = np.hstack([base, -base @ np.ones((n, 1)), rng.standard_normal((n, 2))])
            if not is_positive_spanning_subspace(z_mat):
                continue
            target = z_mat @ rng.uniform(0, 1, z_mat.shape[1])
            alpha = sparsify_positive_combination(z_mat, target)
            assert np.all(alpha >= -DEFAULT_TOL.ineq_tol)
            assert np.count_nonzero(alpha > DEFAULT_TOL.ineq_tol) <= rank(z_mat)
            assert np.abs(z_mat @ alpha - target).max() <= DEFAULT_TOL.ineq_tol * (
                1 + np.abs(target).max()
            )


class TestIsPositiveSpanningSubspace:
    def test_minimal_positive_basis(self):
        assert is_positive_spanning_subspace(Z_MPB)

    def test_quadrant_is_not_a_subspace(self):
        assert not is_positive_spanning_subspace(np.eye(2)[:, :2])

    def test_symmetric_pair_spans_a_line(self):
        assert is_positive_spanning_subspace(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_overflowing_target_is_numeric_failure(self):
        # -Z 1 overflows; a half-line is no subspace, and the question
        # must not be answered on an infinite tolerance.
        with pytest.raises(NumericError, match="target overflows"):
            is_positive_spanning_subspace(np.array([[1e308, 1e308]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_column_criterion(self, seed):
        for z_mat, _ in degenerate_cone_cases(seed, 150):
            each = all(
                feasible_nonneg_solution(z_mat, -z_mat[:, j]).member for j in range(z_mat.shape[1])
            )
            assert is_positive_spanning_subspace(z_mat) == each
