import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nnscontrol import (
    DEFAULT_TOL,
    InputError,
    NotInConeError,
    feasible_nonneg_solution,
    homogeneous_nonzero,
    is_positive_spanning_subspace,
    rank,
    sparsify_positive_combination,
)
from nnscontrol.conelp import _PIVOT_TOL, _pivot

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
        gain = float(x @ witness.rho)
        if gain > 1e-6:
            assert not res.member


def reference_membership(m, x, tol=DEFAULT_TOL):
    """Reference: the membership path before separators were returned, as
    (member, coefficients, residual)."""
    scale = 1.0 + float(np.abs(x).max(initial=0.0))
    feas_tol = tol.ineq_tol * scale
    if m.shape[1] == 0:
        residual = float(np.abs(x).max(initial=0.0))
        return residual <= feas_tol, (np.zeros(0) if residual <= feas_tol else None), residual
    rows, n = m.shape
    a, b = m.copy(), x.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    tableau = np.hstack([a, np.eye(rows), b[:, None]])
    basis = list(range(n, n + rows))
    cost = np.concatenate([np.zeros(n), np.ones(rows)])
    while True:
        reduced = cost - cost[basis] @ tableau[:, : n + rows]
        eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if eligible.size == 0:
            break
        j = int(eligible[0])
        col = tableau[:, j]
        positive = np.nonzero(col > _PIVOT_TOL)[0]
        ratios = np.maximum(tableau[positive, -1], 0.0) / col[positive]
        ties = positive[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(tableau, basis, int(min(ties, key=lambda r: basis[r])), j)
    infeasibility = float(cost[basis] @ tableau[:, -1])
    if infeasibility > feas_tol:
        return False, None, infeasibility
    for i in range(rows):
        if basis[i] >= n:
            candidates = np.nonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)[0]
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]))
    u = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            u[var] = max(tableau[i, -1], 0.0)
    return True, u, float(np.abs(m @ u - x).max(initial=0.0))


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

    @pytest.mark.parametrize("seed", range(4))
    def test_separator_is_a_certificate(self, seed):
        outside = 0
        for g, x in degenerate_cone_cases(seed, 150):
            res = feasible_nonneg_solution(g, x)
            member, coefficients, residual = reference_membership(g, x)
            assert res.member == member
            assert res.residual == residual
            if member:
                assert np.array_equal(res.coefficients, coefficients)
                assert res.separator is None
                continue
            outside += 1
            assert res.coefficients is None
            w = res.separator
            assert w @ x < 0
            floor = -1e-12 * np.abs(g).max(initial=0.0) * np.abs(w).max()
            assert (w @ g).min(initial=np.inf) >= floor
        assert outside > 20


class TestHomogeneousNonzero:
    def test_cob_transformed_column(self):
        # B^T Z for the transformed example system at its zero eigenvalue.
        m = np.array([[0.0], [-1.0], [-1.0], [-1.0]])
        witness = homogeneous_nonzero(m)
        assert witness is not None
        np.testing.assert_allclose(witness.rho, [1.0], atol=1e-10)

    def test_pinned_cone_is_trivial(self):
        m = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert homogeneous_nonzero(m) is None

    def test_half_line(self):
        witness = homogeneous_nonzero(np.array([[1.0]]))
        assert witness is not None
        np.testing.assert_allclose(witness.rho, [-1.0], atol=1e-10)

    def test_no_rows_means_full_space(self):
        witness = homogeneous_nonzero(np.zeros((0, 2)))
        assert witness is not None
        assert np.abs(witness.rho).max() == pytest.approx(1.0)

    def test_rejects_zero_columns(self):
        with pytest.raises(InputError):
            homogeneous_nonzero(np.zeros((2, 0)))

    @settings(max_examples=120, deadline=None)
    @given(arrays(np.int64, (4, 1), elements=small_ints))
    def test_single_column_matches_sign_enumeration(self, col):
        m = np.asarray(col, float)
        witness = homogeneous_nonzero(m)
        expected = np.all(m <= 0) or np.all(-m <= 0)
        assert (witness is not None) == expected
        if witness is not None:
            assert (m @ witness.rho).max(initial=0.0) <= DEFAULT_TOL.ineq_tol


class TestSparsifyPositiveCombination:
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
