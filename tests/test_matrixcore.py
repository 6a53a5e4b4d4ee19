import dis
import inspect
import json
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nnscontrol import (
    DEFAULT_TOL,
    KINDS,
    InputError,
    NumericError,
    Tolerances,
    apply_input_basis,
    build_decomposition,
    feasible_nonneg_solution,
    generate_system,
    homogeneous_nonzero,
    is_positive_spanning_subspace,
    left_eigensystem,
    mat_pow,
    null_space_basis,
    pbh_rank,
    rank,
    sparsify_positive_combination,
    zero_structure,
)
from nnscontrol import controllability, matrixcore
from nnscontrol.controllability import SystemPair, check_nonneg_sparse
from nnscontrol.oracle import OracleConfig, coverage_probe
from nnscontrol.matrixcore import _CROWDING_FACTOR, _cluster, as_matrix, as_vector, scale_unit

from helpers import (
    _reference_cluster,
    count_linalg_calls,
    reference_left_eigensystem,
)

# The rank-deficient diagonal state matrix of the bundled change-of-basis
# example; used throughout as a small fixture with a zero eigenvalue.
A_DIAG = np.diag([-1.0, -1.0, 0.0])
B_COB = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, -1.0]])

small_ints = st.integers(min_value=-4, max_value=4)


# 2**2000 is finite in an x87 long double but beyond float64's range.
BEYOND_FLOAT64 = np.longdouble(2) ** 2000 if np.finfo(np.longdouble).maxexp > 2000 else None
needs_wide_long_double = pytest.mark.skipif(
    BEYOND_FLOAT64 is None, reason="np.longdouble is no wider than float64 here"
)


def refusal(call):
    """The message of the InputError that ``call`` raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            call()
    return str(info.value)


def int_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: arrays(np.int64, (n, n), elements=small_ints)
    )


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rtol == 1e-9
        assert tol.eig_imag_tol == 1e-8
        assert tol.ineq_tol == 1e-8

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1.0, 2.0, -1, np.float32(2.0)])
    def test_rejects_out_of_range(self, bad):
        # The message shows the value as given, not the float it was read as.
        with pytest.raises(InputError) as info:
            Tolerances(ineq_tol=bad)
        assert str(info.value) == f"ineq_tol must lie strictly between 0 and 1, got {bad!r}"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0.1", "rank_rtol entry 1 is not a number: '0.1'"),
            (None, "rank_rtol entry 1 is not a number: None"),
            (True, "rank_rtol entry 1 is not a number: True"),
            ([0.1], "rank_rtol must be 1-D, got shape (1, 1)"),
            (Fraction(1, 10**9), "rank_rtol entry 1 is not a number: Fraction(1, 1000000000)"),
            (Decimal("1e-9"), "rank_rtol entry 1 is not a number: Decimal('1E-9')"),
            (np.bool_(True), f"rank_rtol entry 1 is not a number: {np.bool_(True)!r}"),
            (math.nan, "rank_rtol entry 1 is not finite"),
        ],
        ids=["str", "none", "bool", "list", "fraction", "decimal", "numpy-bool", "nan"],
    )
    def test_rejects_non_numbers(self, bad, message):
        # The thresholds are read by the number rule of as_matrix and as_vector.
        with pytest.raises(InputError) as info:
            Tolerances(rank_rtol=bad)
        assert str(info.value) == message

    def test_numpy_float_is_stored_as_float(self):
        # A float32 threshold is a number under the rule; it is stored as a
        # Python float, so the report that embeds it can be written as JSON.
        tol = Tolerances(rank_rtol=np.float32(1e-9), ineq_tol=np.float64(1e-8))
        assert type(tol.rank_rtol) is float and type(tol.ineq_tol) is float
        assert tol.rank_rtol == float(np.float32(1e-9))
        sys_pair = SystemPair(A=np.diag([-1.0, -1.0, 0.0]), B=np.eye(3))
        report = check_nonneg_sparse(sys_pair, 1, tol).to_dict()
        assert json.loads(json.dumps(report))["tolerances"]["rank_rtol"] == tol.rank_rtol


class TestAsMatrix:
    @pytest.mark.parametrize(
        "a, message",
        [
            ([[1j]], "M must be real"),
            ([["a"]], "M entry at row 1, column 1 is not a number: 'a'"),
            ([[1.0], [2.0, 3.0]], "M row 2 has 2 entries, expected 1 (ragged)"),
            ([[1.0], 2.0], "M row 2 is not an array: 2.0"),
            ([np.zeros((2, 2)), np.zeros((2, 3))],
             "M is ragged: could not broadcast input array from shape (2,2) into shape (2,)"),
            ([1.0, 2.0], "M must be 2-D, got shape (2,)"),
            ([[np.inf]], "M entry at row 1, column 1 is not finite"),
            (np.array([[0.0, 1.0], [np.nan, 2.0]]), "M entry at row 2, column 1 is not finite"),
            (np.array([[True]]), "M entry at row 1, column 1 is not a number: True"),
            ([[1.5, -(10**400)]], "M entry at row 1, column 2 is not finite"),
            ([[np.longdouble(1), 10**5000]], "M entry at row 1, column 2 is not finite"),
        ],
        ids=["complex", "string", "ragged", "scalar-row", "clashing-arrays", "1-D", "infinity",
             "nan-ndarray", "bool-ndarray", "int-minus-1e400", "int-1e5000-with-long-double"],
    )
    def test_messages(self, a, message):
        with pytest.raises(InputError) as info:
            as_matrix(a, "M")
        assert str(info.value) == message

    def test_complex_when_allowed(self):
        assert as_matrix([[1j]], "M", allow_complex=True).dtype == np.complex128

    def test_numpy_scalars_in_a_list(self):
        # Entry types are exact: numpy's integer and floating scalars are
        # numbers, and its bool is not.
        m = as_matrix([[np.float32(0.5), np.int8(2)], [np.uint64(3), 4]], "M")
        np.testing.assert_array_equal(m, [[0.5, 2.0], [3.0, 4.0]])
        with pytest.raises(InputError, match="^M entry at row 1, column 2 is not a number: "):
            as_matrix([[1.0, np.bool_(True)]], "M")

    @needs_wide_long_double
    @pytest.mark.parametrize(
        "dtype, where, message",
        [
            (np.longdouble, (1, 0), "M entry at row 2, column 1 is not finite"),
            (np.clongdouble, (0, 1), "M entry at row 1, column 2 is not finite"),
        ],
        ids=["longdouble", "clongdouble"],
    )
    def test_long_double_beyond_float64(self, dtype, where, message):
        # Values are judged after the cast to float64, so 2**2000 is refused
        # as not finite, by each door, with no overflow warning from the cast.
        a = np.eye(2, dtype=dtype)
        a[where] = BEYOND_FLOAT64
        assert refusal(lambda: as_matrix(a, "M", allow_complex=True)) == message
        assert refusal(lambda: as_matrix(a.tolist(), "M", allow_complex=True)) == message
        if dtype is np.longdouble:
            assert refusal(lambda: SystemPair(A=a, B=np.eye(2))) == "A" + message[1:]

    @needs_wide_long_double
    def test_long_double_within_float64(self):
        # A long double that float64 can hold is accepted as its float64 cast.
        a = np.array([[1, 2**-1000], [2**1000, -7]], dtype=np.longdouble) / 3
        for m in (as_matrix(a, "M"), as_matrix(a.tolist(), "M")):
            assert m.dtype == np.float64
            assert m.tobytes() == a.astype(np.float64).tobytes()

    def test_numeric_ndarrays_skip_the_per_entry_path(self, monkeypatch):
        # Only list-shaped or object input goes through ``_entries``; an ndarray
        # of a numeric dtype, as every internal caller passes, does not.
        def per_entry(x, name, ndim):
            raise AssertionError(f"{name} went through the per-entry path")

        monkeypatch.setattr(matrixcore, "_entries", per_entry)
        for a in (np.eye(2, dtype=int), np.eye(2, dtype=np.float32), np.eye(2)):
            np.testing.assert_array_equal(as_matrix(a, "M"), np.eye(2))
        assert as_matrix(1j * np.eye(2), "M", allow_complex=True).dtype == np.complex128
        x = np.ones(3)
        assert as_vector(x, "x") is x
        system = SystemPair(A=np.diag([-1.0, -1.0, 0.0]), B=np.eye(3, 4) - np.eye(3, 4, 1))
        check_nonneg_sparse(system, 1)
        controllability.min_sparsity(system)
        coverage_probe(system, 1, OracleConfig(k_max=2, n_directions=4))
        build_decomposition(system.A)
        with pytest.raises(AssertionError, match="^M went through the per-entry path$"):
            as_matrix([[1.0]], "M")


@st.composite
def door_matrices(draw):
    """Finite float64, int64 or long-double matrices; a long double may lie
    beyond float64's range (scaled by 2**1100) where the platform has one."""
    dtype = draw(st.sampled_from([np.float64, np.int64, np.longdouble]))
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    if dtype is np.int64:
        info = np.iinfo(np.int64)
        return draw(arrays(np.int64, shape, elements=st.integers(info.min, info.max)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, shape, elements=finite))
    if dtype is np.float64:
        return values
    scale = draw(st.sampled_from([1, 2**1100] if BEYOND_FLOAT64 is not None else [1]))
    return values.astype(np.longdouble) * scale / 3


def door_outcome(a):
    """``as_matrix``'s bytes for ``a``, or its refusal; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return as_matrix(a, "M").tobytes()
        except InputError as exc:
            return str(exc)


class TestTwoDoors:
    """A list (read by its set of entry types) and an ndarray (read by its
    dtype) of the same values get the same matrix or the same refusal."""

    @settings(max_examples=150, deadline=None)
    @given(door_matrices(), st.data())
    def test_list_and_ndarray_agree(self, values, data):
        assert door_outcome(values.tolist()) == door_outcome(values)
        if values.dtype.kind == "f":
            bad = values.copy()
            bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf])
            )
            refused = door_outcome(bad)
            assert isinstance(refused, str) and refused.endswith("is not finite")
            assert door_outcome(bad.tolist()) == refused


RAGGED = [[1.0, 2.0], [3.0]]


class TestRaggedInput:
    """A ragged nested list is an InputError naming the matrix at every
    public function that takes one."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: SystemPair(A=RAGGED, B=[[1.0], [1.0]]), "A"),
            (lambda: SystemPair(A=np.eye(2), B=RAGGED), "B"),
            (lambda: left_eigensystem(RAGGED), "A"),
            (lambda: pbh_rank(RAGGED, [[1.0], [1.0]], 0.0), "A"),
            (lambda: rank(RAGGED), "matrix"),
            (lambda: null_space_basis(RAGGED), "matrix"),
            (lambda: zero_structure(RAGGED), "A"),
            (lambda: build_decomposition(RAGGED), "A"),
            (lambda: feasible_nonneg_solution(RAGGED, [1.0, 1.0]), "M"),
            (lambda: homogeneous_nonzero(RAGGED), "M"),
            (lambda: sparsify_positive_combination(RAGGED, [1.0, 1.0]), "Z"),
            (lambda: is_positive_spanning_subspace(RAGGED), "Z"),
            (lambda: mat_pow(RAGGED, 2), "matrix"),
            (lambda: apply_input_basis(SystemPair(A=np.eye(2), B=np.eye(2)), RAGGED), "Phi"),
        ],
        ids=[
            "SystemPair-A", "SystemPair-B", "left_eigensystem", "pbh_rank", "rank",
            "null_space_basis", "zero_structure", "build_decomposition",
            "feasible_nonneg_solution", "homogeneous_nonzero", "sparsify_positive_combination",
            "is_positive_spanning_subspace", "mat_pow", "apply_input_basis",
        ],
    )
    def test_is_an_input_error(self, call, name):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == f"{name} row 2 has 1 entries, expected 2 (ragged)"


class TestAsVector:
    def test_non_numeric_entries_are_an_input_error(self):
        with pytest.raises(InputError, match="^x entry 1 is not a number: 'a'$"):
            as_vector(["a", "b"], "x")

    def test_non_finite_entries_are_an_input_error(self):
        with pytest.raises(InputError, match="^x entry 2 is not finite$"):
            as_vector([1.0, np.nan], "x")

    @needs_wide_long_double
    def test_long_double_beyond_float64(self):
        x = np.array([1, 0, BEYOND_FLOAT64], dtype=np.longdouble)
        assert refusal(lambda: as_vector(x, "x")) == "x entry 3 is not finite"
        assert refusal(lambda: as_vector(x.tolist(), "x")) == "x entry 3 is not finite"
        # A complex long double is refused as complex before its value is judged.
        assert refusal(lambda: as_vector(x.astype(np.clongdouble), "x")) == "x must be real"

    @needs_wide_long_double
    def test_long_double_within_float64(self):
        x = np.array([1, 2**-1000, -(2**1000)], dtype=np.longdouble) / 3
        assert as_vector(x, "x").tobytes() == x.astype(np.float64).tobytes()

    def test_complex_is_an_input_error(self):
        with pytest.raises(InputError, match="^x must be real$"):
            as_vector(np.array([1.0, 1j]), "x")

    def test_non_vector_is_an_input_error(self):
        with pytest.raises(InputError, match=r"^x must be 1-D, got shape \(1, 2\)$"):
            as_vector([[1.0, 2.0]], "x")


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_diagonal_counts_nonzeros(self):
        assert rank(A_DIAG) == 2

    def test_single_nonzero_row(self):
        assert rank([[0, 1, 0], [0, 0, 0], [0, 0, 0]]) == 1

    def test_zero_matrix(self):
        assert rank(np.zeros((4, 2))) == 0

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            rank([[np.nan, 0], [0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(m.T)

    @pytest.mark.parametrize("scale", [1e308, 1e-310, 5e-324])
    def test_huge_and_subnormal_entries(self, scale):
        # sigma_1 of the 1e308 matrix is 2e308: unscaled, it overflows and
        # the cut rank_rtol * sigma_1 is inf, which gave rank 0.
        assert rank(np.full((2, 2), scale)) == 1
        assert rank(np.full((2, 2), scale) * [1.0, -1.0j]) == 1

    @pytest.mark.parametrize("top", [1e308, 3.0, 1.0, 0.75, 1e-310, 5e-324])
    def test_scale_unit_is_an_exact_power_of_two(self, top):
        u = scale_unit(np.array([[0.0, -top]]))
        assert np.frexp(u)[0] == 0.5
        assert 1.0 <= top / u < 2.0 and (top / u) * u == top
        assert scale_unit(np.zeros((2, 2))) == 0.5


class TestNullSpaceBasis:
    def test_trivial_kernel(self):
        assert null_space_basis(np.eye(2)).shape == (2, 0)

    def test_diagonal_kernel_is_last_axis(self):
        basis = null_space_basis(A_DIAG.T - 0.0 * np.eye(3))
        assert basis.shape == (3, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0, 0, 1], atol=1e-12)

    def test_closest_replaces_an_empty_kernel(self, monkeypatch):
        # diag(3, 2, 1) has no kernel; the closest singular direction is e3,
        # taken from the one SVD that found the kernel empty.
        counts = count_linalg_calls(monkeypatch, names=("svd",))
        basis = null_space_basis(np.diag([3.0, 2.0, 1.0]), closest=True)
        assert counts == {"svd": 1}
        np.testing.assert_array_equal(np.abs(basis), [[0.0], [0.0], [1.0]])

    def test_closest_keeps_a_nonempty_kernel(self):
        m = A_DIAG.T - 0.0 * np.eye(3)
        np.testing.assert_array_equal(null_space_basis(m, closest=True), null_space_basis(m))

    @pytest.mark.parametrize("closest", [False, True])
    def test_empty_matrices(self, closest):
        # With no rows every direction is in the kernel; with no columns there is none.
        basis = null_space_basis(np.zeros((0, 3)), closest=closest)
        assert basis.dtype == np.float64
        np.testing.assert_array_equal(basis, np.eye(3))
        assert null_space_basis(np.zeros((3, 0)), closest=closest).shape == (0, 0)

    def test_full_kernel(self):
        basis = null_space_basis(np.zeros((2, 2)))
        assert basis.shape == (2, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_rank_nullity(self, m):
        basis = null_space_basis(m)
        assert rank(m) + basis.shape[1] == m.shape[1]
        if basis.shape[1]:
            np.testing.assert_allclose(
                basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10
            )
            assert np.abs(np.asarray(m, float) @ basis).max() <= 1e-8 * (
                1 + np.abs(m).max()
            )


@st.composite
def closeness_matrices(draw):
    """Symmetric boolean n x n matrices, n <= 40, with a true diagonal and
    permuted indices, from empty to dense off-diagonal patterns."""
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from([0.0, 0.5 / n, 1.0 / n, 2.0 / n, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    close = upper | upper.T | np.eye(n, dtype=bool)
    perm = rng.permutation(n)
    return close[np.ix_(perm, perm)]


def cluster_lists(groups):
    return [group.tolist() for group in groups]


class TestCluster:
    """``_cluster`` against the union-find reference: the same groups, in
    order of their smallest index, each group's members ascending."""

    @settings(max_examples=200, deadline=None)
    @given(closeness_matrices())
    def test_matches_union_find(self, close):
        assert cluster_lists(_cluster(close)) == cluster_lists(_reference_cluster(close))

    def test_permuted_chain(self):
        # Each index is close only to the next one along a permuted chain,
        # so the labels take up to 128 rounds to settle.
        n = 128
        perm = np.random.default_rng(0).permutation(n)
        close = np.eye(n, dtype=bool)
        close[perm[:-1], perm[1:]] = close[perm[1:], perm[:-1]] = True
        groups = cluster_lists(_cluster(close))
        assert groups == [list(range(n))] == cluster_lists(_reference_cluster(close))


class TestLeftEigensystem:
    def test_diagonal(self):
        eig = left_eigensystem(A_DIAG)
        table = {round(g.eigenvalue.real, 9): g for g in eig.groups}
        assert set(table) == {-1.0, 0.0}
        assert table[-1.0].geometric_multiplicity == 2
        zero = table[0.0]
        assert zero.geometric_multiplicity == 1
        np.testing.assert_allclose(np.abs(zero.basis[:, 0]), [0, 0, 1], atol=1e-12)

    def test_nilpotent_block(self):
        # z^T A = (0, z1) must vanish, so the left eigenspace is the e2 line.
        eig = left_eigensystem([[0.0, 1.0], [0.0, 0.0]])
        assert len(eig.groups) == 1
        g = eig.groups[0]
        assert g.eigenvalue == 0
        assert g.algebraic_multiplicity == 2
        assert g.geometric_multiplicity == 1
        np.testing.assert_allclose(np.abs(g.basis[:, 0]), [0, 1], atol=1e-12)

    def test_identity(self):
        eig = left_eigensystem(np.eye(2))
        assert len(eig.groups) == 1
        assert eig.groups[0].eigenvalue == 1
        assert eig.groups[0].geometric_multiplicity == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            left_eigensystem(np.zeros((2, 3)))

    def test_empty_matrix(self):
        eig = left_eigensystem(np.zeros((0, 0)))
        assert eig.groups == ()
        assert eig.cluster_radius == 0.0 and type(eig.cluster_radius) is float

    def test_overflowing_eigenvalue_is_a_numeric_error(self):
        # The eigenvalue 2e308 of the all-1e308 matrix overflows to inf.
        with pytest.raises(NumericError, match="^an eigenvalue of A overflows$"):
            left_eigensystem(np.full((2, 2), 1e308))

    def test_huge_nilpotent_residuals_do_not_overflow(self):
        # Unscaled, the group residual ||(A^T - lambda I) z|| overflowed in the
        # product. On A / scale_unit(A), multiplied back, it stays finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = left_eigensystem(np.array([[1e308, 1e308], [-1e308, -1e308]]))
        assert all(g.max_residual < 1e308 for g in eig.groups)

    @pytest.mark.parametrize(
        "a",
        [
            np.random.default_rng(11).standard_normal((7, 7)),
            # +/- i twice each, with two-dimensional left eigenspaces.
            np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]]),
        ],
    )
    def test_conjugate_groups_share_conjugate_bases(self, a):
        groups = left_eigensystem(a).groups
        complex_groups = [g for g in groups if not g.is_real]
        assert complex_groups
        for g in complex_groups:
            (mirror,) = [h for h in groups if h.eigenvalue == g.eigenvalue.conjugate()]
            assert mirror.algebraic_multiplicity == g.algebraic_multiplicity
            assert mirror.geometric_multiplicity == g.geometric_multiplicity
            assert mirror.max_residual == g.max_residual
            np.testing.assert_array_equal(mirror.basis, g.basis.conj())

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_residuals_and_multiplicities(self, m):
        a = np.asarray(m, float)
        eig = left_eigensystem(a)
        scale = max(1.0, np.linalg.norm(a))
        assert sum(g.algebraic_multiplicity for g in eig.groups) == a.shape[0]
        for g in eig.groups:
            assert g.geometric_multiplicity >= 1
            for j in range(g.basis.shape[1]):
                z = g.basis[:, j]
                res = np.linalg.norm(z @ a - g.eigenvalue * z)
                assert res <= 1e-6 * scale


def _reference_clusters(values, radius):
    """Single-linkage clusters of ``values`` by the pairwise loop, the reference
    for the vectorised search in ``left_eigensystem``."""
    parent = list(range(values.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(values.size):
        for j in range(i + 1, values.size):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    buckets = {}
    for i in range(values.size):
        buckets.setdefault(find(i), []).append(i)
    return [values[idx] for idx in buckets.values()]


def _defective_state_matrix(seed, n=32, k=2, lam=0.5):
    """T diag(J_k(lam), D) T^-1 with D negative diagonal and T Gaussian with
    column scales 10^U(-1,1): badly conditioned but with simple eigenvalues
    outside the Jordan block."""
    rng = np.random.default_rng(seed)
    core = np.zeros((n, n))
    core[:k, :k] = lam * np.eye(k) + np.eye(k, k=1)
    core[k:, k:] = np.diag(-rng.uniform(0.5, 2.0, size=n - k))
    t = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    return t @ core @ np.linalg.inv(t)


def _similar_jordan_matrix(blocks, n, seed):
    """A = T diag(J_k1(lam1), J_k2(lam2), ..., D) T^-1 with cond(T) = 100 and
    D diagonal in [1, 5], and an orthonormal basis of the left eigenspace of
    each Jordan-block eigenvalue, keyed by that eigenvalue."""
    rng = np.random.default_rng(seed)
    core = np.zeros((n, n))
    lasts = {}
    i = 0
    for lam, k in blocks:
        core[i : i + k, i : i + k] = lam * np.eye(k) + np.eye(k, k=1)
        lasts.setdefault(lam, []).append(i + k - 1)
        i += k
    core[i:, i:] = np.diag(rng.uniform(1.0, 5.0, size=n - i))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q1 @ np.diag(np.logspace(0.0, 2.0, n)) @ q2
    t_inv = np.linalg.inv(t)
    spaces = {lam: np.linalg.qr(t_inv[rows].T)[0] for lam, rows in lasts.items()}
    return t @ core @ t_inv, spaces


def _outside(space, basis):
    """Sine of the largest principal angle of ``space`` outside span(``basis``)."""
    if basis.shape[1] == 0:
        return 1.0
    return np.linalg.norm(space - basis @ (basis.conj().T @ space), 2)


class TestLeftEigensystemAgainstNullSpace:
    """Groups match the eigenvalue clusters and the SVD kernels of A^T - lambda I."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_generated_systems(self, kind, n):
        for seed in range(3):
            a = generate_system(kind, n, 3, seed).system.A
            eig = left_eigensystem(a)
            radius = eig.cluster_radius
            expected = []
            for members in _reference_clusters(np.linalg.eigvals(a), radius):
                center = complex(members.mean())
                if abs(center.imag) <= DEFAULT_TOL.eig_imag_tol:
                    center = complex(center.real)
                expected.append((center.real, center.imag, members.size))
            assert [
                (g.eigenvalue.real, g.eigenvalue.imag, g.algebraic_multiplicity)
                for g in eig.groups
            ] == sorted(expected)
            bound = DEFAULT_TOL.eig_imag_tol * (1.0 + np.linalg.norm(a, 2))
            crowd = _CROWDING_FACTOR * radius
            for g in eig.groups:
                lam = g.eigenvalue.real if g.is_real else g.eigenvalue
                reference = null_space_basis(a.T - lam * np.eye(n), atol=radius * (1 + 1e-6))
                assert _outside(g.basis, reference) <= 1e-6
                assert g.max_residual <= bound
                near = [h for h in eig.groups if abs(h.eigenvalue - g.eigenvalue) <= crowd]
                if len(near) == 1 and g.algebraic_multiplicity == 1:
                    assert g.geometric_multiplicity == 1
                # Numerically split copies of a defective eigenvalue are
                # separate groups; together they hold its whole eigenspace.
                union = np.hstack([h.basis for h in near])
                assert _outside(reference, np.linalg.qr(union)[0]) <= 1e-6

    @pytest.mark.parametrize("seed", [[2, 1, 2, 1], [5, 1, 2, 9]])
    def test_geometric_multiplicity_at_most_algebraic(self, seed):
        # Simple eigenvalues (-0.5559 for the first seed, -1.2088 for the
        # second) once got two-dimensional eigenspaces from the relative
        # cutoff of the null-space SVD, which ||A|| >> spectral radius widens.
        # Crowded eigenvalues (-1.329 and -1.3289 are 744 radii apart) still
        # take that SVD, so only those far from every other one are checked.
        eig = left_eigensystem(_defective_state_matrix(seed))
        crowd = _CROWDING_FACTOR * eig.cluster_radius
        for g in eig.groups:
            others = [abs(g.eigenvalue - h.eigenvalue) for h in eig.groups if h is not g]
            if min(others) > crowd:
                assert g.geometric_multiplicity <= g.algebraic_multiplicity

    @pytest.mark.parametrize(
        "blocks",
        [
            ((0.0, 2), (0.0, 1)),
            ((0.0, 3), (0.0, 1)),
            ((0.0, 4), (0.0, 1)),
            ((0.0, 5), (0.0, 1)),
            ((0.0, 2), (0.0, 2)),
            ((0.7, 3), (0.7, 1)),
            ((0.7, 4), (0.7, 1)),
        ],
    )
    @pytest.mark.parametrize("n", [6, 8, 16, 24])
    def test_split_defective_eigenvalue_keeps_its_eigenspace(self, blocks, n):
        # Rounding splits these eigenvalues into copies up to 1e5 clustering
        # radii apart (a block of size 5); one group must still carry the whole
        # two-dimensional left eigenspace, or conditions i and ii, which
        # test each group on its own, would search only part of it.
        a, spaces = _similar_jordan_matrix(blocks, n, seed=n)
        eig = left_eigensystem(a)
        for lam, space in spaces.items():
            near = [g for g in eig.groups if abs(g.eigenvalue - lam) < 1e-2]
            assert min(_outside(space, g.basis) for g in near) <= 1e-6


def _ring_matrix(c=0.5, count=8):
    """Normal A whose eigenvalues c + R e^(2 pi i k / count) chain into one
    cluster (neighbours 0.9 radius apart) while R exceeds the radius, so the
    kernel of A^T - c I at the cluster center is empty."""
    radius = DEFAULT_TOL.eig_imag_tol * (1.0 + c)
    r = 0.9 * radius / (2.0 * math.sin(math.pi / count))
    a = np.zeros((count, count))
    a[0, 0], a[1, 1] = c + r, c - r
    for k in range(1, count // 2):
        re, im = c + r * math.cos(2 * math.pi * k / count), r * math.sin(2 * math.pi * k / count)
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[re, im], [-im, re]]
    return a


# 0.5 +/- 0.9e-8 i: farther apart than the radius 1.5e-8, so two one-member
# groups, each real because its imaginary part is at most eig_imag_tol.
NEAR_REAL_PAIR = np.array([[0.5, 0.9e-8], [-0.9e-8, 0.5]])


def _signed_zero_matrices(count=60, seed=5):
    """Small integer matrices of which about half the entries are -0.0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = rng.integers(-2, 3, size=(n, n)).astype(float)
        a[rng.uniform(size=(n, n)) < 0.5] = -0.0
        yield a


def _reference_systems():
    for kind in KINDS:
        for n in (2, 3, 8, 40, 64):
            for seed in range(3):
                yield generate_system(kind, n, 3, seed).system
    rng = np.random.default_rng(0)
    matrices = [_defective_state_matrix(seed) for seed in range(3)]
    for blocks in (((0.0, 2), (0.0, 1)), ((0.7, 3), (0.7, 1)), ((0.0, 5), (0.0, 1))):
        matrices.append(_similar_jordan_matrix(blocks, 16, seed=16)[0])
    matrices += [_ring_matrix(), NEAR_REAL_PAIR, *_signed_zero_matrices()]
    for a in matrices:
        yield SystemPair(A=a, B=rng.integers(-1, 2, size=(a.shape[0], 2)).astype(float))


def _assert_same_eigensystem(got, want):
    assert got.cluster_radius == want.cluster_radius
    assert len(got.groups) == len(want.groups)
    for g, h in zip(got.groups, want.groups):
        for field in ("eigenvalue", "spread", "max_residual"):
            assert np.array(getattr(g, field)).tobytes() == np.array(getattr(h, field)).tobytes()
        for field in ("algebraic_multiplicity", "geometric_multiplicity", "is_real"):
            assert getattr(g, field) == getattr(h, field)
        assert g.basis.dtype == h.basis.dtype
        assert g.basis.shape == h.basis.shape
        assert g.basis.tobytes() == h.basis.tobytes()


def _lines_run(func, call):
    """Line numbers of ``func`` executed while ``call()`` runs."""
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code is not func.__code__:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


class TestLeftEigensystemAgainstReference:
    """The shared shift buffer and the single eigenvector match give the
    bytes of the per-group loop in ``helpers``."""

    def test_byte_identical_to_per_group_loops(self, monkeypatch):
        systems = list(_reference_systems())
        # The raw matrices keep their negative zeros; as_matrix clears them,
        # so each is compared with the reference on its canonical values.
        for a in [sys_.A for sys_ in systems] + list(_signed_zero_matrices()):
            _assert_same_eigensystem(left_eigensystem(a), reference_left_eigensystem(a + 0.0))
        reports = [json.dumps(check_nonneg_sparse(s, s.m).to_dict()) for s in systems]
        monkeypatch.setattr(controllability, "left_eigensystem", reference_left_eigensystem)
        controllability._analysis.cache_clear()  # the next check runs the reference
        assert reports == [json.dumps(check_nonneg_sparse(s, s.m).to_dict()) for s in systems]

    def test_every_group_path_is_taken(self):
        # Real and complex eig(A^T) columns, crowded and unmatched
        # one-member groups, multi-member clusters and the empty-kernel
        # fallback: every line of the group loop runs.
        systems = list(_reference_systems())
        seen = _lines_run(left_eigensystem, lambda: [left_eigensystem(s.A) for s in systems])
        source, first = inspect.getsourcelines(left_eigensystem)
        start = first + next(i for i, text in enumerate(source) if "for idx in _cluster(" in text)
        end = first + next(i for i, text in enumerate(source) if "groups.sort(" in text)
        lines = {line for _, line in dis.findlinestarts(left_eigensystem.__code__) if line}
        assert {line for line in lines if start <= line <= end} <= seen

    def test_near_real_pair_is_two_real_groups(self):
        values = np.linalg.eigvals(NEAR_REAL_PAIR)
        assert 0.0 < np.abs(values.imag).min() <= DEFAULT_TOL.eig_imag_tol
        groups = left_eigensystem(NEAR_REAL_PAIR).groups
        assert [(g.eigenvalue, g.algebraic_multiplicity, g.is_real) for g in groups] == [
            (0.5, 1, True),
            (0.5, 1, True),
        ]

    def test_ring_takes_the_closest_singular_direction(self):
        eig = left_eigensystem(_ring_matrix())
        (group,) = eig.groups
        assert group.algebraic_multiplicity == 8
        assert group.geometric_multiplicity == 1
        assert group.max_residual > eig.cluster_radius * (1.0 + 1e-6)


class TestLeftEigensystemCost:
    """One eigvals, one eig and one SVD per multi-member cluster."""

    def _similar(self, diagonal, seed=3):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(diagonal),) * 2))
        return q @ np.diag(diagonal) @ q.T

    def test_well_separated_system_needs_no_svd(self, monkeypatch):
        a = np.random.default_rng(11).standard_normal((16, 16))
        counts = count_linalg_calls(monkeypatch)
        groups = left_eigensystem(a).groups
        assert counts == {"eigvals": 1, "eig": 1, "svd": 0}
        assert {g.is_real for g in groups} == {True, False}
        assert all(g.geometric_multiplicity == 1 for g in groups)

    def test_empty_kernel_cluster_costs_one_svd(self, monkeypatch):
        # The ring's kernel at the cluster center is empty; the closest
        # singular direction comes from the same SVD.
        counts = count_linalg_calls(monkeypatch)
        (group,) = left_eigensystem(_ring_matrix()).groups
        assert counts == {"eigvals": 1, "eig": 0, "svd": 1}
        assert group.geometric_multiplicity == 1

    def test_one_cluster_costs_one_svd(self, monkeypatch):
        a = self._similar([2.0, 2.0, 1.0, 3.0, -1.0, 5.0])
        counts = count_linalg_calls(monkeypatch)
        groups = left_eigensystem(a).groups
        assert counts == {"eigvals": 1, "eig": 1, "svd": 1}
        assert [g.algebraic_multiplicity for g in groups] == [1, 1, 2, 1, 1]

    def test_conjugate_clusters_cost_one_svd_each(self, monkeypatch):
        # +/- i twice each: each conjugate group takes its own kernel SVD.
        counts = count_linalg_calls(monkeypatch)
        groups = left_eigensystem(np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])).groups
        assert counts == {"eigvals": 1, "eig": 0, "svd": 2}
        assert [g.geometric_multiplicity for g in groups] == [2, 2]


class TestPbhRank:
    def test_cob_system_zero_eigenvalue(self):
        # Hand row-reduction: [diag(1,1,0) | B] has three independent rows.
        assert pbh_rank(A_DIAG, B_COB, 0.0) == 3

    def test_cob_system_repeated_eigenvalue(self):
        assert pbh_rank(A_DIAG, B_COB, -1.0) == 3

    def test_both_blocks_vanish(self):
        assert pbh_rank(np.eye(2), np.zeros((2, 1)), 1.0) == 0

    def test_complex_eigenvalue(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +/- i
        assert pbh_rank(a, np.array([[1.0], [0.0]]), 1j) == 2

    def test_dimension_mismatch(self):
        # pbh_rank and SystemPair share one row check for B, message included.
        message = "^B must have 2 rows to match A, got 3$"
        with pytest.raises(InputError, match=message):
            pbh_rank(np.eye(2), np.zeros((3, 1)), 0.0)
        with pytest.raises(InputError, match=message):
            SystemPair(A=np.eye(2), B=np.zeros((3, 1)))

    def test_complex_pencil_matches_astype(self, monkeypatch):
        # At complex lambda the pencil handed to rank is the one built by
        # promoting A and B with astype(complex128), byte for byte.
        seen = []
        monkeypatch.setattr(matrixcore, "rank", lambda m, tol: seen.append(m) or 0)
        for kind in KINDS:
            for seed in range(3):
                pair = generate_system(kind, 6, 2, seed).system
                for lam in np.linalg.eigvals(pair.A):
                    if lam.imag == 0.0:
                        continue
                    pbh_rank(pair.A, pair.B, lam)
                    expected = np.hstack(
                        [
                            lam * np.eye(6) - pair.A.astype(np.complex128),
                            pair.B.astype(np.complex128),
                        ]
                    )
                    assert seen[-1].dtype == np.complex128
                    assert seen[-1].tobytes() == expected.tobytes()
        assert len(seen) > 4


class TestMatPow:
    def test_zeroth_power(self):
        np.testing.assert_array_equal(mat_pow(np.full((2, 2), 7.0), 0), np.eye(2))

    def test_nilpotent_square(self):
        np.testing.assert_array_equal(
            mat_pow([[0.0, 1.0], [0.0, 0.0]], 2), np.zeros((2, 2))
        )

    def test_odd_power_diagonal(self):
        np.testing.assert_array_equal(mat_pow(A_DIAG, 3), A_DIAG)

    @pytest.mark.parametrize(
        "k, message",
        [
            (-1, "power must be >= 0, got -1"),
            (True, "power must be an integer, got True"),
            (1.0, "power must be an integer, got 1.0"),
        ],
        ids=["negative", "bool", "float"],
    )
    def test_rejects_bad_power(self, k, message):
        with pytest.raises(InputError) as info:
            mat_pow(np.eye(2), k)
        assert str(info.value) == message

    def test_names_the_matrix(self):
        with pytest.raises(InputError, match=r"^J must be square, got shape \(1, 2\)$"):
            mat_pow([[1.0, 2.0]], 2, "J")

    def test_overflow_is_a_numeric_failure(self):
        # Warnings are errors in this suite: the guard must not warn either.
        with pytest.raises(NumericError, match=r"^A\^5 overflows$"):
            mat_pow([[1e100, 0.0], [0.0, 1.0]], 5, "A")
        np.testing.assert_array_equal(mat_pow([[2.0**300]], 3), [[2.0**900]])

    @settings(max_examples=40, deadline=None)
    @given(
        int_matrices(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_power_additivity(self, m, j, k):
        lhs = mat_pow(m, j + k)
        rhs = mat_pow(m, j) @ mat_pow(m, k)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale
