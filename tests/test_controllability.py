import dataclasses
import json
import warnings

import numpy as np
import pytest

from nnscontrol import (
    DEFAULT_TOL,
    KINDS,
    InputError,
    Tolerances,
    build_decomposition,
    controllability,
    feasible_nonneg_solution,
    generate_system,
    left_eigensystem,
    matrixcore,
    null_space_basis,
    pbh_rank,
    rank,
)
from nnscontrol.cli import run_command
from nnscontrol.controllability import (
    Certificate,
    SystemPair,
    apply_input_basis,
    certificate_direction,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    check_nonneg,
    check_nonneg_sparse,
    check_sparse,
    input_count_bound_check,
    min_sparsity,
    verify_certificate,
)
from nnscontrol.errors import NoFeasibleSparsityError, NumericError
from nnscontrol.fixtures import (
    change_of_basis_matrix,
    change_of_basis_system,
    change_of_basis_transformed,
)

from helpers import count_linalg_calls, defective_condition_i_system, rank_cut_disagreement

COB = change_of_basis_system()
COB_T = change_of_basis_transformed()
PHI = change_of_basis_matrix()


class TestSystemPair:
    def test_dimensions(self):
        assert COB.n == 3
        assert COB.m == 4

    def test_rejects_nonsquare_a(self):
        with pytest.raises(InputError):
            SystemPair(A=np.zeros((2, 3)), B=np.zeros((2, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(InputError):
            SystemPair(A=np.eye(2), B=np.zeros((3, 1)))

    def test_rejects_empty_b(self):
        with pytest.raises(InputError):
            SystemPair(A=np.eye(2), B=np.zeros((2, 0)))

    def test_rejects_empty_state_space(self):
        with pytest.raises(InputError):
            SystemPair(A=np.zeros((0, 0)), B=np.zeros((0, 1)))

    def test_stores_c_ordered_arrays_without_negative_zeros(self):
        a = np.asfortranarray([[-0.0, 1.0], [2.0, 0.0]])
        sys = SystemPair(A=a, B=np.array([[-0.0], [1.0]]))
        for stored in (sys.A, sys.B):
            assert stored.flags.c_contiguous
            assert not np.signbit(stored[stored == 0.0]).any()
        np.testing.assert_array_equal(sys.A, a)


def _negate_zeros(x: np.ndarray) -> np.ndarray:
    return np.where(x == 0.0, -0.0, x)


def _value_bytes(obj):
    """Every array's dtype, shape and bytes and every scalar's repr (which
    tells -0.0 from 0.0) inside a result, dataclasses and tuples included."""
    if dataclasses.is_dataclass(obj):
        return tuple(_value_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_value_bytes(v) for v in obj)
    return repr(obj)


class TestReportsDependOnValuesOnly:
    """A C-ordered A, its Fortran-ordered copy and A with every zero
    negated are the same system and get the same report bytes, and the
    same bytes from every public primitive."""

    @staticmethod
    def _reports(a: np.ndarray, b: np.ndarray) -> set[str]:
        reports = set()
        for variant in (np.ascontiguousarray(a), np.asfortranarray(a), _negate_zeros(a)):
            controllability._analysis.cache_clear()
            reports.add(json.dumps(check_nonneg_sparse(SystemPair(variant, b), 2).to_dict()))
        return reports

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_generated_systems(self, kind, n):
        for seed in range(3):
            sys = generate_system(kind, n, 4, seed).system
            assert len(self._reports(sys.A, sys.B)) == 1

    def test_integer_systems_with_zeros(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(-2, 3, size=(4, 4)).astype(float)
            b = rng.integers(-2, 3, size=(4, 2)).astype(float)
            assert len(self._reports(a, b) | self._reports(a, _negate_zeros(b))) == 1

    def test_public_primitives(self):
        matrices = [
            generate_system(kind, n, 4, seed).system.A
            for kind in KINDS
            for n in (3, 8)
            for seed in range(2)
        ]
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            matrices.append(rng.integers(-1, 2, size=(n, n)).astype(float))
        primitives = {
            "left_eigensystem": left_eigensystem,
            "rank": rank,
            "null_space_basis": null_space_basis,
            "feasible_nonneg_solution": lambda m: feasible_nonneg_solution(m, np.ones(len(m))),
            "build_decomposition": build_decomposition,
        }
        for a in matrices:
            variants = (np.ascontiguousarray(a), np.asfortranarray(a), _negate_zeros(a))
            for name, primitive in primitives.items():
                outputs = {_value_bytes(primitive(variant)) for variant in variants}
                assert len(outputs) == 1, name


class TestConditionI:
    def test_cob_passes(self):
        assert check_condition_i(COB).passed

    def test_zero_b_fails_everywhere(self):
        res = check_condition_i(SystemPair(A=np.eye(2), B=np.zeros((2, 1))))
        assert not res.passed
        cert = res.certificate
        assert cert.kind == "violates_condition_i"
        assert cert.eigenvalue == pytest.approx(1.0)
        assert np.abs(cert.z).max() == pytest.approx(1.0)

    def test_complex_eigenvalue_witness(self):
        # A rotation has only complex eigenvalues; with B = 0 every left
        # eigenvector annihilates it, so the certificate carries a complex z.
        sys = SystemPair(A=np.array([[0.0, -1.0], [1.0, 0.0]]), B=np.zeros((2, 1)))
        res = check_condition_i(sys)
        assert not res.passed
        cert = res.certificate
        assert abs(abs(cert.eigenvalue) - 1.0) <= 1e-9
        assert abs(cert.eigenvalue.imag) > 0.5
        assert np.iscomplexobj(cert.z)
        assert verify_certificate(sys, cert).valid
        restored = type(cert).from_dict(cert.to_dict())
        assert verify_certificate(sys, restored).valid
        direction = certificate_direction(cert)
        assert np.isreal(direction).all()
        assert np.linalg.norm(direction) == pytest.approx(1.0)

    def test_nearly_real_witness_is_made_real(self):
        # B reaches e1 only, so A_u is the block [[0, 100], [-1e-16, 0]] with
        # eigenvalues +/- 1e-7 i, two complex groups. Its left singular
        # direction at the first, scaled to unit max modulus, is e3 up to an
        # imaginary part within eig_imag_tol, so the certificate carries the
        # real z = e3 up to 1e-25, and e3^T B = 0.
        a = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 100.0], [0.0, -1e-16, 0.0]])
        sys = SystemPair(A=a, B=np.array([[1.0], [0.0], [0.0]]))
        res = check_condition_i(sys)
        assert not res.passed
        cert = res.certificate
        assert cert.eigenvalue.imag == pytest.approx(-1e-7)
        assert res.other_violations == (cert.eigenvalue.conjugate(),)
        assert not np.iscomplexobj(cert.z)
        np.testing.assert_allclose(cert.z, [0.0, 0.0, 1.0], rtol=0.0, atol=1e-25)
        assert cert.max_zb == 0.0
        assert verify_certificate(sys, cert).valid

    def test_huge_entry_does_not_overflow(self):
        # The staircase runs on A / scale_unit(A), whose norm cannot
        # overflow; condition ii fails at 1e200 with z = -e1.
        sys = SystemPair(A=np.diag([1e200, 1.0]), B=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_nonneg_sparse(sys, 1)
            assert report.condition_i.passed
            cert = report.condition_ii.certificate
            assert cert.eigenvalue == 1e200
            assert verify_certificate(sys, cert).valid

    def test_huge_nilpotent_a_passes(self):
        # A is nilpotent and B = e1 reaches e2 through A's second row. Unscaled,
        # ||A||_F = 2e308 overflowed, the cut rank_rtol ||A||_F was inf, every
        # coupling block ranked 0 and condition i failed at lambda = -1e308.
        sys = SystemPair(A=np.array([[1e308, 1e308], [-1e308, -1e308]]), B=np.eye(2)[:, :1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_condition_i(sys).passed

    @pytest.mark.parametrize("check", [check_condition_i, check_nonneg])
    def test_overflowing_unreached_block_is_a_numeric_error(self, check):
        # B spans ker A, and A maps nothing into it, so A_u = 2e308 overflows
        # when multiplied back: refused before eigvals sees an inf.
        sys = SystemPair(A=np.full((2, 2), 1e308), B=np.array([[1.0], [-1.0]]))
        with pytest.raises(NumericError, match="the block of A that no input reaches overflows"):
            check(sys)

    def test_shift_block_with_input_on_wrong_node(self):
        # z^T A = (0, z1) forces z = e2, and e2^T B = 0: certificate (0, e2).
        sys = SystemPair(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.array([[1.0], [0.0]]))
        res = check_condition_i(sys)
        assert not res.passed
        cert = res.certificate
        assert cert.eigenvalue == pytest.approx(0.0)
        np.testing.assert_allclose(np.abs(cert.z), [0.0, 1.0], atol=1e-10)
        assert verify_certificate(sys, cert).valid


class TestConditionIStaircaseCost:
    """Condition i costs one SVD of B and one SVD per staircase step. Only a
    failing check adds eigvals of the unreached block A_u, the clustering
    radius of the shared eigen-analysis and one SVD of A_u - lambda I."""

    def test_passing_check_runs_only_the_staircase(self, monkeypatch):
        # B = e1 and A e_j = j e_j + e_{j+1}: each step reaches one more state.
        a = np.diag([1.0, 2.0, 3.0, 4.0]) + np.eye(4, k=-1)
        sys = SystemPair(A=a, B=np.array([[1.0], [0.0], [0.0], [0.0]]))
        shapes = []
        counts = count_linalg_calls(monkeypatch, shapes=shapes)
        assert check_condition_i(sys).passed
        assert counts == {"eigvals": 0, "eig": 0, "svd": 4}
        assert shapes == [("svd", (4, 1)), ("svd", (3, 1)), ("svd", (2, 1)), ("svd", (1, 1))]

    def test_one_column_violation(self, monkeypatch):
        sys = SystemPair(A=np.diag([1.0, 2.0]), B=np.array([[1.0], [0.0]]))
        shapes = []
        counts = count_linalg_calls(monkeypatch, shapes=shapes)
        res = check_condition_i(sys)
        assert counts == {"eigvals": 2, "eig": 1, "svd": 3}
        assert shapes == [
            ("svd", (2, 1)),  # B
            ("svd", (1, 1)),  # the coupling block, of rank 0
            ("eigvals", (1, 1)),  # A_u
            ("eigvals", (2, 2)),  # the eigen-analysis, for its radius
            ("eig", (2, 2)),
            ("svd", (1, 1)),  # A_u - lambda I, for w
        ]
        assert res.certificate.eigenvalue == 2.0
        np.testing.assert_array_equal(res.certificate.z, [0.0, 1.0])

    def test_plane_violation_after_a_shared_eigen_analysis(self, monkeypatch):
        # A = I and B of rank 2: A_u is 1 x 1, and condition ii has already
        # run the eigen-analysis that condition i reads its radius from.
        b = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        sys = SystemPair(A=np.eye(3), B=b)
        shapes = []
        count_linalg_calls(monkeypatch, shapes=shapes)
        check_condition_ii(sys)
        shapes.clear()
        res = check_condition_i(sys)
        assert shapes == [("svd", (3, 3)), ("svd", (1, 2)), ("eigvals", (1, 1)), ("svd", (1, 1))]
        np.testing.assert_array_equal(np.abs(res.certificate.z), [0.0, 0.0, 1.0])
        assert verify_certificate(sys, res.certificate).valid


def _pbh_violations(sys):
    """Reference for condition i: eigenvalues where [lambda I - A | B] loses rank,
    in the order the report lists them (largest modulus first)."""
    found = [
        g.eigenvalue
        for g in left_eigensystem(sys.A).groups
        if pbh_rank(sys.A, sys.B, g.eigenvalue) < sys.n
    ]
    return sorted(found, key=lambda v: (-abs(v), v.real, v.imag))


def _similar(d, b_d, seed):
    """(T D T^-1, T B_D) for a well-conditioned random T: the left eigenvectors
    of the result are T^-T times those of D, and their products with B are
    the rows of B_D."""
    rng = np.random.default_rng(seed)
    n = d.shape[0]
    t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return SystemPair(A=t @ d @ np.linalg.inv(t), B=t @ b_d)


def _planted_real(seed):
    # Row 0 of B_D is zero: the left eigenvector for 2.5 annihilates B.
    rng = np.random.default_rng(seed)
    b_d = rng.standard_normal((5, 2))
    b_d[0] = 0.0
    return _similar(np.diag([2.5, -1.0, 0.5, 1.5, -2.0]), b_d, seed), [2.5]


def _planted_complex_pair(seed):
    # Rows 0 and 1 of B_D are zero, so both 1 + 2i and 1 - 2i violate.
    rng = np.random.default_rng(seed)
    d = np.diag([0.0, 0.0, -0.5, 0.7, 3.0])
    d[:2, :2] = [[1.0, -2.0], [2.0, 1.0]]
    b_d = rng.standard_normal((5, 3))
    b_d[:2] = 0.0
    return _similar(d, b_d, seed), [1 - 2j, 1 + 2j]


def _planted_double(seed):
    # 1.5 has a two-dimensional eigenspace; rows 0 and 1 of B_D are r and 2r,
    # so only z = 2 e_0 - e_1 (in D's coordinates) annihilates B.
    rng = np.random.default_rng(seed)
    b_d = rng.standard_normal((5, 3))
    b_d[1] = 2.0 * b_d[0]
    return _similar(np.diag([1.5, 1.5, -0.8, 0.3, 2.2]), b_d, seed), [1.5]


class TestConditionIAgainstPencil:
    """Condition i decided by the staircase matches the pencil rank test:
    pass/fail exactly, and each violation within the clustering radius of a
    reference group, and the reverse."""

    def _assert_matches_reference(self, sys):
        res = check_condition_i(sys)
        reference = _pbh_violations(sys)
        assert res.passed == (not reference)
        if res.passed:
            assert res.certificate is None and res.other_violations == ()
            return
        found = [res.certificate.eigenvalue, *res.other_violations]
        radius = left_eigensystem(sys.A).cluster_radius
        assert len(found) == len(reference)
        for ours, theirs in ((found, reference), (reference, found)):
            assert all(min(abs(v - w) for w in theirs) <= radius for v in ours)
        assert verify_certificate(sys, res.certificate).valid

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_generated_systems(self, kind, n):
        for m in (1, 3, 6):
            for seed in range(3):
                self._assert_matches_reference(generate_system(kind, n, m, seed).system)

    @pytest.mark.parametrize("plant", [_planted_real, _planted_complex_pair, _planted_double])
    def test_planted_violations(self, plant):
        for seed in range(5):
            sys, planted = plant(seed)
            self._assert_matches_reference(sys)
            res = check_condition_i(sys)
            found = [res.certificate.eigenvalue, *res.other_violations]
            assert len(found) == len(planted)
            for lam, expected in zip(sorted(found, key=lambda v: v.imag), planted):
                assert abs(lam - expected) <= 1e-8


def _defective(lam_index, lam, k, seed, annihilate=True):
    rng = np.random.default_rng([seed, lam_index, k, 8])
    return defective_condition_i_system(lam, k, 8, 2, rng, annihilate)


class TestDefectiveConditionI:
    """A condition-i violation planted at a Jordan block J_k(lam), in a basis
    whose columns are scaled by up to 10 either way: the staircase finds it,
    and the certificate verifies, however far the eigenvalue splits. With a
    full Gaussian B_J the same systems pass."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("lam_index, lam", list(enumerate((0.0, 0.5, 1.0))))
    def test_planted_violation_is_found(self, lam_index, lam, k):
        for seed in range(10):
            sys = _defective(lam_index, lam, k, seed)
            res = check_condition_i(sys)
            assert not res.passed
            assert abs(res.certificate.eigenvalue - lam) <= 1e-3
            assert verify_certificate(sys, res.certificate).valid

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("lam_index, lam", list(enumerate((0.0, 0.5, 1.0))))
    def test_gaussian_input_passes(self, lam_index, lam, k):
        for seed in range(10):
            assert check_condition_i(_defective(lam_index, lam, k, seed, annihilate=False)).passed


class TestConditionII:
    def test_cob_transformed_fails_at_zero(self):
        res = check_condition_ii(COB_T)
        assert not res.passed
        cert = res.certificate
        assert cert.kind == "violates_condition_ii"
        assert abs(cert.eigenvalue) <= 1e-10
        np.testing.assert_allclose(np.abs(cert.z), [0.0, 0.0, 1.0], atol=1e-10)
        assert verify_certificate(COB_T, cert).valid

    def test_monotone_scalar_integrator(self):
        res = check_condition_ii(SystemPair(A=np.eye(1), B=np.array([[1.0]])))
        assert not res.passed
        cert = res.certificate
        assert cert.eigenvalue == pytest.approx(1.0)
        np.testing.assert_allclose(cert.z, [-1.0], atol=1e-10)
        assert cert.max_zb <= 0.0 + 1e-12

    def test_vacuous_without_nonnegative_eigenvalues(self):
        assert check_condition_ii(SystemPair(A=-np.eye(2), B=np.eye(2))).passed

    def test_cob_original_passes(self):
        assert check_condition_ii(COB).passed


class TestConditionIII:
    def test_cob_at_s1(self):
        res = check_condition_iii(COB, 1)
        assert res.passed
        assert res.rank_a == 2
        assert res.required == 1

    def test_zero_matrix_boundary(self):
        sys = SystemPair(A=np.zeros((2, 2)), B=np.eye(2))
        assert check_condition_iii(sys, 2).passed
        assert not check_condition_iii(sys, 1).passed

    def test_huge_a_keeps_its_rank(self):
        # Unscaled, sigma_1 = 2e308 overflowed and rank(A) came out 0.
        res = check_condition_iii(SystemPair(A=np.full((2, 2), 1e308), B=np.eye(2)), 1)
        assert res.passed
        assert res.rank_a == 1

    @pytest.mark.parametrize("bad_s", [0, -1, 5, 2.5, "one"])
    def test_rejects_out_of_range_sparsity(self, bad_s):
        with pytest.raises(InputError):
            check_condition_iii(COB, bad_s)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_boolean_sparsity(self, flag):
        for check in (check_condition_iii, check_nonneg_sparse, check_sparse):
            with pytest.raises(InputError, match="must be an integer"):
                check(COB, flag)


class TestFullChecks:
    def test_cob_controllable_at_s1(self):
        report = check_nonneg_sparse(COB, 1)
        assert report.verdict == "controllable"
        assert report.certificate is None

    def test_cob_transformed_uncontrollable_with_certificate(self):
        report = check_nonneg_sparse(COB_T, 1)
        assert report.verdict == "uncontrollable"
        cert = report.certificate
        assert cert.kind == "violates_condition_ii"
        np.testing.assert_allclose(np.abs(cert.z), [0, 0, 1], atol=1e-10)
        assert verify_certificate(COB_T, cert).valid

    def test_negatively_stable_pair(self):
        report = check_nonneg_sparse(SystemPair(A=-np.eye(2), B=np.eye(2)), 1)
        assert report.verdict == "controllable"

    def test_check_nonneg(self):
        assert check_nonneg(COB).controllable
        assert not check_nonneg(SystemPair(A=np.eye(1), B=np.array([[1.0]]))).controllable
        assert not check_nonneg(
            SystemPair(A=np.array([[0.5]]), B=np.array([[-1.0]]))
        ).controllable

    def test_check_sparse(self):
        assert check_sparse(COB, 1).controllable
        assert not check_sparse(SystemPair(A=np.zeros((2, 2)), B=np.eye(2)), 1).controllable
        assert check_sparse(SystemPair(A=np.eye(2), B=np.eye(2)), 1).controllable

    def test_report_shape(self):
        report = check_nonneg_sparse(COB, 1)
        data = report.to_dict()
        assert data["verdict"] == "controllable"
        assert data["condition_iii"]["rank_a"] == 2
        assert len(data["eigenvalues"]) == 2
        assert data["tolerances"]["ineq_tol"] == DEFAULT_TOL.ineq_tol


class TestSplitDefectiveEigenvalue:
    """This A has the eigenvalue 0 with algebraic multiplicity 3 and a
    two-dimensional left eigenspace; eigvals splits it into -1.1e-7, 0 and
    1.1e-7, each farther from the next than the clustering radius."""

    def test_paired_input_is_uncontrollable(self):
        gen = generate_system("planted_rank_deficient", 4, 3, 0).system
        np.testing.assert_array_equal(gen.B[:, 2], -gen.B[:, 0])
        sys = SystemPair(A=gen.A, B=gen.B[:, [0, 2]])
        # Some z in the left kernel of A annihilates c in B = [c | -c]; a
        # group holding only one direction of that kernel would miss it.
        report = check_nonneg_sparse(sys, 2)
        assert report.verdict == "uncontrollable"
        assert not report.condition_i.passed
        assert verify_certificate(sys, report.certificate).valid


class TestMinSparsity:
    def test_cob(self):
        assert min_sparsity(COB) == 1

    def test_scalar_zero_state_matrix(self):
        # Hand check: z B = (z, -z) is never componentwise nonpositive for
        # z != 0, so both eigenvector conditions hold and N - rank = 1.
        sys = SystemPair(A=np.zeros((1, 1)), B=np.array([[1.0, -1.0]]))
        assert min_sparsity(sys) == 1

    def test_nonsingular_clamps_to_one(self):
        assert min_sparsity(SystemPair(A=-np.eye(2), B=np.eye(2))) == 1

    def test_none_when_not_nonneg_controllable(self):
        assert min_sparsity(SystemPair(A=np.eye(1), B=np.array([[1.0]]))) is None


def _paired_system(seed: int, n: int = 16) -> SystemPair:
    """A random A with B = [C | -C]: nonnegative controllable, rank(A) = n."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, 4))
    return SystemPair(A=rng.standard_normal((n, n)), B=np.hstack([c, -c]))


def _memoized_reports(calls) -> list[str]:
    """check_nonneg_sparse at s = 1 and min_sparsity for each (system, tol), in order."""
    return [
        json.dumps([check_nonneg_sparse(sys, 1, tol).to_dict(), min_sparsity(sys, tol)])
        for sys, tol in calls
    ]


def _fresh_reports(calls) -> list[str]:
    reports = []
    for sys, tol in calls:
        controllability._analysis.cache_clear()
        report = check_nonneg_sparse(sys, 1, tol).to_dict()
        controllability._analysis.cache_clear()
        reports.append(json.dumps([report, min_sparsity(sys, tol)]))
    return reports


# diag(1, -2): left eigenvectors e1 and e2; condition ii looks at 1 only.
SAME_A = np.diag([1.0, -2.0])
SAME_A_INPUTS = {
    "both pass": np.hstack([np.eye(2), -np.eye(2)]),
    "i fails at -2": np.array([[1.0, -1.0], [0.0, 0.0]]),
    "ii fails": np.eye(2),
}


def _call_every_entry_point(sys: SystemPair) -> None:
    check_condition_i(sys)
    check_condition_ii(sys)
    check_condition_iii(sys, 1)
    check_nonneg(sys)
    check_sparse(sys, 1)
    check_nonneg_sparse(sys, 1)
    input_count_bound_check(sys)
    min_sparsity(sys)


class TestSharedAnalysis:
    """Consecutive calls on the same pair (A, B) and tol share one staircase,
    one eigen-analysis, one rank(A) and one decision of conditions i and ii;
    anything else gets a fresh analysis."""

    def test_check_then_min_sparsity_analyses_once(self, monkeypatch):
        sys = _paired_system(5)
        shapes = []
        counts = count_linalg_calls(monkeypatch, shapes=shapes)
        report = check_nonneg_sparse(sys, 2)
        assert min_sparsity(sys) == 1
        assert report.controllable
        # One eigvals and one eig for the eigen-analysis (well separated
        # eigenvalues, one-column eigenspaces). The SVDs are rank(A), then
        # the staircase: B (rank 4), and three coupling blocks of rank 4.
        assert counts == {"eigvals": 1, "eig": 1, "svd": 5}
        assert [shape for name, shape in shapes if name == "svd"] == [
            (16, 16), (16, 8), (12, 4), (8, 4), (4, 4)
        ]

    def test_every_entry_point_reads_the_analysis(self, monkeypatch):
        sys = _paired_system(6)
        counts = count_linalg_calls(monkeypatch)
        _call_every_entry_point(sys)
        assert counts == {"eigvals": 1, "eig": 1, "svd": 5}

    @pytest.mark.parametrize(
        "label, a_u_shapes", [("i fails at -2", [(1, 1)]), ("ii fails", [])]
    )
    def test_every_entry_point_decides_each_condition_once(self, monkeypatch, label, a_u_shapes):
        # Condition ii's one cone question (at eigenvalue 1) and condition
        # i's eigvals of A_u run once for all the entry points.
        questions = []
        decide = controllability.homogeneous_nonzero

        def counted(m, tol):
            questions.append(m.shape)
            return decide(m, tol)

        monkeypatch.setattr(controllability, "homogeneous_nonzero", counted)
        shapes = []
        count_linalg_calls(monkeypatch, ("eigvals",), shapes=shapes)
        _call_every_entry_point(SystemPair(A=SAME_A, B=SAME_A_INPUTS[label]))
        assert questions == [(2, 1)]
        assert sorted(shape for _, shape in shapes) == sorted([(2, 2)] + a_u_shapes)

    def test_interleaved_systems_match_fresh_calls(self, monkeypatch):
        a1, a2 = _paired_system(1), _paired_system(2)
        calls = [(a1, DEFAULT_TOL), (a2, DEFAULT_TOL), (a1, DEFAULT_TOL)]
        counts = count_linalg_calls(monkeypatch, ("eigvals",))
        memoized = _memoized_reports(calls)
        assert counts["eigvals"] == 3
        assert memoized == _fresh_reports(calls)

    def test_changed_tolerances_get_a_fresh_analysis(self, monkeypatch):
        # rank(A) is 2 under the default rank_rtol and 1 under 1e-3.
        sys = SystemPair(A=np.diag([1.0, 1e-5]), B=np.array([[1.0, -1.0], [1.0, -1.0]]))
        loose = Tolerances(rank_rtol=1e-3)
        calls = [(sys, DEFAULT_TOL), (sys, loose), (sys, DEFAULT_TOL)]
        counts = count_linalg_calls(monkeypatch, ("eigvals",))
        memoized = _memoized_reports(calls)
        assert counts["eigvals"] == 3
        assert memoized == _fresh_reports(calls)
        ranks = [json.loads(r)[0]["condition_iii"]["rank_a"] for r in memoized]
        assert ranks == [2, 1, 2]

    def test_one_bit_of_a_gives_a_fresh_analysis(self, monkeypatch):
        sys = _paired_system(3)
        a = sys.A.copy()
        a[0, 0] = np.nextafter(a[0, 0], np.inf)
        calls = [(sys, DEFAULT_TOL), (SystemPair(A=a, B=sys.B), DEFAULT_TOL)]
        counts = count_linalg_calls(monkeypatch, ("eigvals",))
        memoized = _memoized_reports(calls)
        assert counts["eigvals"] == 2
        assert memoized == _fresh_reports(calls)

    def test_one_bit_of_b_gives_a_fresh_analysis(self, monkeypatch):
        sys = _paired_system(3)
        b = sys.B.copy()
        b[0, 0] = np.nextafter(b[0, 0], np.inf)
        calls = [(sys, DEFAULT_TOL), (SystemPair(A=sys.A, B=b), DEFAULT_TOL)]
        counts = count_linalg_calls(monkeypatch, ("eigvals",))
        memoized = _memoized_reports(calls)
        assert counts["eigvals"] == 2
        assert memoized == _fresh_reports(calls)

    def test_same_a_different_b(self, monkeypatch):
        # The memo is keyed on the pair, so each B is a fresh analysis.
        a, inputs = SAME_A, SAME_A_INPUTS
        counts = count_linalg_calls(monkeypatch, ("eigvals",))
        results = {label: check_nonneg(SystemPair(A=a, B=b)) for label, b in inputs.items()}
        assert counts["eigvals"] == 4  # three eigen-analyses, and A_u where i fails
        passed = {
            label: (report.condition_i.passed, report.condition_ii.passed)
            for label, report in results.items()
        }
        assert passed == {
            "both pass": (True, True),
            "i fails at -2": (False, True),
            "ii fails": (True, False),
        }
        assert results["i fails at -2"].certificate.eigenvalue == pytest.approx(-2.0, abs=1e-15)
        for label, b in inputs.items():
            controllability._analysis.cache_clear()
            assert results[label].to_dict() == check_nonneg(SystemPair(A=a, B=b)).to_dict()

    def test_pairs_are_read_only(self):
        # So no write after a check can reach the memo, which holds the pair.
        sys = _paired_system(4)
        check_condition_i(sys)
        for matrix in (sys.A, sys.B):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0

    def test_certificates_are_read_only(self):
        # The memo hands one certificate to every report of the pair, so no
        # write to one report's certificate can reach another's.
        for label in ("i fails at -2", "ii fails"):
            sys = SystemPair(A=SAME_A, B=SAME_A_INPUTS[label])
            cert = check_nonneg(sys).certificate
            assert check_nonneg_sparse(sys, 1).certificate is cert
            with pytest.raises(ValueError, match="read-only"):
                cert.z[0] = 0.0

    def test_equal_pairs_built_apart_share_one_analysis(self, monkeypatch):
        sys = _paired_system(5)
        layouts = [SystemPair(np.asfortranarray(sys.A), np.asfortranarray(sys.B))]
        counts = count_linalg_calls(monkeypatch)
        check_nonneg_sparse(sys, 1)
        min_sparsity(layouts[0])
        assert counts == {"eigvals": 1, "eig": 1, "svd": 5}

    def test_cli_check_then_min_sparsity_analyse_once(self, monkeypatch, tmp_path):
        # Each command parses the file into a new pair: the cli-commands traffic.
        sys = _paired_system(5)
        path = tmp_path / "paired.json"
        path.write_text(json.dumps({"A": sys.A.tolist(), "B": sys.B.tolist()}))
        counts = count_linalg_calls(monkeypatch, ("eigvals", "eig"))
        assert run_command(["check", str(path)])[0]["result"]["verdict"] == "controllable"
        assert run_command(["min-sparsity", str(path)])[0]["result"]["min_sparsity"] == 1
        assert counts == {"eigvals": 1, "eig": 1}


class TestSystemPairValue:
    """A SystemPair is a value: pairs with equal entries are equal, whatever
    the memory layout or the sign of a zero, and hash alike."""

    @staticmethod
    def _variants(sys: SystemPair) -> list[SystemPair]:
        return [
            SystemPair(np.ascontiguousarray(sys.A), np.ascontiguousarray(sys.B)),
            SystemPair(np.asfortranarray(sys.A), np.asfortranarray(sys.B)),
            SystemPair(_negate_zeros(sys.A), _negate_zeros(sys.B)),
            SystemPair(sys.A.tolist(), sys.B.tolist()),
        ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_values_are_equal_pairs(self, kind):
        sys = generate_system(kind, 5, 3, 0).system
        for other in self._variants(sys):
            assert other == sys and not other != sys
            assert hash(other) == hash(sys)

    def test_pairs_are_dict_keys(self):
        sys = SystemPair(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.array([[0.0], [1.0]]))
        keys = {pair: i for i, pair in enumerate(self._variants(sys))}
        assert list(keys.values()) == [3]
        assert len({sys, SystemPair(sys.A, -sys.B), SystemPair(2.0 * sys.A, sys.B)}) == 3

    def test_same_bytes_split_differently_are_unequal(self):
        # A's length fixes N and B's then fixes m: (1 x 1, 1 x 7) is not (2 x 2, 2 x 2).
        entries = np.arange(1.0, 9.0)
        small = SystemPair(entries[:1].reshape(1, 1), entries[1:].reshape(1, 7))
        square = SystemPair(entries[:4].reshape(2, 2), entries[4:].reshape(2, 2))
        assert small != square
        assert small.A.tobytes() + small.B.tobytes() == square.A.tobytes() + square.B.tobytes()

    def test_other_types_are_unequal(self):
        sys = SystemPair(A=np.eye(2), B=np.ones((2, 1)))
        assert sys != (sys.A, sys.B)
        assert sys != "pair"

    def test_callers_arrays_stay_writable(self):
        a, b = np.eye(2), np.ones((2, 1))
        SystemPair(a, b)
        a[0, 0] = b[0, 0] = 2.0


class TestInputCountBound:
    def test_cob(self):
        assert input_count_bound_check(COB)

    def test_scalar_paired(self):
        assert input_count_bound_check(SystemPair(A=np.zeros((1, 1)), B=np.array([[1.0, -1.0]])))

    def test_vacuous_when_uncontrollable(self):
        assert input_count_bound_check(SystemPair(A=np.eye(1), B=np.array([[1.0]])))


class TestVerifyCertificate:
    def test_cob_transformed_accepts_planted_pair(self):
        cert = Certificate(
            kind="violates_condition_ii",
            eigenvalue=0.0,
            z=np.array([0.0, 0.0, 1.0]),
            residual_eig=0.0,
            max_zb=0.0,
        )
        assert verify_certificate(COB_T, cert).valid

    def test_scalar_integrator(self):
        cert = Certificate(
            kind="violates_condition_ii",
            eigenvalue=1.0,
            z=np.array([-1.0]),
            residual_eig=0.0,
            max_zb=-1.0,
        )
        assert verify_certificate(SystemPair(A=np.eye(1), B=np.array([[1.0]])), cert).valid

    def test_rejects_certificate_against_original_system(self):
        # e3^T B = (0, 0, 1, -1) has a positive entry, so the witness fails.
        cert = Certificate(
            kind="violates_condition_ii",
            eigenvalue=0.0,
            z=np.array([0.0, 0.0, 1.0]),
            residual_eig=0.0,
            max_zb=0.0,
        )
        check = verify_certificate(COB, cert)
        assert not check.valid
        assert not check.sign_ok
        assert check.eig_ok

    def test_roundtrip_through_dict(self):
        cert = check_nonneg_sparse(COB_T, 1).certificate
        restored = Certificate.from_dict(cert.to_dict())
        assert verify_certificate(COB_T, restored).valid

    def _cert(self, z, kind="violates_condition_ii", eigenvalue=0.0):
        return Certificate(
            kind=kind, eigenvalue=eigenvalue, z=np.asarray(z), residual_eig=0.0, max_zb=0.0
        )

    @pytest.mark.parametrize("scale", [1e308, 1e-310])
    def test_bound_does_not_overflow(self, scale):
        # z = -e1 is no left eigenvector of the all-1e308 matrix (residual
        # 1e308), but ||A||_2 = 2e308 once made the bound inf.
        sys = SystemPair(A=np.full((2, 2), scale), B=np.eye(2))
        check = verify_certificate(sys, self._cert([-1.0, 0.0], eigenvalue=5.0))
        assert not check.valid and not check.eig_ok
        assert check.residual_eig == max(scale, 5.0)

    def test_zero_a_accepts_its_witness(self):
        sys = SystemPair(A=np.zeros((2, 2)), B=np.eye(2))
        assert verify_certificate(sys, self._cert([-1.0, 0.0])).valid

    def test_wrong_length_is_an_input_error(self):
        with pytest.raises(InputError, match="length 3"):
            verify_certificate(COB_T, self._cert([0.0, 1.0]))

    def test_unknown_kind_is_an_input_error(self):
        with pytest.raises(InputError, match="^unknown certificate kind 'bogus'$"):
            verify_certificate(COB_T, self._cert([0.0, 0.0, 1.0], kind="bogus"))

    def test_zero_z_is_invalid(self):
        check = verify_certificate(COB_T, self._cert(np.zeros(3)))
        assert not check.valid
        assert check.residual_eig == np.inf and check.max_zb == np.inf

    def test_complex_kind_ii_witness_is_invalid(self):
        # The real part e3 is the planted witness, but a kind-ii z must be
        # real: an imaginary part beyond eig_imag_tol makes it invalid.
        check = verify_certificate(COB_T, self._cert([0.5j, 0.0, 1.0]))
        assert not check.valid
        assert not check.sign_ok and not check.lambda_ok

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": "violates_condition_iv", "lambda": {"re": 0, "im": 0},
              "z": {"re": [1.0], "im": [0.0]}}, "unknown certificate kind"),
            ({"kind": "violates_condition_i", "lambda": {"re": 0, "im": 0},
              "z": {"re": [], "im": []}}, "nonempty vector"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, 0, 1], "im": [0]}},
             "^certificate z must be a nonempty vector, got lengths re 3, im 1$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, float("nan"), 1], "im": [0, 0, 0]}},
             "^malformed certificate: z.re entry 2 is not finite$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": "x", "im": 0},
              "z": {"re": [0, 0, 1], "im": [0, 0, 0]}},
             "^malformed certificate: lambda entry 1 is not a number: 'x'$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": float("nan"), "im": 0},
              "z": {"re": [0, 0, 1], "im": [0, 0, 0]}},
             "^malformed certificate: lambda entry 1 is not finite$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0}},
             "^malformed certificate: 'z'$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, False, True], "im": [0, 0, 0]}},
             "^malformed certificate: z.re entry 2 is not a number: False$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, 0, 1], "im": [0, 0, 0]}, "residual_eig": "abc"},
             "^malformed certificate: residual_eig entry 1 is not a number: 'abc'$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, 0, 1], "im": [0, 0, 0]}, "max_zb": None},
             "^malformed certificate: max_zb entry 1 is not a number: None$"),
            ({"kind": "violates_condition_ii", "lambda": {"re": 0, "im": 0},
              "z": {"re": [0, 0, 10**400], "im": [0, 0, 0]}},
             "^malformed certificate: z.re entry 3 is not finite$"),
        ],
        ids=["unknown-kind", "empty-z", "short-im", "nan-z", "string-lambda", "nan-lambda",
             "missing-key", "bool-z", "string-residual", "null-max-zb", "int-1e400-z"],
    )
    def test_from_dict_rejects(self, data, message):
        with pytest.raises(InputError, match=message):
            Certificate.from_dict(data)


class TestCertificateDirection:
    def _cert(self, z):
        return Certificate(
            kind="violates_condition_i", eigenvalue=1j, z=np.asarray(z), residual_eig=0.0,
            max_zb=0.0,
        )

    def test_purely_imaginary_z_uses_its_imaginary_part(self):
        direction = certificate_direction(self._cert([0.0 + 3.0j, 0.0 - 4.0j]))
        np.testing.assert_allclose(direction, [0.6, -0.8])
        assert not np.iscomplexobj(direction)

    def test_zero_z_is_an_input_error(self):
        with pytest.raises(InputError, match="zero"):
            certificate_direction(self._cert(np.zeros(2, dtype=complex)))


class TestApplyInputBasis:
    def test_identity(self):
        out = apply_input_basis(COB, np.eye(4))
        np.testing.assert_array_equal(out.B, COB.B)

    def test_cob_basis_reproduces_transformed_fixture(self):
        out = apply_input_basis(COB, PHI)
        np.testing.assert_array_equal(out.B, COB_T.B)

    def test_scaling(self):
        out = apply_input_basis(COB, 2.0 * np.eye(4))
        np.testing.assert_array_equal(out.B, 2.0 * COB.B)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            apply_input_basis(COB, np.eye(3))


class TestInvariants:
    def test_monotone_in_s(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            sys = SystemPair(
                A=rng.integers(-2, 3, size=(n, n)).astype(float),
                B=rng.integers(-2, 3, size=(n, m)).astype(float),
            )
            verdicts = [check_nonneg_sparse(sys, s).controllable for s in range(1, m + 1)]
            for lo, hi in zip(verdicts, verdicts[1:]):
                assert not (lo and not hi)

    def test_consistency_between_variants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            sys = SystemPair(
                A=rng.integers(-2, 3, size=(n, n)).astype(float),
                B=rng.integers(-2, 3, size=(n, m)).astype(float),
            )
            full_at_m = check_nonneg_sparse(sys, m)
            nonneg = check_nonneg(sys)
            assert full_at_m.controllable == (
                nonneg.controllable and m >= full_at_m.condition_iii.required
            )
            for s in range(1, m + 1):
                combined = check_sparse(sys, s).controllable and check_condition_ii(sys).passed
                assert combined == check_nonneg_sparse(sys, s).controllable

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            a = rng.integers(-2, 3, size=(n, n)).astype(float)
            b = rng.integers(-2, 3, size=(n, m)).astype(float)
            s = int(rng.integers(1, m + 1))
            lhs = check_nonneg_sparse(SystemPair(A=a, B=b), s).verdict
            rhs = check_nonneg_sparse(SystemPair(A=a, B=-b), s).verdict
            assert lhs == rhs

    def test_nonsingular_sparsity_irrelevant(self):
        rng = np.random.default_rng(6)
        found = 0
        while found < 20:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            a = rng.integers(-2, 3, size=(n, n)).astype(float)
            if abs(np.linalg.det(a)) < 0.5:
                continue
            found += 1
            sys = SystemPair(A=a, B=rng.integers(-2, 3, size=(n, m)).astype(float))
            verdicts = {check_nonneg_sparse(sys, s).verdict for s in range(1, m + 1)}
            assert len(verdicts) == 1

    def test_every_uncontrollable_report_has_valid_certificate(self):
        rng = np.random.default_rng(8)
        seen_uncontrollable = 0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            sys = SystemPair(
                A=rng.integers(-2, 3, size=(n, n)).astype(float),
                B=rng.integers(-2, 3, size=(n, m)).astype(float),
            )
            report = check_nonneg(sys)
            if report.controllable:
                continue
            seen_uncontrollable += 1
            assert report.certificate is not None
            assert verify_certificate(sys, report.certificate).valid
        assert seen_uncontrollable > 0

    def test_certificate_halfspace_on_random_rollouts(self):
        cert = check_nonneg_sparse(COB_T, 1).certificate
        z = certificate_direction(cert)
        rng = np.random.default_rng(9)
        a, b = COB_T.A, COB_T.B
        for _ in range(1000):
            k_steps = int(rng.integers(1, 11))
            x = np.zeros(3)
            for _ in range(k_steps):
                u = np.zeros(4)
                support = rng.choice(4, size=1, replace=False)
                u[support] = rng.uniform(0, 1, size=1)
                x = a @ x + b @ u
            assert z @ x <= 1e-8 * (1 + np.linalg.norm(x))


def _outcome(sys, s):
    report = check_nonneg_sparse(sys, s)
    return (
        report.verdict,
        report.condition_i.passed,
        report.condition_ii.passed,
        report.condition_iii.passed,
    )


class TestMetamorphic:
    """Verdicts and each condition's pass/fail are invariant under a state
    similarity, a permutation of B's columns and a positive scaling of them;
    condition i's pass/fail also under A -> 2^e A and column scalings of B
    up to 2^30."""

    @staticmethod
    def _cases(kind, n):
        for m in (1, 2, 3, 6):
            for seed in range(3):
                rng = np.random.default_rng([n, m, seed])
                sys = generate_system(kind, n, m, seed).system
                for s in sorted({1, m}):
                    yield sys, s, rng

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_state_similarity(self, kind, n):
        for sys, s, rng in self._cases(kind, n):
            # T = Q diag(d) with Q orthogonal and d in [0.5, 2]: cond(T) <= 4.
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = rng.uniform(0.5, 2.0, size=n)
            t, t_inv = q * d, (q / d).T
            moved = SystemPair(A=t @ sys.A @ t_inv, B=t @ sys.B)
            assert _outcome(moved, s) == _outcome(sys, s)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_input_permutation(self, kind, n):
        for sys, s, rng in self._cases(kind, n):
            moved = SystemPair(A=sys.A, B=sys.B[:, rng.permutation(sys.m)])
            assert _outcome(moved, s) == _outcome(sys, s)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_positive_input_scaling(self, kind, n):
        for sys, s, rng in self._cases(kind, n):
            moved = SystemPair(A=sys.A, B=sys.B * rng.uniform(0.1, 10.0, size=sys.m))
            assert _outcome(moved, s) == _outcome(sys, s)


    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_condition_i_under_scaling(self, kind, n):
        # The staircase cuts B's block at rank_rtol ||B||_F and A's blocks at
        # rank_rtol ||A||_F, so no scaling of A or B moves a rank decision.
        for m in (1, 2, 3, 6):
            for seed in range(3):
                sys = generate_system(kind, n, m, seed).system
                passed = check_condition_i(sys).passed
                moved = [SystemPair(A=sys.A * 2.0**e, B=sys.B) for e in (-30, -10, 10, 30)]
                moved += [
                    SystemPair(A=sys.A, B=sys.B * 2.0 ** (e * np.arange(1, m + 1) / m))
                    for e in (-30, 30)
                ]
                assert [check_condition_i(mv).passed for mv in moved] == [passed] * 6


def _assert_verdict_is_and(report):
    blocks = [report[key] for key in ("condition_i", "condition_ii", "condition_iii")]
    passed = all(block["passed"] for block in blocks if block is not None)
    assert report["verdict"] == ("controllable" if passed else "uncontrollable")


class TestPipelineContract:
    """check_nonneg_sparse, check_nonneg and check_sparse agree on every
    block they share, each block is the standalone condition check, and the
    verdict is the AND of the blocks present."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_entry_points_agree(self, kind, n):
        for m in (1, 3):
            for seed in range(3):
                sys = generate_system(kind, n, m, seed).system
                cond_i = check_condition_i(sys).to_dict()
                cond_ii = check_condition_ii(sys).to_dict()
                nonneg = check_nonneg(sys).to_dict()
                assert (nonneg["mode"], nonneg["s"]) == ("nonneg", None)
                assert nonneg["condition_i"] == cond_i
                assert nonneg["condition_ii"] == cond_ii
                assert nonneg["condition_iii"] is None
                _assert_verdict_is_and(nonneg)
                for s in range(1, m + 1):
                    cond_iii = check_condition_iii(sys, s).to_dict()
                    full = check_nonneg_sparse(sys, s).to_dict()
                    sparse = check_sparse(sys, s).to_dict()
                    assert (full["mode"], full["s"]) == ("nonneg_sparse", s)
                    assert (sparse["mode"], sparse["s"]) == ("sparse", s)
                    assert full["condition_i"] == sparse["condition_i"] == cond_i
                    assert full["condition_ii"] == cond_ii
                    assert sparse["condition_ii"] is None
                    assert full["condition_iii"] == sparse["condition_iii"] == cond_iii
                    assert full["eigenvalues"] == sparse["eigenvalues"] == nonneg["eigenvalues"]
                    assert full["tolerances"] == sparse["tolerances"] == nonneg["tolerances"]
                    _assert_verdict_is_and(full)
                    _assert_verdict_is_and(sparse)


class TestMinSparsityAgainstBruteForce:
    @staticmethod
    def _systems():
        for kind in KINDS:
            for n in (2, 4, 8):
                for m in (1, 3):
                    for seed in range(3):
                        yield generate_system(kind, n, m, seed).system
        # Fixed deficiencies with two or more paired columns reach level 2.
        for n in (4, 8):
            for m in (3, 4):
                for deficiency in (1, 2, 3):
                    for seed in range(2):
                        yield generate_system(
                            "planted_rank_deficient", n, m, seed, deficiency
                        ).system

    def test_smallest_controllable_level(self):
        levels = set()
        for sys in self._systems():
            expected = next(
                (s for s in range(1, sys.m + 1) if check_nonneg_sparse(sys, s).controllable),
                None,
            )
            assert min_sparsity(sys) == expected
            levels.add(expected)
        assert levels == {None, 1, 2}

    def test_rank_cut_fixture_fails_condition_i(self):
        # rank(A) = 1 at rank_rtol, and the staircase, cut at rank_rtol times
        # ||A||_F, leaves states unreached: condition i fails with a
        # certificate that verifies, so no sparsity level works.
        sys = rank_cut_disagreement()
        report = check_nonneg(sys)
        assert not report.condition_i.passed
        check = verify_certificate(sys, report.certificate)
        assert check.valid and check.residual_eig < 1e-9 and check.max_zb < 1e-15
        assert min_sparsity(sys) is None

    def test_rank_cut_disagreement_raises(self, monkeypatch):
        # A rank(A) below what condition i allows (N - rank(A) > m) cannot
        # happen in exact arithmetic; a rank that reads 0 stands in for it.
        sys = SystemPair(A=np.diag([-1.0, -2.0]), B=np.ones((2, 1)))
        assert check_nonneg(sys).controllable
        monkeypatch.setattr(controllability, "rank", lambda a, tol: 0)
        with pytest.raises(
            NoFeasibleSparsityError,
            match=r"^N - rank\(A\) = 2 exceeds the input dimension m = 1$",
        ):
            min_sparsity(sys)
