import numpy as np
import pytest

from nnscontrol import (
    DEFAULT_TOL,
    KINDS,
    InputError,
    generate_system,
    left_eigensystem,
    pbh_rank,
)
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
from nnscontrol.errors import NoFeasibleSparsityError
from nnscontrol.fixtures import (
    change_of_basis_matrix,
    change_of_basis_system,
    change_of_basis_transformed,
)

from helpers import rank_cut_disagreement

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

    def test_shift_block_with_input_on_wrong_node(self):
        # z^T A = (0, z1) forces z = e2, and e2^T B = 0: certificate (0, e2).
        sys = SystemPair(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.array([[1.0], [0.0]]))
        res = check_condition_i(sys)
        assert not res.passed
        cert = res.certificate
        assert cert.eigenvalue == pytest.approx(0.0)
        np.testing.assert_allclose(np.abs(cert.z), [0.0, 1.0], atol=1e-10)
        assert verify_certificate(sys, cert).valid


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
    """Condition i decided on the left eigenbases matches the pencil rank test."""

    def _assert_matches_reference(self, sys):
        res = check_condition_i(sys)
        reference = _pbh_violations(sys)
        assert res.passed == (not reference)
        if res.passed:
            assert res.certificate is None and res.other_violations == ()
            return
        assert [res.certificate.eigenvalue, *res.other_violations] == reference
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

    @pytest.mark.parametrize("bad_s", [0, -1, 5, 2.5, "one"])
    def test_rejects_out_of_range_sparsity(self, bad_s):
        with pytest.raises(InputError):
            check_condition_iii(COB, bad_s)


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
    similarity, a permutation of B's columns and a positive scaling of them."""

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

    def test_rank_cut_disagreement_raises(self):
        sys = rank_cut_disagreement()
        assert check_nonneg(sys).controllable
        with pytest.raises(
            NoFeasibleSparsityError,
            match=r"^N - rank\(A\) = 3 exceeds the input dimension m = 2$",
        ):
            min_sparsity(sys)
