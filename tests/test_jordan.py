import numpy as np
import pytest
from helpers import planted_structure_matrix as planted_matrix

from nnscontrol import InputError
from nnscontrol.jordan import (
    RowSplitDecomposition,
    build_decomposition,
    verify_decomposition,
    zero_structure,
)

A_DIAG = np.diag([-1.0, -1.0, 0.0])


class TestZeroStructure:
    def test_two_mixed_blocks(self):
        # rank sequence 3, 1, 0: one block of size 1 and one of size 2.
        st = zero_structure([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert st.n == 2
        assert st.q == 0
        assert st.q_sizes == (1, 1)
        assert st.r_tail == (2, 1)
        assert st.rank_sequence == (3, 1, 0, 0)

    def test_diagonal_with_simple_zero(self):
        st = zero_structure(A_DIAG)
        assert st.n == 1
        assert st.q == 2
        assert st.q_sizes == (1,)
        assert st.r_tail == (1,)
        assert st.rank_sequence == (3, 2, 2)

    def test_nonsingular(self):
        st = zero_structure(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert st.n == 0
        assert st.q == 2
        assert st.q_sizes == ()

    def test_zero_matrix(self):
        st = zero_structure(np.zeros((2, 2)))
        assert st.n == 1
        assert st.q == 0
        assert st.q_sizes == (2,)

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            zero_structure(np.zeros((2, 3)))

    def test_overflowing_power_is_refused(self):
        # A^2 overflows; an SVD of it would return a rank instead of failing.
        with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
            zero_structure([[1e200, 1.0], [0.0, 0.0]])

    def test_integer_identities_on_planted_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, _ = planted_matrix(rng)
            st = zero_structure(a)
            n_dim = a.shape[0]
            nullity = n_dim - st.rank_sequence[1]
            assert sum(st.q_sizes) == nullity
            assert st.q == n_dim - sum(
                (i + 1) * qi for i, qi in enumerate(st.q_sizes)
            )
            for k, rk in enumerate(st.r_tail, start=1):
                assert rk == sum(st.q_sizes[k - 1 :])
                assert rk <= nullity


class TestBuildDecomposition:
    def test_single_nilpotent_chain(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = build_decomposition(a)
        assert dec.structure.q == 0
        assert dec.structure.n == 2
        assert len(dec.parts) == 2
        p2 = dec.parts[1]
        assert np.abs(p2 @ a @ a).max() <= 1e-12
        assert np.abs(p2 @ a).max() > 1e-8
        assert np.linalg.matrix_rank(p2 @ a) == 1
        assert np.linalg.matrix_rank(p2) == 1

    def test_nonsingular_degenerates_to_identity(self):
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        dec = build_decomposition(a)
        np.testing.assert_array_equal(dec.P, np.eye(2))
        np.testing.assert_array_equal(dec.J, a)
        assert dec.parts == ()

    def test_diagonal_split_is_axis_aligned(self):
        dec = build_decomposition(A_DIAG)
        assert dec.structure.q == 2
        assert len(dec.parts) == 1
        # The only nilpotent row must read off the e3 coordinate.
        part = dec.parts[0]
        nonzero_rows = np.nonzero(np.abs(part).max(axis=1) > 1e-12)[0]
        assert len(nonzero_rows) == 1
        np.testing.assert_allclose(
            np.abs(part[nonzero_rows[0]]), [0.0, 0.0, 1.0], atol=1e-12
        )
        assert verify_decomposition(A_DIAG, dec).all_passed

    def test_self_consistency_on_planted_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, _ = planted_matrix(rng)
            dec = build_decomposition(a)
            report = verify_decomposition(a, dec)
            failing = [c.name for c in report.checks if not c.passed]
            assert report.all_passed, (a.tolist(), failing)


class TestVerifyDecomposition:
    def test_detects_scaled_j(self):
        dec = build_decomposition(A_DIAG)
        broken = RowSplitDecomposition(
            P=dec.P, J=2.0 * dec.J, P0=dec.P0, parts=dec.parts, structure=dec.structure
        )
        report = verify_decomposition(A_DIAG, broken)
        assert not report.all_passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "intertwine_k1" in failed
        assert "intertwine_k0" not in failed

    def test_cob_state_matrix_rank_bound(self):
        dec = build_decomposition(A_DIAG)
        report = verify_decomposition(A_DIAG, dec)
        assert report.all_passed
        assert np.linalg.matrix_rank(dec.parts[0]) == 1  # equals N - rank(A)


def planted_blocks(sizes, nonsingular, seed):
    """T · diag(J_sizes, diag(nonsingular)) · T^-1 with T = Q · diag(d), Q from
    a seeded QR and d in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    n_dim = sum(sizes) + len(nonsingular)
    canonical = np.zeros((n_dim, n_dim))
    offset = 0
    for size in sizes:
        canonical[offset : offset + size, offset : offset + size] = np.eye(size, k=1)
        offset += size
    canonical[offset:, offset:] = np.diag(nonsingular)
    q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
    t = q * rng.uniform(0.5, 2.0, size=n_dim)
    return t @ canonical @ np.linalg.inv(t)


class TestLargeZeroBlocks:
    """Zero blocks of size 4 and 5 reach A^5 and A^6, where powers are formed
    by squaring rather than by a running product."""

    @pytest.mark.parametrize("sizes", [(4, 1), (5,), (4, 2, 1), (5, 3)], ids=str)
    def test_planted_structure_is_recovered(self, sizes):
        seed = 100 * len(sizes) + sum(sizes)
        nonsingular = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=3)
        a = planted_blocks(sizes, nonsingular, seed)
        n = max(sizes)
        st = zero_structure(a)
        assert st.q_sizes == tuple(sizes.count(i) for i in range(1, n + 1))
        assert st.rank_sequence == tuple(
            3 + sum(max(size - k, 0) for size in sizes) for k in range(n + 2)
        )
        assert verify_decomposition(a, build_decomposition(a)).all_passed
