import json

import numpy as np
import pytest
from helpers import planted_structure_matrix as planted_matrix

from nnscontrol import InputError, NumericError
from nnscontrol.cli import main
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

    def test_overflowing_power_is_refused(self, tmp_path, capsys):
        # A has index 1, which the staircase decides without forming A^2.
        a = [[1e200, 1.0], [0.0, 0.0]]
        st = zero_structure(a)
        assert (st.n, st.q, st.rank_sequence) == (1, 1, (2, 1, 1))
        # verify_decomposition needs A^2, which overflows; an SVD of it would
        # return a rank instead of failing. The input is valid, so this is a
        # numeric failure (exit 2), not an input error.
        with pytest.raises(NumericError, match=r"A\^2 overflows"):
            verify_decomposition(a, build_decomposition(a))
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"A": a, "B": [[1.0], [1.0]]}))
        assert main(["decompose", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: A^2 overflows\n"

    @pytest.mark.parametrize("scale", [1e308, 1e-310])
    def test_huge_and_subnormal_entries_keep_the_rank_sequence(self, scale):
        # sigma_1 of the all-1e308 matrix is 2e308; unscaled, the cut was inf
        # and the rank sequence (2, 0, 0).
        st = zero_structure(np.full((2, 2), scale))
        assert (st.n, st.q, st.rank_sequence) == (1, 1, (2, 1, 1))

    def test_overflowing_change_of_basis_is_a_numeric_error(self):
        with pytest.raises(NumericError, match=r"^P A P\^-1 overflows$"):
            build_decomposition(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n_dim", [8, 32])
    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_planted_block_at_a_shift(self, mu, n_dim, k):
        # A = T (J_k(mu) + D) T^-1 with D diagonal in [-2, -0.5], T Gaussian
        # with column scales 10^U(-1, 1): the structure of A at the eigenvalue
        # mu is that of A - mu I at 0, one block of size k.
        for seed in range(24):
            rng = np.random.default_rng([seed, k, n_dim])
            core = np.zeros((n_dim, n_dim))
            core[:k, :k] = mu * np.eye(k) + np.eye(k, k=1)
            core[k:, k:] = np.diag(-rng.uniform(0.5, 2.0, size=n_dim - k))
            t = rng.standard_normal((n_dim, n_dim)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n_dim)
            a = t @ core @ np.linalg.inv(t)
            st = zero_structure(a - mu * np.eye(n_dim))
            assert (st.n, st.q, st.q_sizes) == (k, n_dim - k, (0,) * (k - 1) + (1,)), seed

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

    def test_decomposition_of_another_size_is_an_input_error(self):
        dec = build_decomposition(np.zeros((2, 2)))
        with pytest.raises(InputError) as info:
            verify_decomposition(np.eye(3), dec)
        assert str(info.value) == "decomposition is of shape (2, 2), but A has shape (3, 3)"

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

    @staticmethod
    def assert_planted_structure(sizes, nonsingular, seed):
        a = planted_blocks(sizes, nonsingular, seed)
        n = max(sizes)
        st = zero_structure(a)
        assert st.q_sizes == tuple(sizes.count(i) for i in range(1, n + 1))
        assert st.rank_sequence == tuple(
            len(nonsingular) + sum(max(size - k, 0) for size in sizes) for k in range(n + 2)
        )
        assert verify_decomposition(a, build_decomposition(a)).all_passed

    @pytest.mark.parametrize("sizes", [(4, 1), (5,), (4, 2, 1), (5, 3)], ids=str)
    def test_planted_structure_is_recovered(self, sizes):
        seed = 100 * len(sizes) + sum(sizes)
        nonsingular = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=3)
        self.assert_planted_structure(sizes, nonsingular, seed)

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (2,), (3,), (2, 1), (4, 1), (5,), (4, 2, 1), (5, 3), (3, 3), (2, 2, 1)],
        ids=str,
    )
    def test_nilpotent_structure_is_recovered(self, sizes):
        # With no nonsingular part, A^n is rounding noise; cut at its own
        # sigma_max, all of it would count as rank. The staircase cuts every
        # step at rank_rtol * sigma_1(A).
        for seed in range(5):
            self.assert_planted_structure(sizes, [], seed)
