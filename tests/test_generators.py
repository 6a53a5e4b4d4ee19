import numpy as np
import pytest

from nnscontrol import (
    InputError,
    certificate_direction,
    check_nonneg,
    check_nonneg_sparse,
    generate_system,
    rank,
    verify_certificate,
)


class TestPlantedUncontrollable:
    def test_planted_witness_algebra(self):
        for seed in range(10):
            gen = generate_system("planted_uncontrollable_ii", 3, 3, seed)
            z, lam = gen.planted.z, gen.planted.eigenvalue
            assert np.abs(z @ gen.system.A - lam * z).max() <= 1e-10
            assert np.all(z @ gen.system.B <= 1e-10)

    def test_verdict_and_certificate_direction(self):
        gen = generate_system("planted_uncontrollable_ii", 2, 2, 7)
        report = check_nonneg_sparse(gen.system, 1)
        assert report.verdict == "uncontrollable"
        cert = report.certificate
        assert verify_certificate(gen.system, cert).valid
        direction = certificate_direction(cert)
        cosine = abs(direction @ gen.planted.z)
        assert cosine >= 1 - 1e-8

    def test_file_dict_carries_ground_truth(self):
        gen = generate_system("planted_uncontrollable_ii", 2, 3, 1)
        data = gen.to_file_dict()
        assert "planted" in data
        assert len(data["planted"]["z"]) == 2


class TestPlantedRankDeficient:
    def test_prescribed_deficiency(self):
        gen = generate_system("planted_rank_deficient", 3, 4, 5, deficiency=2)
        assert rank(gen.system.A) == 1
        assert gen.system.B.shape == (3, 4)

    def test_full_deficiency_gives_zero_matrix(self):
        gen = generate_system("planted_rank_deficient", 2, 2, 3, deficiency=2)
        np.testing.assert_array_equal(gen.system.A, np.zeros((2, 2)))

    def test_deficiency_rejected_for_other_kinds(self):
        with pytest.raises(InputError):
            generate_system("random_nonsingular_paired", 2, 2, 0, deficiency=1)


class TestRandomNonsingularPaired:
    def test_nonsingular(self):
        for seed in range(10):
            gen = generate_system("random_nonsingular_paired", 3, 4, seed)
            assert abs(np.linalg.det(gen.system.A)) > 0.5

    def test_sparsity_level_is_irrelevant(self):
        gen = generate_system("random_nonsingular_paired", 2, 4, 1)
        verdicts = {
            check_nonneg_sparse(gen.system, s).verdict for s in range(1, 5)
        }
        assert len(verdicts) == 1

    def test_paired_columns(self):
        gen = generate_system("random_nonsingular_paired", 2, 4, 2)
        np.testing.assert_array_equal(gen.system.B[:, 2:], -gen.system.B[:, :2])


class TestDeterminismAndValidation:
    def test_same_seed_same_system(self):
        a = generate_system("planted_rank_deficient", 3, 3, 9)
        b = generate_system("planted_rank_deficient", 3, 3, 9)
        np.testing.assert_array_equal(a.system.A, b.system.A)
        np.testing.assert_array_equal(a.system.B, b.system.B)
        assert a.name == b.name

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            generate_system("bogus", 2, 2, 0)

    def test_bad_dimensions(self):
        with pytest.raises(InputError):
            generate_system("random_nonsingular_paired", 0, 2, 0)

    @pytest.mark.parametrize(
        "kind, n, m, seed, deficiency, message",
        [
            ("random_nonsingular_paired", 3, 0, 0, None, "m must be >= 1, got 0"),
            ("planted_rank_deficient", 3, 2, -1, None, "seed must be >= 0, got -1"),
            ("planted_rank_deficient", 3, 2, 1.0, None, "seed must be an integer, got 1.0"),
            ("planted_rank_deficient", 3, 2, 0, True, "deficiency must be an integer, got True"),
            ("planted_rank_deficient", 3, 2, 0, 0, "deficiency must lie in [1, 3], got 0"),
        ],
    )
    def test_bad_integer_parameters(self, kind, n, m, seed, deficiency, message):
        # Each is refused before it reaches numpy's seeding.
        with pytest.raises(InputError) as excinfo:
            generate_system(kind, n, m, seed, deficiency)
        assert str(excinfo.value) == message

    def test_numpy_integers_name_the_same_system(self):
        a = generate_system("planted_rank_deficient", np.int64(3), np.int32(2), np.uint8(9))
        b = generate_system("planted_rank_deficient", 3, 2, 9)
        assert a.name == b.name
        np.testing.assert_array_equal(a.system.A, b.system.A)
