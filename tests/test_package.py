import importlib

import numpy as np
import pytest

import nnscontrol
from nnscontrol import (
    conelp,
    controllability,
    errors,
    generators,
    jordan,
    matrixcore,
    oracle,
)

LIBRARY_MODULES = (
    "errors", "matrixcore", "conelp", "controllability", "jordan", "oracle", "generators",
    "systemio",
)


def library_modules():
    return [importlib.import_module(f"nnscontrol.{name}") for name in LIBRARY_MODULES]


def test_exports_are_the_library_modules_lists():
    expected = ["__version__"]
    for module in library_modules():
        expected += module.__all__
    assert nnscontrol.__all__ == expected
    assert len(set(expected)) == len(expected) == 61


def test_every_export_resolves_to_its_module_object():
    assert nnscontrol.__version__ == "0.1.0"
    for module in library_modules():
        for name in module.__all__:
            assert getattr(nnscontrol, name) is getattr(module, name)


def test_errors_lists_its_five_classes():
    classes = sorted(
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    )
    assert sorted(errors.__all__) == classes
    assert len(classes) == 5


def test_cli_and_fixtures_are_not_exported():
    for module in ("cli", "fixtures"):
        names = importlib.import_module(f"nnscontrol.{module}").__all__
        assert not set(names) & set(nnscontrol.__all__)


SHIFT_A = np.array([[0.0, 0.0], [1.0, 0.0]])
SHIFT = controllability.SystemPair(A=SHIFT_A, B=np.array([[1.0], [0.0]]))


def fresh_certificate():
    # The memo hands every report of a pair one certificate; clearing it
    # builds a new one.
    controllability._analysis.cache_clear()
    return controllability.check_nonneg(SHIFT).condition_ii.certificate


# Each record holds an array; each builder makes a fresh record from one input.
ARRAY_RECORDS = {
    "Certificate": fresh_certificate,
    "EigenGroup": lambda: matrixcore.left_eigensystem(SHIFT_A).groups[0],
    "LeftEigenSystem": lambda: matrixcore.left_eigensystem(SHIFT_A),
    "RowSplitDecomposition": lambda: jordan.build_decomposition(SHIFT_A),
    "ConeMembershipResult": lambda: conelp.feasible_nonneg_solution(SHIFT_A, [1.0, 1.0]),
    "OracleVerdict": lambda: oracle.coverage_probe(SHIFT, 1),
    "PlantedWitness": lambda: generators.generate_system(
        "planted_uncontrollable_ii", 3, 2, 0
    ).planted,
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_holding_arrays_compare_without_raising(name):
    # A generated == would ask numpy for the truth value of an array and
    # raise; these records compare by identity, and hash by it.
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and not first != first
    assert first != second
    assert len({first, second}) == 2
