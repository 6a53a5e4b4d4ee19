import ast
import dataclasses
import importlib
from pathlib import Path

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


def rule_sites(is_site):
    """(module, innermost enclosing def) of every node of the package's source
    that ``is_site`` accepts, sorted; the def is None at module level."""
    sites = []

    def visit(node, module, function):
        if is_site(node):
            sites.append((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in Path(nnscontrol.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sorted(sites)


def calls(name):
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name


def builds_minus_g_ones(node):
    """-G 1: a product with a vector of ones, or a negated row sum."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return ast.unparse(node.right).startswith("np.ones(")
    return isinstance(node, ast.UnaryOp) and ast.unparse(node).endswith(".sum(axis=1)")


def test_each_numeric_rule_has_one_definition():
    # The overflow guard, Stiemke's question and the eigenvalue-cluster rule
    # are each written once; every other site calls them. _numbers' cast
    # keeps its own errstate: an input beyond float64 is an InputError.
    guard = [("matrixcore", "_numbers"), ("matrixcore", "finite")]
    assert rule_sites(calls("np.errstate")) == guard
    assert rule_sites(builds_minus_g_ones) == [("conelp", "_stiemke")]
    assert rule_sites(calls("_cluster")) == [("matrixcore", "eigen_clusters")]


# The facts each record stores. Everything else it reports (a verdict, a mode,
# a pass flag, a multiplicity, block counts, an outcome) is a property derived
# from these, so no builder can store one that disagrees with them.
STORED_FIELDS = {
    controllability.ControllabilityReport: (
        "condition_i", "condition_ii", "condition_iii", "eigenvalues", "tolerances"
    ),
    controllability.ConditionResult: ("certificate", "other_violations"),
    controllability.SparsityConditionResult: ("s", "n_states", "rank_a"),
    controllability.CertificateCheck: ("residual_eig", "max_zb", "eig_ok", "sign_ok", "lambda_ok"),
    matrixcore.EigenGroup: (
        "eigenvalue", "algebraic_multiplicity", "is_real", "basis", "spread", "max_residual"
    ),
    oracle.OracleVerdict: ("k_used", "lp_count", "uncovered_directions"),
    jordan.ZeroStructure: ("rank_sequence",),
}
DERIVED = {
    controllability.ControllabilityReport: ("controllable", "verdict", "mode", "s", "certificate"),
    controllability.ConditionResult: ("passed",),
    controllability.SparsityConditionResult: ("required", "passed"),
    controllability.CertificateCheck: ("valid",),
    matrixcore.EigenGroup: ("geometric_multiplicity",),
    oracle.OracleVerdict: ("covered", "outcome"),
    jordan.ZeroStructure: ("n", "q", "q_sizes", "r_tail", "nullity"),
}


@pytest.mark.parametrize("record", STORED_FIELDS, ids=lambda record: record.__name__)
def test_records_store_only_the_facts_that_decide_them(record):
    assert tuple(field.name for field in dataclasses.fields(record)) == STORED_FIELDS[record]
    for name in DERIVED[record]:
        assert isinstance(getattr(record, name), property), name
        assert f"``{name}``" in record.__doc__ or f"{name}:" in record.__doc__, name
