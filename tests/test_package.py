import importlib

import nnscontrol
from nnscontrol import errors

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
