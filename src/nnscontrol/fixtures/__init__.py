"""Bundled regression systems.

The change-of-basis triple (A, B, Phi) is the canonical regression case:
(A, B) is controllable with nonnegative 1-sparse inputs, while the
transformed pair (A, B Phi) is not, witnessed by the eigenpair
(0, [0, 0, 1]). It exercises every layer of the package: eigenstructure,
cone feasibility, certificates, and the brute-force oracle.
"""

from __future__ import annotations

from importlib.resources import files

import numpy as np

from ..controllability import SystemPair
from ..matrixcore import as_matrix
from ..systemio import load_json_object, parse_system_file

__all__ = [
    "load_json",
    "change_of_basis_system",
    "change_of_basis_matrix",
    "change_of_basis_transformed",
    "fixture_path",
]


def load_json(name: str) -> dict:
    """Load a bundled fixture file by name (e.g. ``cob_system.json``)."""
    return load_json_object(fixture_path(name), "fixture")[0]


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture, for CLI round trips."""
    return str(files(__package__).joinpath(name))


def change_of_basis_system() -> SystemPair:
    """The controllable pair (A, B) of the change-of-basis example."""
    return parse_system_file(fixture_path("cob_system.json")).system


def change_of_basis_matrix() -> np.ndarray:
    """The input-basis matrix Phi of the change-of-basis example."""
    return as_matrix(load_json("cob_basis.json")["Phi"], "Phi")


def change_of_basis_transformed() -> SystemPair:
    """The uncontrollable transformed pair (A, B Phi)."""
    return parse_system_file(fixture_path("cob_transformed.json")).system
