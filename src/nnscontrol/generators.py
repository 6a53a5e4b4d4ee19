"""Planted test-system generators.

Three families, all deterministic per (kind, dimensions, seed):

  planted_uncontrollable_ii - a left eigenpair (lambda >= 0, z) is planted
      by construction of A, and every column of B is tilted so z^T B < 0;
      the resulting system must fail the sign condition with a certificate
      parallel to z.
  planted_rank_deficient - A is a product of integer factors with a
      prescribed rank deficiency; B = [C | -C] is sign symmetric so only
      the rank conditions can bind.
  random_nonsingular_paired - nonsingular integer A with the same paired
      input matrix; the sparsity level is provably irrelevant for these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllability import SystemPair
from .errors import InputError
from .systemio import system_file_dict

__all__ = [
    "KINDS",
    "PlantedWitness",
    "GeneratedSystem",
    "generate_system",
]

KINDS = (
    "planted_uncontrollable_ii",
    "planted_rank_deficient",
    "random_nonsingular_paired",
)


@dataclass(frozen=True)
class PlantedWitness:
    """Ground truth planted by the generator: z^T A = eigenvalue * z^T and
    z^T B < 0 componentwise."""

    eigenvalue: float
    z: np.ndarray


@dataclass(frozen=True)
class GeneratedSystem:
    name: str
    kind: str
    system: SystemPair
    planted: PlantedWitness | None

    def to_file_dict(self) -> dict:
        """JSON-ready system file; the planted witness rides along as an
        extra key that parsers are free to ignore."""
        data = system_file_dict(self.system, name=self.name)
        if self.planted is not None:
            data["planted"] = {
                "lambda": self.planted.eigenvalue,
                "z": [float(v) for v in self.planted.z],
            }
        return data


def _paired_input_matrix(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """B = [C | -C] truncated to m columns, with C of maximal achievable rank."""
    half = (m + 1) // 2
    target = min(n, half)
    while True:
        c = rng.integers(-3, 4, size=(n, half)).astype(float)
        if np.linalg.matrix_rank(c) == target:
            break
    return np.hstack([c, -c])[:, :m]


def _gen_planted_uncontrollable_ii(rng: np.random.Generator, n: int, m: int):
    z = rng.standard_normal(n)
    while np.linalg.norm(z) < 1e-6:
        z = rng.standard_normal(n)
    z /= np.linalg.norm(z)
    lam = float(rng.uniform(2.0, 4.0))
    projector = np.outer(z, z)
    # Keep the free part small so the planted eigenvalue dominates in
    # modulus and the reported certificate is the planted one.
    w = 0.3 * rng.standard_normal((n, n))
    a_t = lam * projector + w @ (np.eye(n) - projector)
    b_cols = []
    for _ in range(m):
        r = rng.standard_normal(n)
        delta = float(rng.uniform(0.1, 1.0))
        b_cols.append(r - (z @ r + delta) * z)
    a = a_t.T
    b = np.column_stack(b_cols)
    return SystemPair(A=a, B=b), PlantedWitness(eigenvalue=lam, z=z)


def _gen_planted_rank_deficient(rng: np.random.Generator, n: int, m: int, deficiency: int):
    inner = n - deficiency
    if inner == 0:
        a = np.zeros((n, n))
    else:
        while True:
            left = rng.integers(-2, 3, size=(n, inner)).astype(float)
            right = rng.integers(-2, 3, size=(inner, n)).astype(float)
            if (
                np.linalg.matrix_rank(left) == inner
                and np.linalg.matrix_rank(right) == inner
            ):
                break
        a = left @ right
    return SystemPair(A=a, B=_paired_input_matrix(rng, n, m)), None


def _gen_random_nonsingular_paired(rng: np.random.Generator, n: int, m: int):
    while True:
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        if abs(np.linalg.det(a)) > 0.5:
            break
    return SystemPair(A=a, B=_paired_input_matrix(rng, n, m)), None


def generate_system(
    kind: str, n: int, m: int, seed: int, deficiency: int | None = None
) -> GeneratedSystem:
    """Generate one planted test system.

    ``deficiency`` applies to planted_rank_deficient only (rank of A will
    be n - deficiency); when omitted it is drawn from the seeded RNG.
    """
    if kind not in KINDS:
        raise InputError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
    if n < 1 or m < 1:
        raise InputError(f"dimensions must be positive, got n={n}, m={m}")
    if deficiency is not None and kind != "planted_rank_deficient":
        raise InputError("deficiency only applies to planted_rank_deficient")
    rng = np.random.default_rng([KINDS.index(kind), n, m, seed])
    suffix = ""
    if kind == "planted_uncontrollable_ii":
        system, planted = _gen_planted_uncontrollable_ii(rng, n, m)
    elif kind == "planted_rank_deficient":
        if deficiency is None:
            deficiency = int(rng.integers(1, n + 1))
        if not 1 <= deficiency <= n:
            raise InputError(f"deficiency must lie in [1, {n}], got {deficiency}")
        system, planted = _gen_planted_rank_deficient(rng, n, m, deficiency)
        suffix = f"-d{deficiency}"
    else:
        system, planted = _gen_random_nonsingular_paired(rng, n, m)
    name = f"{kind}-n{n}-m{m}-seed{seed}{suffix}"
    return GeneratedSystem(name=name, kind=kind, system=system, planted=planted)
