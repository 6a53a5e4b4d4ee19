"""Independent brute-force evidence for reachability coverage.

The reachable set from the origin at horizon K is the union, over all
per-step support choices, of the positive spans of
[A^{K-1} B_{S_1} | ... | B_{S_K}]. The oracle enumerates support
sequences and settles each membership question with the cone LP, probing
a seeded set of directions on the unit sphere. A covered verdict is
positive evidence of controllability; an uncovered one is inconclusive on
its own (no horizon bound exists) and gains meaning when paired with an
uncontrollability certificate.

Two semantics-preserving shortcuts keep the enumeration tractable:

  * a probe outside the convex relaxation (all supports merged) is outside
    every sequence cone, costing one LP instead of the full sweep;
  * sequences whose generator sets coincide after dropping zero columns
    and rescaling each column to unit norm define the same cone, so each
    distinct set is solved once per probe. The distinct sets of horizon k
    are built from those of horizon k-1, keying each A^j B column once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .conelp import feasible_nonneg_solution
from .controllability import SystemPair, validate_sparsity
from .errors import InputError
from .matrixcore import DEFAULT_TOL, Tolerances

__all__ = [
    "OracleConfig",
    "OracleVerdict",
    "enumerate_supports",
    "reachable_membership",
    "coverage_probe",
    "direction_uncovered",
    "random_rollout",
]

MAX_SUPPORTS = 10_000
MAX_SEQUENCES = 100_000


@dataclass(frozen=True)
class OracleConfig:
    """Probe-set and horizon parameters for coverage runs.

    Probe i is drawn from its own RNG stream seeded by (seed, i), so
    results do not depend on the order in which probes are evaluated.
    """

    k_max: int = 6
    n_directions: int = 64
    seed: int = 0
    include_axes: bool = True

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise InputError(f"k_max must be >= 1, got {self.k_max}")
        if self.n_directions < 1:
            raise InputError(f"n_directions must be >= 1, got {self.n_directions}")

    def to_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "n_directions": self.n_directions,
            "seed": self.seed,
            "include_axes": self.include_axes,
        }


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a coverage run.

    outcome "covered_at": every probe was reconstructed at horizon k_used.
    outcome "uncovered": the listed directions survived through k_max;
    inconclusive without a certificate.
    """

    outcome: str  # "covered_at" | "uncovered"
    k_used: int
    lp_count: int
    uncovered_directions: tuple[np.ndarray, ...] = ()

    @property
    def covered(self) -> bool:
        return self.outcome == "covered_at"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "k_used": self.k_used,
            "lp_count": self.lp_count,
            "uncovered_directions": [
                [float(v) for v in d] for d in self.uncovered_directions
            ],
        }


def enumerate_supports(m: int, s: int) -> list[tuple[int, ...]]:
    """All size-s index subsets of {0..m-1} in lexicographic order.

    Smaller supports are special cases with zero entries, so exactly-s
    subsets suffice.
    """
    s = validate_sparsity(s, m)
    count = math.comb(m, s)
    if count > MAX_SUPPORTS:
        raise InputError(
            f"{count} supports exceed the enumeration guard ({MAX_SUPPORTS}); lower s or m"
        )
    return list(itertools.combinations(range(m), s))


def _powers_times_b(sys: SystemPair, k: int) -> list[np.ndarray]:
    """[A^j B for j = 0..k-1]."""
    blocks = [sys.B]
    for _ in range(k - 1):
        blocks.append(sys.A @ blocks[-1])
    return blocks


def _guard_sequences(supports: list[tuple[int, ...]], k: int) -> None:
    """Refuse horizons with more support sequences than ``MAX_SEQUENCES``."""
    total = len(supports) ** k
    if total > MAX_SEQUENCES:
        raise InputError(
            f"{total} support sequences exceed the guard ({MAX_SEQUENCES}); lower the horizon or s"
        )


def reachable_membership(
    sys: SystemPair, s: int, k: int, x, tol: Tolerances = DEFAULT_TOL
) -> tuple[tuple[tuple[int, ...], ...], list[np.ndarray]] | None:
    """Search all support sequences at horizon k for a reconstruction of x.

    Returns the first (lexicographic) witness as (support sequence, inputs),
    where inputs[j] is the nonnegative m-vector applied at step j+1, or
    None when no sequence admits one.
    """
    if k < 1:
        raise InputError(f"horizon must be >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise InputError(f"x must have length {sys.n}, got shape {x.shape}")
    supports = enumerate_supports(sys.m, s)
    _guard_sequences(supports, k)
    blocks = _powers_times_b(sys, k)
    s_len = len(supports[0])
    for sequence in itertools.product(supports, repeat=k):
        columns = [blocks[k - step - 1][:, list(sup)] for step, sup in enumerate(sequence)]
        stacked = np.hstack(columns)
        result = feasible_nonneg_solution(stacked, x, tol)
        if result.member:
            inputs = []
            for step, sup in enumerate(sequence):
                u = np.zeros(sys.m)
                u[list(sup)] = result.coefficients[step * s_len : (step + 1) * s_len]
                inputs.append(u)
            return sequence, inputs
    return None


def _canonical_column(col: np.ndarray) -> bytes | None:
    """Positive-scale canonical key of a cone generator; None for zero columns."""
    norm = float(np.linalg.norm(col))
    if norm <= 1e-12:
        return None
    return (np.round(col / norm, 12) + 0.0).tobytes()


def _sequence_cone_ladder(
    sys: SystemPair, supports: list[tuple[int, ...]], blocks: list[np.ndarray]
) -> Iterator[dict[frozenset[bytes], np.ndarray]]:
    """Yield, for k = 1..len(blocks), the generators of each distinct horizon-k
    sequence cone, keyed by its set of nonzero canonical columns, in the order
    the lexicographic sequences first reach them. A horizon-k sequence is a
    support on A^{k-1} B followed by a horizon-(k-1) sequence, so each
    support's key set is joined with each key set of horizon k-1 in turn.
    """
    tails: list[frozenset[bytes]] = [frozenset()]
    for block in blocks:
        column_keys = [_canonical_column(block[:, j]) for j in range(sys.m)]
        generators: dict[frozenset[bytes], np.ndarray] = {}
        for sup in supports:
            head = frozenset(column_keys[j] for j in sup) - {None}
            for tail in tails:
                merged = head | tail
                if merged in generators:
                    continue
                ordered = sorted(merged)
                if ordered:
                    generators[merged] = np.column_stack([np.frombuffer(key) for key in ordered])
                else:
                    generators[merged] = np.zeros((sys.n, 0))
        yield generators
        tails = list(generators)


def _probe_directions(sys: SystemPair, cfg: OracleConfig) -> list[np.ndarray]:
    probes = []
    for i in range(cfg.n_directions):
        rng = np.random.default_rng([cfg.seed, i])
        vec = rng.standard_normal(sys.n)
        while np.linalg.norm(vec) < 1e-9:
            vec = rng.standard_normal(sys.n)
        probes.append(vec / np.linalg.norm(vec))
    if cfg.include_axes:
        eye = np.eye(sys.n)
        for i in range(sys.n):
            probes.append(eye[:, i].copy())
            probes.append(-eye[:, i])
    return probes


def _sweep_coverage(
    sys: SystemPair, s: int, probes: list[np.ndarray], k_max: int, tol: Tolerances
) -> tuple[int | None, list[int], int]:
    """Core loop: (first covering horizon or None, surviving probe indices, LP count).

    Zero inputs are admissible, so per-probe coverage is monotone in the
    horizon and only still-uncovered probes are retested as K grows.
    """
    supports = enumerate_supports(sys.m, s)
    uncovered = list(range(len(probes)))
    lp_count = 0
    blocks = _powers_times_b(sys, k_max)
    ladder = _sequence_cone_ladder(sys, supports, blocks)
    cones: list[dict[frozenset[bytes], np.ndarray]] = []  # cones[k-1]: horizon k
    # Known-outside (probe, key set) pairs. Key sets recur across horizons
    # when powers of A repeat directions (nilpotent or low-rank A).
    outside: set[tuple[int, frozenset[bytes]]] = set()
    for k in range(1, k_max + 1):
        relaxation = np.hstack([blocks[k - step - 1] for step in range(k)])
        survivors = []
        for idx in uncovered:
            probe = probes[idx]
            lp_count += 1
            if not feasible_nonneg_solution(relaxation, probe, tol).member:
                survivors.append(idx)
                continue
            if s == sys.m:
                continue  # single support: the relaxation is the exact cone
            if len(cones) < k:
                _guard_sequences(supports, k)
                cones.extend(itertools.islice(ladder, k - len(cones)))
            for key, generators in cones[k - 1].items():
                if (idx, key) in outside:
                    continue
                lp_count += 1
                if feasible_nonneg_solution(generators, probe, tol).member:
                    break
                outside.add((idx, key))
            else:
                survivors.append(idx)
        uncovered = survivors
        if not uncovered:
            return k, [], lp_count
    return None, uncovered, lp_count


def coverage_probe(
    sys: SystemPair,
    s: int,
    cfg: OracleConfig = OracleConfig(),
    tol: Tolerances = DEFAULT_TOL,
) -> OracleVerdict:
    """Test whether every probe direction becomes reachable by horizon k_max."""
    s = validate_sparsity(s, sys.m)
    probes = _probe_directions(sys, cfg)
    covered_at, uncovered, lp_count = _sweep_coverage(sys, s, probes, cfg.k_max, tol)
    if covered_at is not None:
        return OracleVerdict(outcome="covered_at", k_used=covered_at, lp_count=lp_count)
    return OracleVerdict(
        outcome="uncovered",
        k_used=cfg.k_max,
        lp_count=lp_count,
        uncovered_directions=tuple(probes[idx] for idx in uncovered),
    )


def direction_uncovered(
    sys: SystemPair, s: int, direction, k_max: int = 6, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """True when a single direction stays outside every sequence cone up to k_max.

    This is how certificate directions are cross-checked: a verified
    witness promises its direction can never be reached, at any horizon.
    """
    s = validate_sparsity(s, sys.m)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (sys.n,):
        raise InputError(f"direction must have length {sys.n}, got shape {direction.shape}")
    covered_at, _, _ = _sweep_coverage(sys, s, [direction], k_max, tol)
    return covered_at is None


def random_rollout(
    sys: SystemPair, s: int, k: int, seed: int, *, amplitude: float = 1.0
) -> np.ndarray:
    """State after k admissible random inputs from the origin.

    Each step draws a uniform random size-s support with entries uniform on
    [0, 1], scaled by ``amplitude`` (zero exercises the all-zero-input
    corner). Deterministic per seed.
    """
    s = validate_sparsity(s, sys.m)
    if k < 1:
        raise InputError(f"horizon must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    x = np.zeros(sys.n)
    for _ in range(k):
        u = np.zeros(sys.m)
        support = rng.choice(sys.m, size=s, replace=False)
        u[support] = amplitude * rng.uniform(0.0, 1.0, size=s)
        x = sys.A @ x + sys.B @ u
    return x
