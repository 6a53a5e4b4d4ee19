"""Independent brute-force evidence for reachability coverage.

The reachable set from the origin at horizon K is the union, over all
per-step support choices, of the positive spans of
[A^{K-1} B_{S_1} | ... | B_{S_K}]. The oracle enumerates support
sequences and settles each membership question with the cone solver
(``conelp.feasible_nonneg_solution``, a non-negative least-squares
solve; ``lp_count`` keeps its historical name), probing a seeded set of
directions on the unit sphere. A covered verdict is
positive evidence of controllability; an uncovered one is inconclusive on
its own (no horizon bound exists) and gains meaning when paired with an
uncontrollability certificate.

Four semantics-preserving shortcuts keep the enumeration tractable:

  * a probe outside the convex relaxation (all supports merged) is outside
    every sequence cone, costing one solve instead of the full sweep;
  * sequences whose generator sets coincide after dropping zero columns
    and rescaling each column to unit norm define the same cone, so each
    distinct set is solved once per probe. The distinct sets of horizon k
    are built from those of horizon k-1, keying each A^j B column once;
  * every solve that finds a probe outside a cone G returns a Farkas
    separator w (w^T G >= 0 > w^T p), scaled to unit max modulus and kept
    when w^T G >= -1e-12 max|G| holds. One sweep shares them across every
    cone and probe, and answers a question "p in cone(G)?" with "outside"
    without a solve when a stored w has w^T p < -10^3 feas_tol (feas_tol
    is the solver's own threshold on ||p - G u||_inf) and
    w^T G >= -1e-12 max|G| on this G. For every u >= 0,
    ||p - G u||_inf >= (-w^T p - 1e-12 max|G| ||u||_1) / ||w||_1, and
    ||w||_1 <= N, so the residual exceeds feas_tol for every u with
    1e-12 max|G| ||u||_1 < (10^3 - N) feas_tol: the shortcut stays sound
    while N < 10^3. Whether w is valid for G does not depend on the probe,
    so the sweep decides it once per (separator, cone): each visit to a
    cone tests only the separators stored since its last visit;
  * every solve that finds a probe inside a cone with exactly N positive
    coefficients, on columns P, leaves the simplicial basis G_P of that
    cone (a relaxation, or one key set of a horizon) with its inverse.
    Before any other test, a stored basis of the cone asked about answers
    "member" when c = G_P^{-1} p has c >= 0 and ||p - G_P c||_inf <=
    feas_tol. That is the solver's own member test, applied to the u >= 0
    that is c on P and 0 elsewhere, so the answer carries a witness that
    the solver would accept.

Nothing is kept from one sweep to the next.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .conelp import feasible_nonneg_solution, membership_tol
from .controllability import SystemPair
from .errors import InputError, NumericError
from .matrixcore import DEFAULT_TOL, Tolerances, as_vector, validate_count, validate_sparsity

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
# A stored separator w (max |w_i| = 1) settles "p outside cone(G)" when
# w^T G >= -_SEPARATOR_TAU max|G| and w^T p < -_REJECT_FACTOR feas_tol.
_SEPARATOR_TAU = 1e-12
_REJECT_FACTOR = 1e3


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
        for name, least in (("k_max", 1), ("n_directions", 1), ("seed", 0)):
            object.__setattr__(self, name, validate_count(getattr(self, name), name, least))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a coverage run.

    outcome "covered_at": every probe was reconstructed at horizon k_used.
    outcome "uncovered": the listed directions survived through k_max;
    inconclusive without a certificate. ``lp_count`` is the number of
    membership questions the sweep settled, by a cone solve, a stored
    separating hyperplane or a stored basis; fewer solves than that
    actually run.
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
    """[A^j B for j = 0..k-1]; NumericError when a power overflows."""
    blocks = [sys.B]
    for j in range(1, k):
        with np.errstate(over="ignore", invalid="ignore"):
            blocks.append(sys.A @ blocks[-1])
        if not np.all(np.isfinite(blocks[-1])):
            raise NumericError(f"A^{j} B overflows")
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
    k = validate_count(k, "horizon", 1)
    x = as_vector(x, "x")
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


class _WitnessPool:
    """The witnesses of one sweep's solves (the third and fourth shortcuts
    above): the Farkas separators of non-member solves, shared by every
    cone, the simplicial bases of member solves, kept per cone, and the
    probe that the next questions are about.

    Sets of separators are bitmasks, bit i for row i of ``separators``:
    ``near`` holds those with w^T probe < cut. ``cones`` keeps, for each
    cone asked about while ``near`` was not empty, the mask of separators
    valid for it and how many separators that mask has decided."""

    def __init__(self, n: int, tol: Tolerances) -> None:
        self.tol = tol
        self.separators = np.zeros((0, n))
        self.bases: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}  # (inverses, bases)
        self.cones: dict[Hashable, tuple[int, int]] = {}  # (valid, decided)
        self.probe = np.zeros(n)
        self.feas_tol = 0.0
        self.cut = 0.0
        self.near = 0

    def focus(self, probe: np.ndarray) -> None:
        self.probe = probe
        self.feas_tol = membership_tol(probe, self.tol)
        self.cut = -_REJECT_FACTOR * self.feas_tol
        self.near = _bits(self.separators @ probe < self.cut)

    def valid(self, cone: Hashable, generators: np.ndarray) -> int:
        """The mask of stored separators valid for the cone, deciding only
        those stored since the cone's last visit."""
        mask, decided = self.cones.get(cone, (0, 0))
        if decided < len(self.separators):
            mask |= _valid_separators(self.separators[decided:], generators) << decided
            self.cones[cone] = (mask, len(self.separators))
        return mask

    def member(self, cone: Hashable, generators: np.ndarray) -> bool:
        """Whether the probe lies in cone(generators), by a stored basis of this
        cone, a stored separator or a solve."""
        stored = self.bases.get(cone)
        if stored is not None:
            inverses, bases = stored
            coefficients = inverses @ self.probe
            residuals = self.probe - (bases @ coefficients[:, :, None])[:, :, 0]
            if np.any(
                (coefficients.min(axis=1) >= 0.0)
                & (np.abs(residuals).max(axis=1) <= self.feas_tol)
            ):
                return True
        if self.near and self.near & self.valid(cone, generators):
            return False
        result = feasible_nonneg_solution(generators, self.probe, self.tol)
        if result.member:
            positive = np.flatnonzero(result.coefficients > 0.0)
            if len(positive) == len(self.probe):
                stack = generators[:, positive][None]
                if stored is not None:
                    stack = np.concatenate([bases, stack])
                self.bases[cone] = (np.linalg.inv(stack), stack)
            return True
        w = result.separator / np.abs(result.separator).max()
        if float((w @ generators).min(initial=np.inf)) >= _separator_floor(generators):
            if w @ self.probe < self.cut:
                self.near |= 1 << len(self.separators)
            self.separators = np.vstack([self.separators, w])
        return False


def _bits(flags: np.ndarray) -> int:
    """The bitmask with bit i set where flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _valid_separators(separators: np.ndarray, generators: np.ndarray) -> int:
    """The mask of separators w that may reject points for cone(generators):
    min(w^T G) >= -tau max|G|, which every separator meets on a cone with no
    generators."""
    products = separators @ generators
    return _bits(products.min(axis=1, initial=np.inf) >= _separator_floor(generators))


def _separator_floor(generators: np.ndarray) -> float:
    """The least w^T g a unit-scaled separator may give a generator: -tau max|G|."""
    return -_SEPARATOR_TAU * float(np.abs(generators).max(initial=0.0))


def _sweep_coverage(
    sys: SystemPair, s: int, probes: list[np.ndarray], k_max: int, tol: Tolerances
) -> tuple[int | None, list[int], int]:
    """Core loop: (first covering horizon or None, surviving probe indices, question count).

    Zero inputs are admissible, so per-probe coverage is monotone in the
    horizon and only still-uncovered probes are retested as K grows. The
    count is of membership questions, whether a cone solve, a stored
    separator or a stored basis settled them.
    """
    supports = enumerate_supports(sys.m, s)
    uncovered = list(range(len(probes)))
    lp_count = 0
    blocks = _powers_times_b(sys, k_max)
    ladder = _sequence_cone_ladder(sys, supports, blocks)
    cones: list[dict[frozenset[bytes], np.ndarray]] = []  # cones[k-1]: horizon k
    pool = _WitnessPool(sys.n, tol)
    # Known-outside (probe, key set) pairs. Key sets recur across horizons
    # when powers of A repeat directions (nilpotent or low-rank A).
    outside: set[tuple[int, frozenset[bytes]]] = set()
    for k in range(1, k_max + 1):
        relaxation = np.hstack([blocks[k - step - 1] for step in range(k)])
        survivors = []
        for idx in uncovered:
            pool.focus(probes[idx])
            lp_count += 1
            if not pool.member(k, relaxation):
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
                if pool.member(key, generators):
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
    k_max = validate_count(k_max, "horizon", 1)
    direction = as_vector(direction, "direction")
    if direction.shape != (sys.n,):
        raise InputError(f"direction must have length {sys.n}, got shape {direction.shape}")
    covered_at, _, _ = _sweep_coverage(sys, s, [direction], k_max, tol)
    return covered_at is None


def random_rollout(sys: SystemPair, s: int, k: int, seed: int) -> np.ndarray:
    """State after k admissible random inputs from the origin.

    Each step draws a uniform random size-s support with entries uniform on
    [0, 1]. Deterministic per seed. The state is linear in the inputs, so
    c * random_rollout(...) is the rollout of inputs scaled by c.
    """
    s = validate_sparsity(s, sys.m)
    k = validate_count(k, "horizon", 1)
    rng = np.random.default_rng(validate_count(seed, "seed", 0))
    x = np.zeros(sys.n)
    for _ in range(k):
        u = np.zeros(sys.m)
        support = rng.choice(sys.m, size=s, replace=False)
        u[support] = rng.uniform(0.0, 1.0, size=s)
        x = sys.A @ x + sys.B @ u
    return x
