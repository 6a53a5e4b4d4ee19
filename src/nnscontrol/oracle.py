"""Independent brute-force evidence for reachability coverage.

The reachable set from the origin at horizon K is the union, over all
per-step support choices, of the positive spans of
[A^{K-1} B_{S_1} | ... | B_{S_K}]. The oracle enumerates support
sequences and settles each membership question with the cone solver's
core (``conelp._solve``, a non-negative least-squares solve given the
arrays and tolerance the sweep already holds; ``lp_count`` keeps its
historical name), probing a seeded set of directions on the unit sphere.
A covered verdict is positive evidence of controllability; an uncovered
one is inconclusive on its own (no horizon bound exists) and gains
meaning when paired with an uncontrollability certificate.

Seven semantics-preserving shortcuts keep the enumeration tractable:

  * a probe outside the convex relaxation (all supports merged) is outside
    every sequence cone, costing one solve instead of the full sweep;
  * sequences whose generator sets coincide after dropping zero columns
    and rescaling each column to unit norm define the same cone, so each
    distinct set is solved once per probe. Each distinct A^j B column is
    numbered in byte order and tabled once per sweep, a set is keyed by its
    packed boolean row over those numbers, and the distinct rows of horizon
    k are those of horizon k-1 joined with each support's row;
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
    so each grid (below) decides it once, against the floor of each G, for
    every stored w that some probe of the grid lies that far beyond and
    every G of the grid, and once when a solve in the grid returns w;
  * every solve that finds a probe inside a cone with exactly N positive
    coefficients, on columns P, tests the simplicial basis G_P of that
    cone on the other probes of its grid: one with c = G_P^{-1} p >= 0 and
    ||p - G_P c||_inf <= feas_tol is a member of the cone. That is the
    solver's own member test, applied to the u >= 0 that is c on P and 0
    elsewhere, so the answer carries a witness that the solver would
    accept. The basis is then dropped: the grid has settled every probe
    it holds, and a later grid asks about other probes or other cones;
  * a probe inside the horizon-(k-1) relaxation is inside the horizon-k
    one, whose columns [A^{k-1} B | ... | B] include all of its, so that
    question is counted as asked and answered "member" without a solve;
  * a stored separator with w^T G >= -1e-12 max|B| on the widest
    relaxation G = [A^{k_max-1} B | ... | B] is valid for every relaxation:
    each has a subset of those columns, and max|B| is the least of their
    max|G|, so -1e-12 max|B| is the least negative of their floors. It is
    decided once per stored separator. A probe it rejects is counted as
    asked and answered "outside" at each later horizon without entering a
    grid. No basis found in that grid could have answered "member": c >= 0
    with ||p - G_P c||_inf <= feas_tol gives
    w^T p >= -1e-12 max|G| ||c||_1 - N feas_tol, so the basis would need
    ||c||_1 >= (10^3 - N) feas_tol / (1e-12 max|G|);
  * a relaxation G that spans R^n positively holds every probe (Davis,
    Amer. J. Math. 1954). One Stiemke question decides it for all the
    probes still open (Schrijver, *Theory of Linear and Integer
    Programming*, 1986, 7.8): is -G 1 in cone(G)? A member gives
    y = u + 1 >= 1 with G y = 0 up to the solver's residual. Each open
    probe p then gets the least-squares c of G c = p (singular values
    below rank_rtol sigma_max cut; below rank N the question is not asked)
    and u_p = max(c + t y, 0), t = max_i(-c_i / y_i) being the least shift
    that makes c + t y nonnegative. p is answered "member" when
    ||p - G u_p||_inf <= feas_tol, the solver's own member test on
    u_p >= 0, as for a basis G_P; the probes that fail it, or all of
    them when the answer is no, go to the relaxation grid. A separator
    valid at every horizon shows that no relaxation spans R^n, so the
    question is asked only while none is stored, and from horizon 2 on,
    after the horizon-1 grid has had its chance to store one.

Each horizon asks two grids of (probe, cone) questions: the uncovered
probes that no shortcut above has settled against the relaxation, then
those inside it against the sequence cones. Stored separators answer a grid
with array operations; the lowest probe whose next question they leave
open gets a solve, whose witness is folded into the grid. A probe asks its
cones up to its first member cone, less those it is known to lie outside,
so the count and the survivors do not depend on the order of settling.
Nothing is kept from one sweep to the next.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Hashable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .conelp import _solve, _stiemke, membership_tol
from .controllability import SystemPair
from .errors import InputError
from .matrixcore import (
    DEFAULT_TOL, Tolerances, as_vector, finite, scale_unit, validate_count, validate_sparsity,
)

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
# Separators times cone columns held at once while deciding validity.
_CHUNK = 1 << 12


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
        if not isinstance(self.include_axes, (bool, np.bool_)):
            raise InputError(f"include_axes must be a bool, got {self.include_axes!r}")
        object.__setattr__(self, "include_axes", bool(self.include_axes))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class OracleVerdict:
    """Outcome of a coverage run.

    outcome "covered_at": every probe was reconstructed at horizon k_used.
    outcome "uncovered": the listed directions survived through k_max;
    inconclusive without a certificate. ``lp_count`` is the number of
    membership questions the sweep settled, by a cone solve, a stored
    separating hyperplane (one valid at every horizon included), a basis
    found in the same grid, the previous horizon's relaxation or a
    relaxation that spans R^n positively; fewer solves than that actually
    run. Derived: ``covered``, true when no direction is listed, and ``outcome``.
    """

    k_used: int
    lp_count: int
    uncovered_directions: tuple[np.ndarray, ...] = ()

    @property
    def covered(self) -> bool:
        return not self.uncovered_directions

    @property
    def outcome(self) -> str:
        return "covered_at" if self.covered else "uncovered"

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
        blocks.append(finite(lambda: sys.A @ blocks[-1], f"A^{j} B"))
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
    stacked = np.hstack(_powers_times_b(sys, k)[::-1])  # [A^{k-1} B | ... | B]
    feas_tol = membership_tol(x, tol)
    s_len = len(supports[0])
    for sequence in itertools.product(supports, repeat=k):
        columns = [step * sys.m + j for step, sup in enumerate(sequence) for j in sup]
        result = _solve(stacked[:, columns], x, feas_tol)
        if result.member:
            inputs = []
            for step, sup in enumerate(sequence):
                u = np.zeros(sys.m)
                u[list(sup)] = result.coefficients[step * s_len : (step + 1) * s_len]
                inputs.append(u)
            return sequence, inputs
    return None


def _sequence_cone_ladder(
    sys: SystemPair, supports: list[tuple[int, ...]], blocks: list[np.ndarray]
) -> Iterator[tuple[list[bytes], np.ndarray]]:
    """Yield, for k = 1..len(blocks), the distinct horizon-k sequence cones as
    (keys, stack), in the order the lexicographic sequences first reach them.
    Each column of the blocks is keyed once by its positive-scale canonical
    form: its bytes after division by its norm and rounding to 12 digits; a
    column of norm at most 1e-12 is zero and gets no key. The distinct keys
    are numbered, in byte order, into one NaN-padded table. A cone's key
    packs its boolean row over the m * len(blocks) numbers, so a recurring
    column set has the same key at every horizon; its generators, in byte
    order, are gathered from the table. A horizon-k sequence is a support on
    A^{k-1} B followed by a horizon-(k-1) sequence, so each support's row is
    joined with each row of horizon k-1 in turn.
    """
    width = sys.m * len(blocks)
    flat = np.ascontiguousarray(np.hstack(blocks).T)  # one row per column, block by block
    units = np.array([scale_unit(row) for row in flat])
    flat = flat / units[:, None]  # exact, so no norm over- or underflows and no key moves
    norms = np.sqrt([row.dot(row) for row in flat])  # np.linalg.norm's arithmetic
    live = norms * np.minimum(units, 1.0) > 1e-12  # a unit above 1 means a norm above 1
    keys = [row.tobytes() for row in np.round(flat[live] / norms[live, None], 12) + 0.0]
    columns = sorted(set(keys))
    number = {key: i for i, key in enumerate(columns)}
    numbers = np.full(width, width)
    numbers[live] = [number[key] for key in keys]
    numbers = numbers.reshape(len(blocks), sys.m)
    table = np.full((sys.n, len(columns) + 1), np.nan)
    table[:, :-1] = np.frombuffer(b"".join(columns)).reshape(-1, sys.n).T
    tails = np.zeros((1, width), dtype=bool)
    for column in numbers:
        heads = np.zeros((len(supports), width + 1), dtype=bool)  # zero columns: the spare last
        heads[np.arange(len(supports))[:, None], column[np.array(supports)]] = True
        merged = (heads[:, None, :width] | tails[None]).reshape(-1, width)
        packed = np.packbits(merged, axis=1)
        first = np.sort(np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)[1])
        tails = merged[first]
        index = _padded_columns(tails, len(columns))
        stack = table[np.arange(sys.n)[:, None], index[:, None, :]]
        yield [row.tobytes() for row in packed[first]], stack


def _padded_columns(rows: np.ndarray, pad: int) -> np.ndarray:
    """The True columns of each boolean row, ascending and padded with
    ``pad`` to the longest row's count, from one ``np.nonzero``."""
    sizes = rows.sum(axis=1)
    filled = np.arange(sizes.max()) < sizes[:, None]
    index = np.full(filled.shape, pad)
    index[filled] = np.nonzero(rows)[1]
    return index


@functools.lru_cache(maxsize=32)
def _probe_directions(n: int, cfg: OracleConfig) -> np.ndarray:
    """The probes of cfg in R^n, one per row of a read-only array, built once
    per (n, cfg): the random unit vectors, then +e_i and -e_i per axis."""
    probes = []
    for i in range(cfg.n_directions):
        rng = np.random.default_rng([cfg.seed, i])
        vec = rng.standard_normal(n)
        while np.linalg.norm(vec) < 1e-9:
            vec = rng.standard_normal(n)
        probes.append(vec / np.linalg.norm(vec))
    if cfg.include_axes:
        for axis in np.eye(n):
            probes += [axis, -axis]
    probes = np.array(probes)
    probes.flags.writeable = False
    return probes


class _Witnesses:
    """The separators of one sweep's solves and what its grids found (the
    third and sixth shortcuts above), as arrays over the sweep's probes and
    the cones of its grids, numbered in the order they first enter a grid.

    ``near[i, p]``: separator i has w^T p < cut(p). ``lasting[i]``:
    separator i is valid for every relaxation. ``outside[p, c]``: probe p
    was asked about cone c and lies outside it. A basis (the fourth
    shortcut) lives only in the grid whose solve found it."""

    def __init__(self, probes: np.ndarray, tol: Tolerances, blocks: list[np.ndarray]) -> None:
        count, n = probes.shape
        self.probes, self.tol = probes, tol
        self.widest = np.hstack(blocks[::-1])
        self.floor = -_SEPARATOR_TAU * np.abs(blocks[0]).max(initial=0.0)
        self.feas_tol = membership_tol(probes, tol)
        self.cut = -_REJECT_FACTOR * self.feas_tol
        self.ids: dict[Hashable, int] = {}
        self.separators = np.zeros((0, n))
        self.near = np.zeros((0, count), dtype=bool)
        self.lasting = np.zeros(0, dtype=bool)
        self.outside = np.zeros((count, 0), dtype=bool)
        self.questions = 0

    def settle(self, rows: np.ndarray, keys: list[Hashable], stack: np.ndarray) -> np.ndarray:
        """Ask each probe of ``rows`` about the cones ``keys`` (generators in
        ``stack``) in order, skipping those it is known to lie outside, up to
        its first member cone; return which rows have one. Stored separators
        answer the whole grid of questions at once; the lowest row whose next
        open question they leave unanswered gets a solve, and its witness is
        folded into the grid."""
        ids = np.array([self.ids.setdefault(key, len(self.ids)) for key in keys])
        new = len(self.ids) - self.outside.shape[1]
        self.outside = np.hstack([self.outside, np.zeros((len(self.probes), new), dtype=bool)])
        skip = self.outside[np.ix_(rows, ids)]
        member = np.zeros_like(skip)
        points = self.probes[rows].T
        floors = -_SEPARATOR_TAU * np.fmax.reduce(np.abs(stack), axis=(1, 2), initial=0.0)
        near_rows = self.near[:, rows]
        live = near_rows.any(axis=1)  # no other separator settles a question of the grid
        out = near_rows[live].T @ _valid_separators(self.separators[live], stack, floors)
        open_ = ~skip & ~out
        every = np.arange(len(rows))
        while True:
            first = open_.argmax(axis=1)
            needs = open_[every, first] & ~member[every, first]
            if not needs.any():
                break
            i = int(needs.argmax())
            c = int(first[i])
            generators = stack[c][:, ~np.isnan(stack[c, 0])]
            result = _solve(generators, self.probes[rows[i]], self.feas_tol[rows[i]])
            if result.member:
                member[i, c] = True
                positive = np.flatnonzero(result.coefficients > 0.0)
                if len(positive) == len(points):
                    basis = generators[:, positive]
                    coefficients = np.linalg.inv(basis) @ points
                    fits = (coefficients.min(axis=0) >= 0.0) & (
                        np.abs(points - basis @ coefficients).max(axis=0) <= self.feas_tol[rows]
                    )
                    member[:, c] |= fits
                    open_[:, c] |= fits & ~skip[:, c]
                continue
            open_[i, c] = False
            w = result.separator / np.abs(result.separator).max()
            valid = _valid_separators(w[None], stack, floors)[0]
            if valid[c]:
                near = self.probes @ w < self.cut
                self.separators = np.vstack([self.separators, w])
                self.near = np.vstack([self.near, near])
                self.lasting = np.append(self.lasting, (w @ self.widest).min() >= self.floor)
                open_ &= ~(near[rows, None] & valid) | member
        found = open_.any(axis=1)
        first = np.where(found, open_.argmax(axis=1), len(ids))
        asked = ~skip & (np.arange(len(ids)) < first[:, None])
        self.outside[np.ix_(rows, ids)] |= asked
        self.questions += int(asked.sum()) + int(found.sum())
        return found

    def spanned(self, rows: np.ndarray, relaxation: np.ndarray) -> np.ndarray:
        """Which probes of ``rows`` the relaxation G holds when it spans R^n
        positively (the seventh shortcut above), from one solve for them all;
        none when G is rank-deficient or does not span R^n positively."""
        points = self.probes[rows].T
        c, _, rank, _ = np.linalg.lstsq(relaxation, points, rcond=self.tol.rank_rtol)
        if rank < len(points):
            return np.zeros(len(rows), dtype=bool)
        result = _stiemke(relaxation, self.tol)
        if not result.member:
            return np.zeros(len(rows), dtype=bool)
        y = result.coefficients[:, None] + 1.0
        u = np.maximum(c + (-c / y).max(axis=0) * y, 0.0)
        fits = np.abs(points - relaxation @ u).max(axis=0) <= self.feas_tol[rows]
        self.questions += int(fits.sum())
        return fits


def _valid_separators(
    separators: np.ndarray, stack: np.ndarray, floors: np.ndarray
) -> np.ndarray:
    """valid[i, c]: separator i may reject points for cone c,
    min(w_i^T G_c) >= floors[c] = -tau max|G_c|, which every separator meets
    on a cone with no generators. fmin skips the NaN padding of ``stack``.
    Decided in chunks of cones, to bound the products held at once."""
    valid = np.empty((len(separators), len(stack)), dtype=bool)
    step = max(1, _CHUNK // (len(separators) * stack.shape[2] or 1))
    for start in range(0, len(stack), step):
        least = np.fmin.reduce(separators @ stack[start : start + step], axis=2, initial=np.inf)
        valid[:, start : start + step] = (least >= floors[start : start + step, None]).T
    return valid


def _sweep_coverage(
    sys: SystemPair, s: int, probes: np.ndarray | list[np.ndarray], k_max: int, tol: Tolerances
) -> tuple[int | None, list[int], int]:
    """Core loop: (first covering horizon or None, surviving probe indices, question count).

    Zero inputs are admissible, so per-probe coverage is monotone in the
    horizon and only still-uncovered probes are retested as K grows. The
    count is of membership questions, whether a cone solve, a stored
    separator (one valid at every horizon included), a basis found in the
    same grid, an earlier relaxation or a relaxation that spans R^n positively settled
    them.
    """
    supports = enumerate_supports(sys.m, s)
    blocks = _powers_times_b(sys, k_max)
    ladder = _sequence_cone_ladder(sys, supports, blocks)
    reached = 0  # horizons drawn from the ladder
    witnesses = _Witnesses(np.asarray(probes, dtype=float), tol, blocks)
    uncovered = np.arange(len(probes))
    known = np.zeros(len(probes), dtype=bool)  # inside an earlier, hence this, relaxation
    for k in range(1, k_max + 1):
        relaxation = witnesses.widest[:, (k_max - k) * sys.m :]  # [A^{k-1} B | ... | B]
        inside = known[uncovered]
        out = witnesses.near[witnesses.lasting][:, uncovered].any(axis=0)  # out for good
        open_ = ~inside & ~out
        witnesses.questions += int((~open_).sum())
        if k > 1 and open_.any() and not witnesses.lasting.any():  # may span R^n
            inside[open_] = witnesses.spanned(uncovered[open_], relaxation)
            open_ &= ~inside
        if open_.any():
            inside[open_] = witnesses.settle(uncovered[open_], [k], relaxation[None])
        known[uncovered[inside]] = True
        if s < sys.m and inside.any():  # at s == m the relaxation is the exact cone
            _guard_sequences(supports, k)
            keys, stack = next(itertools.islice(ladder, k - reached - 1, None))
            reached = k
            inside[inside] = witnesses.settle(uncovered[inside], keys, stack)
        uncovered = uncovered[~inside]
        if not len(uncovered):
            return k, [], witnesses.questions
    return None, uncovered.tolist(), witnesses.questions


def coverage_probe(
    sys: SystemPair,
    s: int,
    cfg: OracleConfig = OracleConfig(),
    tol: Tolerances = DEFAULT_TOL,
) -> OracleVerdict:
    """Test whether every probe direction becomes reachable by horizon k_max."""
    probes = _probe_directions(sys.n, cfg)
    covered_at, uncovered, lp_count = _sweep_coverage(sys, s, probes, cfg.k_max, tol)
    k_used = cfg.k_max if covered_at is None else covered_at
    return OracleVerdict(k_used, lp_count, uncovered_directions=tuple(probes[uncovered]))


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
        x = finite(lambda: sys.A @ x + sys.B @ u, "the state")
    return x
