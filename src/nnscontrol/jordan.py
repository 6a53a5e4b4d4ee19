"""Zero-eigenvalue Jordan structure and the row-splitting decomposition.

``zero_structure`` reads the block sizes of the eigenvalue 0 off the rank
sequence rank(A^k), which Kublanovskaya's staircase decides without forming
a power of A. ``build_decomposition`` constructs an invertible P, split
row-wise into a part P0 intertwining with a nonsingular J (P0 A^k = J^k P0)
and parts P_i that die under increasing powers of A (P_i A^k = 0 for
k >= i, with rank(P_i) = rank(P_i A^{i-1})). None of this needs Jordan
chains: by Fitting's lemma the row space of A^n and the left kernel of A^n
are complements, so P stacks an orthonormal basis of the first (P0) on an
orthonormal basis of the second, graded by the power that kills each row.
Both come from one SVD of each power A^k, cut at the rank the staircase
decided; no basis is inverted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import inf

import numpy as np

from .errors import InputError, NumericError
from .matrixcore import (
    DEFAULT_TOL, Tolerances, as_matrix, as_square, finite, mat_pow, rank, scale_unit,
)

__all__ = [
    "ZeroStructure",
    "RowSplitDecomposition",
    "DecompositionCheck",
    "DecompositionReport",
    "zero_structure",
    "build_decomposition",
    "verify_decomposition",
]

_VERIFY_RTOL = 1e-8  # relative bound of verify_decomposition's residual checks


@dataclass(frozen=True)
class ZeroStructure:
    """Jordan block statistics of the eigenvalue 0. Stored: rank_sequence, rank(A^k)
    for k = 0..n+1 (stabilized tail included), whose drops must be convex (else
    ``NumericError``). Derived from it:
    n: size of the largest zero block (0 when A is nonsingular).
    q: dimension of the nonsingular part, q = N - sum(i * q_i).
    q_sizes: q_sizes[i-1] = number of zero blocks of size i.
    r_tail: r_tail[k-1] = number of blocks of size >= k.
    nullity: number of zero blocks, sum(q_sizes).
    """

    rank_sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, qi in enumerate(self.q_sizes, start=1):
            if qi < 0:
                raise NumericError(f"negative block count at size {i}: rank drops not convex")

    @property
    def n(self) -> int:
        return len(self.rank_sequence) - 2  # first k with rank(A^k) == rank(A^{k+1})

    @property
    def q(self) -> int:
        return self.rank_sequence[self.n]

    @property
    def r_tail(self) -> tuple[int, ...]:
        ranks = self.rank_sequence[:-1]
        return tuple(before - after for before, after in zip(ranks, ranks[1:]))

    @property
    def q_sizes(self) -> tuple[int, ...]:
        drops = self.r_tail
        return tuple(now - later for now, later in zip(drops, drops[1:] + (0,)))

    @property
    def nullity(self) -> int:
        return sum(self.q_sizes)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "q_sizes": list(self.q_sizes),
            "r_tail": list(self.r_tail),
            "rank_sequence": list(self.rank_sequence),
        }


def zero_structure(a, tol: Tolerances = DEFAULT_TOL) -> ZeroStructure:
    """Block statistics of the eigenvalue 0 from the rank sequence rank(A^k),
    read off Kublanovskaya's staircase: no power of A is formed.

    The staircase runs on A / ``scale_unit(A)``, A rescaled by an exact power
    of two, so sigma_1 cannot overflow and no rank decision moves. Every step
    cuts at the one scale ``rank_rtol * sigma_1``. A block M of rank r below
    its size deflates to V_r^T M V_r, with V_r its first r right singular
    vectors (the complement of its kernel), so the k-th block has rank(A^k).
    The blocks shrink until one has full rank, so the loop always breaks.
    """
    a = as_square(a, "A")
    block = a / scale_unit(a)
    _, values, rows = np.linalg.svd(block)
    cut = tol.rank_rtol * values[0] if values.size else 0.0
    ranks = [a.shape[0]]
    while True:
        ranks.append(int(np.count_nonzero(values > cut)))
        if ranks[-1] == ranks[-2]:
            break
        complement = rows[: ranks[-1]]
        block = complement @ block @ complement.T
        _, values, rows = np.linalg.svd(block)
    return ZeroStructure(tuple(ranks))


@dataclass(frozen=True, eq=False)
class RowSplitDecomposition:
    """The invertible P with its row split, plus the nonsingular block J.

    P equals [P0; 0] plus the sum of the parts, where part i keeps exactly
    the rows of P that vanish under A^i but not A^{i-1} (r_i of them) and
    is zero elsewhere.
    """

    P: np.ndarray
    J: np.ndarray
    P0: np.ndarray
    parts: tuple[np.ndarray, ...]
    structure: ZeroStructure


def build_decomposition(a, tol: Tolerances = DEFAULT_TOL) -> RowSplitDecomposition:
    """Construct (P, J, P0, parts) realizing the row-splitting identity.

    By Fitting's lemma the row space of A^n, which A maps into itself, and
    the left kernel of A^n are complements, so orthonormal bases of the two
    stack into an invertible P. P0 is the first q right singular vectors of
    A^n and J = P0 A P0^T. The left kernels L_k of A^k grow with k; part k
    is the r_k leading left singular vectors of L_k less its projection on
    the rows the earlier parts took, so its rows vanish under A^k and no
    combination of them under A^{k-1}. Each L_k is the last N - rank(A^k)
    left singular vectors of one SVD of A^k, cut at the rank
    ``zero_structure`` decided. ``NumericError`` is raised when a projected
    block has fewer than r_k singular values above 1e-8, when cond(P) > 1e12
    and when P A P^-1 overflows.
    """
    a = as_square(a, "A")
    structure = zero_structure(a, tol)
    n_dim = a.shape[0]
    if structure.n == 0:
        return RowSplitDecomposition(
            P=np.eye(n_dim), J=a, P0=np.eye(n_dim), parts=(), structure=structure
        )

    taken = np.zeros((0, n_dim))  # the parts' rows so far: an orthonormal basis of L_{k-1}
    for k, count in enumerate(structure.r_tail, start=1):
        u, _, vh = np.linalg.svd(mat_pow(a, k, "A"))
        kernel = u[:, structure.rank_sequence[k] :]
        rows, values, _ = np.linalg.svd(kernel - taken.T @ (taken @ kernel), full_matrices=False)
        if np.count_nonzero(values > 1e-8) < count:
            raise NumericError(f"left kernel of A^{k} adds fewer than {count} rows to A^{k - 1}'s")
        taken = np.vstack([taken, rows[:, :count].T])
    p0 = vh[: structure.q]  # from the last power, A^n
    p = np.vstack([p0, taken])
    cond = np.linalg.cond(p)
    if not cond <= 1e12:  # also refuses inf and nan
        raise NumericError(f"P is numerically singular (cond {cond:.2e})")

    j_block = finite(lambda: p0 @ a @ p0.T, "P A P^-1")
    level = np.repeat(np.arange(structure.n + 1), (structure.q, *structure.r_tail))
    parts = tuple(np.where((level == i)[:, None], p, 0.0) for i in range(1, structure.n + 1))
    return RowSplitDecomposition(P=p, J=j_block, P0=p0, parts=parts, structure=structure)


@dataclass(frozen=True)
class DecompositionCheck:
    name: str
    passed: bool
    residual: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DecompositionReport:
    checks: tuple[DecompositionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [c.to_dict() for c in self.checks]}


def verify_decomposition(
    a, dec: RowSplitDecomposition, tol: Tolerances = DEFAULT_TOL
) -> DecompositionReport:
    """Re-check every decomposition property, reporting residuals.

    Power identities are compared at a scale growing like max(1, ||A||)^k,
    since errors amplify under repeated multiplication, and infinite once
    that passes the float range. Failures become report entries; only a
    decomposition of another shape than A raises.
    """
    a = as_matrix(a, "A")
    if dec.P.shape != a.shape:
        raise InputError(f"decomposition is of shape {dec.P.shape}, but A has shape {a.shape}")
    n_dim = a.shape[0]
    st = dec.structure
    checks: list[DecompositionCheck] = []
    norm_a = max(1.0, float(np.linalg.norm(a, 2)))

    def add(name: str, residual: float, bound: float) -> None:
        checks.append(DecompositionCheck(name=name, passed=residual <= bound, residual=residual))

    def power_bound(k: int) -> float:
        """_VERIFY_RTOL * max(1, ||A||)^k, or inf where Python's power overflows."""
        try:
            return _VERIFY_RTOL * norm_a**k
        except OverflowError:
            return inf

    add("P_invertible", float(n_dim - rank(dec.P, tol)), 0.0)

    # Row-splitting identity: P = [P0; 0] + sum of parts.
    assembled = np.zeros((n_dim, n_dim))
    assembled[: st.q, :] = dec.P0
    for part in dec.parts:
        assembled += part
    scale_p = max(1.0, float(np.abs(dec.P).max()))
    add("row_split_identity", float(np.abs(dec.P - assembled).max()) / scale_p, _VERIFY_RTOL)

    # Nonsingular block: rank(P0) = q and J invertible.
    add("P0_full_row_rank", float(abs(st.q - rank(dec.P0, tol))), 0.0)
    add("J_nonsingular", float(st.q - rank(dec.J, tol)), 0.0)

    # Intertwining P0 A^k = J^k P0 for k = 0..n+1.
    powers = [mat_pow(a, k, "A") for k in range(st.n + 2)]
    scale_p0 = max(1.0, float(np.abs(dec.P0).max(initial=0.0)))
    for k in range(st.n + 2):
        lhs = dec.P0 @ powers[k]
        rhs = mat_pow(dec.J, k, "J") @ dec.P0 if st.q else lhs * 0.0
        add(f"intertwine_k{k}", float(np.abs(lhs - rhs).max(initial=0.0)) / scale_p0, power_bound(k))

    # Annihilation and rank preservation for each part.
    for i, part in enumerate(dec.parts, start=1):
        scale_part = max(1.0, float(np.abs(part).max(initial=0.0)))
        rank_part = rank(part, tol)
        rank_shifted = rank(part @ powers[i - 1], tol)
        checks.append(
            DecompositionCheck(
                name=f"part{i}_rank_preserved",
                passed=rank_part == rank_shifted and rank_part <= st.nullity,
                residual=float(abs(rank_part - rank_shifted)),
            )
        )
        for k in range(i, st.n + 2):
            add(
                f"part{i}_annihilated_k{k}",
                float(np.abs(part @ powers[k]).max(initial=0.0)) / scale_part,
                power_bound(k),
            )
    return DecompositionReport(checks=tuple(checks))
