"""Zero-eigenvalue Jordan structure and the row-splitting decomposition.

``zero_structure`` reads the block sizes of the eigenvalue 0 off the rank
sequence rank(A^k), which Kublanovskaya's staircase decides without forming
a power of A. ``build_decomposition`` takes ker(A^k) and range(A^k) from one
SVD of each power, cut at the rank the staircase decided, and constructs an
invertible P, split row-wise into a part P0 intertwining with a nonsingular
J (P0 A^k = J^k P0) and parts P_i that die under increasing powers of A
(P_i A^k = 0 for k >= i, with rank(P_i) = rank(P_i A^{i-1})). Only the
zero-eigenvalue chains are computed explicitly; the nonsingular part J is
A restricted to range(A^n) in a computed orthonormal basis, because the
full Jordan form of the nonzero spectrum is numerically unstable and
nothing downstream needs it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


def _project_out(candidates: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Components of candidate columns orthogonal to an orthonormal span."""
    if span.shape[1] == 0:  # kept: a product's C order would change the rounding downstream
        return candidates
    return candidates - span @ (span.T @ candidates)


def _orth(columns: list[np.ndarray], n_dim: int) -> np.ndarray:
    if not columns:
        return np.zeros((n_dim, 0))
    stacked = np.column_stack(columns)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > 1e-12 * s[0]
    return u[:, : int(np.count_nonzero(keep))]


def _zero_chains(
    a: np.ndarray, structure: ZeroStructure, kernels: list[np.ndarray]
) -> list[list[np.ndarray]]:
    """Jordan chains for the eigenvalue 0, longest first.

    Descending-kernel completion: at height k, new chain heads are picked
    from ker(A^k) independent of ker(A^{k-1}) and of the vectors inherited
    from longer chains; candidates are orthonormalized before selection so
    the basis stays well conditioned.
    """
    n_dim = a.shape[0]
    chains: list[list[np.ndarray]] = []
    for k in range(structure.n, 0, -1):
        # Every chain from a longer block is at height k: chain[-1] is inherited.
        avoid = _orth(list(kernels[k - 1].T) + [chain[-1] for chain in chains], n_dim)
        projected = _project_out(kernels[k], avoid)
        for _ in range(structure.q_sizes[k - 1]):
            norms = np.linalg.norm(projected, axis=0)
            if norms.size == 0 or norms.max() <= 1e-8:
                raise NumericError(
                    f"chain completion failed at height {k}: no independent kernel vector"
                )
            pick = int(np.argmax(norms))
            head = projected[:, pick] / norms[pick]
            chains.append([head])
            projected = _project_out(projected, head[:, None])
        # Push every chain one level down for the next pass.
        if k > 1:
            for chain in chains:
                chain.append(a @ chain[-1])
    return chains


def build_decomposition(a, tol: Tolerances = DEFAULT_TOL) -> RowSplitDecomposition:
    """Construct (P, J, P0, parts) realizing the row-splitting identity.

    The basis is [range(A^n) | zero chains], chains ordered by block size
    ascending and each chain listed bottom-up, so the change of basis block
    diagonalizes A into the nonsingular J and shift blocks. ker(A^k) and
    range(A^n) come from the SVD of A^k, cut at the rank ``zero_structure``
    decided. A P A P^-1 that overflows raises ``NumericError``.
    """
    a = as_square(a, "A")
    structure = zero_structure(a, tol)
    n_dim = a.shape[0]
    if structure.n == 0:
        return RowSplitDecomposition(
            P=np.eye(n_dim), J=a, P0=np.eye(n_dim), parts=(), structure=structure
        )

    kernels = [np.zeros((n_dim, 0))]
    for k in range(1, structure.n + 1):
        u, _, vh = np.linalg.svd(mat_pow(a, k, "A"))
        kernels.append(vh[structure.rank_sequence[k] :].copy().T)  # V^H itself is not kept
    q = structure.q
    chains = _zero_chains(a, structure, kernels)
    chains.sort(key=len)  # block sizes ascending, matching q_sizes order

    # Chains are stored head-first and enter the basis bottom-up (w_r = A^{s-1-r} head),
    # so row r of a size-s chain is in part s - r, the power that kills it; P0's are level 0.
    basis = np.column_stack([u[:, :q], *(np.column_stack(chain[::-1]) for chain in chains)])
    level = np.concatenate([np.zeros(q, int), *(np.arange(len(chain), 0, -1) for chain in chains)])
    try:
        p = np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"assembled basis is singular: {exc}") from exc
    cond = np.linalg.cond(basis)
    if not cond <= 1e12:  # also refuses inf and nan
        raise NumericError(f"assembled basis is numerically singular (cond {cond:.2e})")

    j_block = finite(lambda: p @ a @ basis, "P A P^-1")[:q, :q]
    parts = tuple(np.where((level == i)[:, None], p, 0.0) for i in range(1, structure.n + 1))
    return RowSplitDecomposition(P=p, J=j_block, P0=p[:q, :], parts=parts, structure=structure)


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
    since errors amplify under repeated multiplication. Failures become
    report entries; only a decomposition of another shape than A raises.
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

    add("P_invertible", float(n_dim - rank(dec.P, tol)), 0.0)

    # Row-splitting identity: P = [P0; 0] + sum of parts.
    assembled = np.zeros((n_dim, n_dim))
    assembled[: st.q, :] = dec.P0
    for part in dec.parts:
        assembled += part
    scale_p = max(1.0, float(np.abs(dec.P).max()))
    add("row_split_identity", float(np.abs(dec.P - assembled).max()) / scale_p, _VERIFY_RTOL)

    # Nonsingular block: rank(P0) = q and J invertible.
    checks.append(
        DecompositionCheck(
            name="P0_full_row_rank", passed=rank(dec.P0, tol) == st.q, residual=0.0
        )
    )
    add("J_nonsingular", float(st.q - rank(dec.J, tol)), 0.0)

    # Intertwining P0 A^k = J^k P0 for k = 0..n+1.
    powers = [mat_pow(a, k, "A") for k in range(st.n + 2)]
    scale_p0 = max(1.0, float(np.abs(dec.P0).max(initial=0.0)))
    for k in range(st.n + 2):
        lhs = dec.P0 @ powers[k]
        rhs = mat_pow(dec.J, k, "J") @ dec.P0 if st.q else lhs * 0.0
        add(
            f"intertwine_k{k}",
            float(np.abs(lhs - rhs).max(initial=0.0)) / scale_p0,
            _VERIFY_RTOL * norm_a**k,
        )

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
                _VERIFY_RTOL * norm_a**k,
            )
    return DecompositionReport(checks=tuple(checks))
