"""Zero-eigenvalue Jordan structure and the row-splitting decomposition.

``zero_structure`` reads the block sizes of the eigenvalue 0 off the rank
sequence rank(A^k); one SVD of each power decides its rank and gives its
kernel and range. ``build_decomposition`` constructs an invertible P,
split row-wise into a part P0 intertwining with a nonsingular J
(P0 A^k = J^k P0) and parts P_i that die under increasing powers of A
(P_i A^k = 0 for k >= i, with rank(P_i) = rank(P_i A^{i-1})). Only the
zero-eigenvalue chains are computed explicitly; the nonsingular part J is
A restricted to range(A^n) in a computed orthonormal basis, because the
full Jordan form of the nonzero spectrum is numerically unstable and
nothing downstream needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .matrixcore import DEFAULT_TOL, Tolerances, as_matrix, mat_pow, rank

__all__ = [
    "ZeroStructure",
    "RowSplitDecomposition",
    "DecompositionCheck",
    "DecompositionReport",
    "zero_structure",
    "build_decomposition",
    "verify_decomposition",
]


@dataclass(frozen=True)
class ZeroStructure:
    """Jordan block statistics of the eigenvalue 0.

    n: size of the largest zero block (0 when A is nonsingular).
    q: dimension of the nonsingular part, q = N - sum(i * q_i).
    q_sizes: q_sizes[i-1] = number of zero blocks of size i.
    r_tail: r_tail[k-1] = number of blocks of size >= k.
    rank_sequence: rank(A^k) for k = 0..n+1 (stabilized tail included).
    """

    n: int
    q: int
    q_sizes: tuple[int, ...]
    r_tail: tuple[int, ...]
    rank_sequence: tuple[int, ...]

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


def _power_ladder(a, tol: Tolerances) -> tuple[ZeroStructure, list[np.ndarray], np.ndarray]:
    """The zero structure, kernels[k] = ker(A^k) for k = 0..n, and range(A^n).

    One SVD of A^k = ``mat_pow(A, k)`` decides r = rank(A^k); its last N - r
    rows of V^H span ker(A^k) and its first r columns of U span range(A^k).
    The ranks fall from N at most N times, so the loop always breaks.
    """
    a = as_matrix(a, "A")
    n_dim = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError(f"A must be square, got shape {a.shape}")
    ranks = [n_dim]
    kernels = [np.zeros((n_dim, 0))]
    range_basis = np.eye(n_dim)
    for k in range(1, n_dim + 2):
        # as_matrix refuses a power that overflowed, which an SVD would rank.
        u, s, vh = np.linalg.svd(as_matrix(mat_pow(a, k), "matrix"))
        ranks.append(int(np.count_nonzero(s > tol.rank_rtol * s[0])) if s.size else 0)
        if ranks[-1] > ranks[-2]:
            raise NumericError(
                f"rank sequence increased at power {k}: {ranks[-2]} -> {ranks[-1]}"
            )
        if ranks[-1] == ranks[-2]:
            break
        kernels.append(vh[ranks[-1] :].copy().T)  # a copy, so V^H itself is not kept
        range_basis = u[:, : ranks[-1]]

    n = len(ranks) - 2  # first k with rank(A^k) == rank(A^{k+1})
    # Block counts from second differences of the rank sequence.
    drops = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]  # r_k
    q_sizes = []
    for i in range(1, n + 1):
        next_drop = drops[i] if i < n else 0
        qi = drops[i - 1] - next_drop
        if qi < 0:
            raise NumericError(f"negative block count at size {i}: rank drops not convex")
        q_sizes.append(qi)
    structure = ZeroStructure(
        n=n,
        q=ranks[n],
        q_sizes=tuple(q_sizes),
        r_tail=tuple(drops),
        rank_sequence=tuple(ranks),
    )
    return structure, kernels, range_basis


def zero_structure(a, tol: Tolerances = DEFAULT_TOL) -> ZeroStructure:
    """Block statistics of the eigenvalue 0 from the rank sequence rank(A^k),
    one SVD per power deciding its rank and giving its kernel and range."""
    return _power_ladder(a, tol)[0]


@dataclass(frozen=True)
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
    if span.shape[1] == 0:
        return candidates
    return candidates - span @ (span.T @ candidates)


def _orth(columns: list[np.ndarray], n_dim: int) -> np.ndarray:
    if not columns:
        return np.zeros((n_dim, 0))
    stacked = np.column_stack(columns)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > 1e-12 * (s[0] if s.size else 1.0)
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
    inherited: list[np.ndarray] = []  # chain vectors currently at height k
    inherited_owner: list[int] = []
    for k in range(structure.n, 0, -1):
        qk = structure.q_sizes[k - 1]
        avoid = _orth(list(kernels[k - 1].T) + inherited, n_dim)
        new_heads: list[np.ndarray] = []
        projected = _project_out(kernels[k], avoid)
        for _ in range(qk):
            norms = np.linalg.norm(projected, axis=0) if projected.shape[1] else np.zeros(0)
            if norms.size == 0 or norms.max() <= 1e-8:
                raise NumericError(
                    f"chain completion failed at height {k}: no independent kernel vector"
                )
            pick = int(np.argmax(norms))
            head = projected[:, pick] / norms[pick]
            new_heads.append(head)
            projected = _project_out(projected, head[:, None])
        for head in new_heads:
            chains.append([head])
            inherited.append(head)
            inherited_owner.append(len(chains) - 1)
        # Push every vector at this height one level down for the next pass.
        if k > 1:
            lowered = []
            for vec, owner in zip(inherited, inherited_owner):
                nxt = a @ vec
                chains[owner].append(nxt)
                lowered.append(nxt)
            inherited = lowered
    return chains


def build_decomposition(a, tol: Tolerances = DEFAULT_TOL) -> RowSplitDecomposition:
    """Construct (P, J, P0, parts) realizing the row-splitting identity.

    The basis is [range(A^n) | zero chains], chains ordered by block size
    ascending and each chain listed bottom-up, so the change of basis block
    diagonalizes A into the nonsingular J and shift blocks.
    """
    a = as_matrix(a, "A")
    structure, kernels, range_basis = _power_ladder(a, tol)  # refuses a non-square A
    n_dim = a.shape[0]
    if structure.n == 0:
        return RowSplitDecomposition(
            P=np.eye(n_dim), J=a.copy(), P0=np.eye(n_dim), parts=(), structure=structure
        )

    q = structure.q
    chains = _zero_chains(a, structure, kernels)
    chains.sort(key=len)  # block sizes ascending, matching q_sizes order

    columns = [range_basis[:, j] for j in range(q)]
    # part_rows[i-1] = row indices of P belonging to part i.
    part_rows: list[list[int]] = [[] for _ in range(structure.n)]
    col_index = q
    for chain in chains:
        size = len(chain)
        # Chain stored head-first (height size .. 1); basis order is
        # bottom-up: w_r = A^{size-1-r} head, so row r dies at power size - r.
        for r in range(size):
            columns.append(chain[size - 1 - r])
            part_rows[size - r - 1].append(col_index)
            col_index += 1

    basis = np.column_stack(columns)
    try:
        p = np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"assembled basis is singular: {exc}") from exc
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericError(f"assembled basis is numerically singular (cond {cond:.2e})")

    transformed = p @ a @ basis
    j_block = transformed[:q, :q]
    parts = []
    for i in range(1, structure.n + 1):
        part = np.zeros((n_dim, n_dim))
        rows = part_rows[i - 1]
        part[rows, :] = p[rows, :]
        parts.append(part)
    return RowSplitDecomposition(
        P=p, J=j_block, P0=p[:q, :], parts=tuple(parts), structure=structure
    )


@dataclass(frozen=True)
class DecompositionCheck:
    name: str
    passed: bool
    residual: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "residual": self.residual}


@dataclass(frozen=True)
class DecompositionReport:
    checks: tuple[DecompositionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [c.to_dict() for c in self.checks]}


def verify_decomposition(
    a, dec: RowSplitDecomposition, tol: Tolerances = DEFAULT_TOL, *, rtol: float = 1e-8
) -> DecompositionReport:
    """Re-check every decomposition property, reporting residuals.

    Power identities are compared at a scale growing like max(1, ||A||)^k,
    since errors amplify under repeated multiplication. Failures become
    report entries, never exceptions.
    """
    a = as_matrix(a, "A")
    n_dim = a.shape[0]
    st = dec.structure
    checks: list[DecompositionCheck] = []
    norm_a = max(1.0, float(np.linalg.norm(a, 2)))

    def add(name: str, residual: float, bound: float) -> None:
        checks.append(DecompositionCheck(name=name, passed=residual <= bound, residual=residual))

    # P invertible.
    p_rank = rank(dec.P, tol)
    checks.append(
        DecompositionCheck(name="P_invertible", passed=p_rank == n_dim, residual=float(n_dim - p_rank))
    )

    # Row-splitting identity: P = [P0; 0] + sum of parts.
    assembled = np.zeros((n_dim, n_dim))
    assembled[: st.q, :] = dec.P0
    for part in dec.parts:
        assembled += part
    scale_p = max(1.0, float(np.abs(dec.P).max()))
    add("row_split_identity", float(np.abs(dec.P - assembled).max()) / scale_p, rtol)

    # Nonsingular block: rank(P0) = q and J invertible.
    checks.append(
        DecompositionCheck(
            name="P0_full_row_rank", passed=rank(dec.P0, tol) == st.q, residual=0.0
        )
    )
    j_rank = rank(dec.J, tol)
    checks.append(
        DecompositionCheck(name="J_nonsingular", passed=j_rank == st.q, residual=float(st.q - j_rank))
    )

    # Intertwining P0 A^k = J^k P0 for k = 0..n+1.
    powers = [mat_pow(a, k) for k in range(st.n + 2)]
    scale_p0 = max(1.0, float(np.abs(dec.P0).max(initial=0.0)))
    for k in range(st.n + 2):
        lhs = dec.P0 @ powers[k]
        rhs = mat_pow(dec.J, k) @ dec.P0 if st.q else lhs * 0.0
        add(
            f"intertwine_k{k}",
            float(np.abs(lhs - rhs).max(initial=0.0)) / scale_p0,
            rtol * norm_a**k,
        )

    # Annihilation and rank preservation for each part.
    nullity = n_dim - st.rank_sequence[1] if len(st.rank_sequence) > 1 else 0
    for i, part in enumerate(dec.parts, start=1):
        scale_part = max(1.0, float(np.abs(part).max(initial=0.0)))
        rank_part = rank(part, tol)
        rank_shifted = rank(part @ powers[i - 1], tol)
        checks.append(
            DecompositionCheck(
                name=f"part{i}_rank_preserved",
                passed=rank_part == rank_shifted and rank_part <= nullity,
                residual=float(abs(rank_part - rank_shifted)),
            )
        )
        for k in range(i, st.n + 2):
            add(
                f"part{i}_annihilated_k{k}",
                float(np.abs(part @ powers[k]).max(initial=0.0)) / scale_part,
                rtol * norm_a**k,
            )
    return DecompositionReport(checks=tuple(checks))
