"""Dense matrix primitives with an explicit tolerance policy.

Every floating-point decision made downstream (cone feasibility, verdicts,
the zero-eigenvalue decomposition) funnels through the thresholds defined
here, so identical inputs and tolerances always give identical answers.
The eigen-analysis costs O(N^3) when the eigenvalues are well separated:
one eigenvalue solve fixes the clustering, one eigenvector solve supplies
the left eigenvectors, and only repeated or closely spaced eigenvalues need
a null-space SVD.
Correctness is promised for well-conditioned, small matrices (N <= 8);
larger or ill-conditioned inputs get best-effort results with residuals
reported rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "EigenGroup",
    "LeftEigenSystem",
    "as_matrix",
    "as_vector",
    "rank",
    "null_space_basis",
    "left_eigensystem",
    "pbh_rank",
    "mat_pow",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy for every floating-point comparison.

    rank_rtol: singular values below ``rank_rtol * sigma_max`` count as zero.
    eig_imag_tol: threshold for calling an eigenvalue real; also the base
        scale of the eigenvalue clustering radius.
    ineq_tol: absolute slack for ``<= 0`` tests on max-normalized vectors.
    """

    rank_rtol: float = 1e-9
    eig_imag_tol: float = 1e-8
    ineq_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "eig_imag_tol", "ineq_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InputError(f"{name} must lie strictly between 0 and 1, got {value!r}")

    def to_dict(self) -> dict:
        return {
            "rank_rtol": self.rank_rtol,
            "eig_imag_tol": self.eig_imag_tol,
            "ineq_tol": self.ineq_tol,
        }


DEFAULT_TOL = Tolerances()


def as_matrix(a, name: str = "matrix", allow_complex: bool = False) -> np.ndarray:
    """Validate and return a 2-D finite array (float64, or complex128 if allowed)."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        if not allow_complex:
            raise InputError(f"{name} must be real")
        arr = arr.astype(np.complex128)
    else:
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{name} has non-numeric entries: {exc}") from exc
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise InputError(f"{name} has a non-finite entry at row {bad[0]}, column {bad[1]}")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D finite float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} has non-finite entries")
    return arr


def rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: singular values exceeding ``rank_rtol * sigma_max``."""
    m = as_matrix(m, "matrix", allow_complex=True)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rtol * s[0]))


def null_space_basis(m, tol: Tolerances = DEFAULT_TOL, *, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel of ``m`` as columns.

    Singular values below ``max(rank_rtol * sigma_max, atol)`` are treated
    as zero; ``atol`` lets callers widen the cutoff (used for eigenspace
    extraction, where the shift is only known to clustering accuracy).
    """
    m = as_matrix(m, "matrix", allow_complex=True)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(m)
    cutoff = max(tol.rank_rtol * (s[0] if s.size else 0.0), atol)
    r = int(np.count_nonzero(s > cutoff))
    basis = vh[r:].conj().T
    if np.iscomplexobj(basis) and np.abs(basis.imag).max(initial=0.0) == 0.0:
        basis = basis.real
    return basis


@dataclass(frozen=True)
class EigenGroup:
    """One clustered eigenvalue of A with its left eigenspace.

    ``basis`` has orthonormal columns z satisfying z^T A = eigenvalue * z^T
    up to ``max_residual``; it is real when ``is_real`` and complex otherwise.
    ``spread`` is the cluster diameter seen by the eigensolver, nonzero when
    numerically split copies of a repeated eigenvalue were merged.
    """

    eigenvalue: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    is_real: bool
    basis: np.ndarray
    spread: float
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "re": float(self.eigenvalue.real),
            "im": float(self.eigenvalue.imag),
            "algebraic_multiplicity": self.algebraic_multiplicity,
            "geometric_multiplicity": self.geometric_multiplicity,
            "is_real": self.is_real,
            "spread": self.spread,
            "max_residual": self.max_residual,
        }


@dataclass(frozen=True)
class LeftEigenSystem:
    """All eigenvalues of A, grouped by numerical clustering, with left bases."""

    groups: tuple[EigenGroup, ...]
    cluster_radius: float


def _cluster(close: np.ndarray) -> list[np.ndarray]:
    """Index groups chained together by the symmetric boolean matrix ``close``."""
    n = close.shape[0]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.triu(close, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    buckets: dict[int, list[int]] = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in buckets.values()]


# Rounding splits a defective eigenvalue into copies that can lie farther
# apart than the clustering radius, so they become one-member groups. Their
# eig(A^T) vectors are nearly parallel and miss the rest of the eigenspace,
# which the null-space SVD of the copy nearest the true eigenvalue still
# finds. An eigenvalue therefore takes its vector from eig(A^T) only when
# every other eigenvalue is farther than this factor times the larger of
# the radius and the two eigenvalues' error bars. The error bar of an
# eigvals(A) value is its distance to the nearest eig(A^T) eigenvalue: two
# backward-stable solves agree to rounding level on a simple eigenvalue and
# differ by about the size of the split on a defective one, which grows
# like eps**(1/k) for a Jordan block of size k.
_CROWDING_FACTOR = 1e3


def _eig_column(
    value: complex, w: np.ndarray, vectors: np.ndarray, radius: float, is_real: bool
) -> np.ndarray | None:
    """The unit eigenvector of an isolated eigenvalue, as an N x 1 basis.

    None when not exactly one eigenvalue ``w[j]`` of the eigenvector solve
    lies within ``radius`` of ``value``, or when a real group's value or
    ``w[j]`` carries an imaginary part.
    """
    (match,) = np.nonzero(np.abs(w - value) <= radius)
    if match.size != 1:
        return None
    j = int(match[0])
    column = vectors[:, j : j + 1]
    if not is_real:
        return column.astype(np.complex128)
    if value.imag != 0.0 or w[j].imag != 0.0:
        return None
    return column.real


def left_eigensystem(a, tol: Tolerances = DEFAULT_TOL) -> LeftEigenSystem:
    """Eigenvalues of A with orthonormal left-eigenvector bases per group.

    Left vectors satisfy z^T A = lambda z^T, i.e. they span the kernel of
    A^T - lambda I. Eigenvalues within ``eig_imag_tol * (1 + spectral
    radius)`` of each other are merged into one group, since repeated
    eigenvalues of non-normal matrices split numerically.

    The groups come from ``eigvals(A)``. One ``eig(A^T)`` solve runs when a
    group has one member; its eigenvalues are not used for the grouping,
    because they differ from ``eigvals(A)`` at rounding level and would
    move the cluster boundaries. A one-member group that no other
    eigenvalue crowds (see ``_CROWDING_FACTOR``) takes as its basis the
    unit ``eig(A^T)`` eigenvector matched to it by eigenvalue. Every other
    group (several members, a crowded one-member group, which may be a
    split copy of a defective eigenvalue, or one that matches no single
    ``eig(A^T)`` eigenvalue) takes the kernel of A^T - lambda I from an
    SVD. A is real, so a complex group whose exact conjugate group was
    already solved takes the conjugate of that basis.
    """
    a = as_matrix(a, "A")
    n, cols = a.shape
    if n != cols:
        raise InputError(f"A must be square, got shape {a.shape}")
    if n == 0:
        return LeftEigenSystem(groups=(), cluster_radius=0.0)
    try:
        values = np.linalg.eigvals(a)
        radius = tol.eig_imag_tol * (1.0 + float(np.abs(values).max()))
        gaps = np.abs(values[:, None] - values[None, :])
        isolated = np.count_nonzero(gaps <= radius, axis=1) == 1
        if isolated.any():
            w, vectors = np.linalg.eig(a.T)
            bars = np.maximum(radius, np.abs(values[:, None] - w[None, :]).min(axis=1))
            reach = _CROWDING_FACTOR * np.maximum.outer(bars, bars)
            isolated &= np.count_nonzero(gaps <= reach, axis=1) == 1
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc

    groups = []
    complex_bases: dict[tuple[complex, int], np.ndarray] = {}
    for idx in _cluster(gaps <= radius):
        members = values[idx]
        center = complex(members.mean())
        spread = float(np.abs(members - center).max())
        is_real = abs(center.imag) <= tol.eig_imag_tol
        lam: complex = complex(center.real) if is_real else center
        if is_real:
            shifted = a.T - lam.real * np.eye(n)
        else:
            shifted = a.T.astype(np.complex128) - lam * np.eye(n)
        mirror = complex_bases.get((lam.conjugate(), members.size))
        if mirror is not None:
            basis = mirror.conj()
        else:
            basis = None
            if isolated[idx[0]]:
                basis = _eig_column(members[0], w, vectors, radius, is_real)
            if basis is None:
                basis = null_space_basis(shifted, tol, atol=radius * (1.0 + 1e-6))
            if basis.shape[1] == 0:
                # The cluster center is within `radius` of a true eigenvalue, so
                # sigma_min <= radius; if rounding pushed it past the cutoff,
                # keep the closest singular direction and report its residual.
                _, _, vh = np.linalg.svd(shifted)
                basis = vh[-1:].conj().T
            if not is_real:
                complex_bases[(lam, members.size)] = basis
        residual = float(max(np.linalg.norm(shifted @ basis[:, j]) for j in range(basis.shape[1])))
        groups.append(
            EigenGroup(
                eigenvalue=lam,
                algebraic_multiplicity=int(members.size),
                geometric_multiplicity=int(basis.shape[1]),
                is_real=is_real,
                basis=basis,
                spread=spread,
                max_residual=residual,
            )
        )
    groups.sort(key=lambda g: (g.eigenvalue.real, g.eigenvalue.imag))
    return LeftEigenSystem(groups=tuple(groups), cluster_radius=radius)


def pbh_rank(a, b, lam, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the N x (N+m) pencil [lambda*I - A | B]."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError(f"A must be square, got shape {a.shape}")
    if b.shape[0] != n:
        raise InputError(f"B must have {n} rows, got {b.shape[0]}")
    lam = complex(lam)
    if lam.imag == 0.0:
        pencil = np.hstack([lam.real * np.eye(n) - a, b])
    else:
        pencil = np.hstack([lam * np.eye(n) - a.astype(np.complex128), b.astype(np.complex128)])
    return rank(pencil, tol)


def mat_pow(m, k: int) -> np.ndarray:
    """M**k by ``np.linalg.matrix_power`` (squaring from k = 4), M**0 = I: the
    one power convention of ``jordan``. Preserves nilpotent structure."""
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise InputError(f"matrix must be square, got shape {m.shape}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InputError(f"power must be a nonnegative integer, got {k!r}")
    return np.linalg.matrix_power(m, int(k))
