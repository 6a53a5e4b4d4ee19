"""Dense matrix primitives, the input rules and an explicit tolerance policy.

Each input rule is defined here, once: ``as_matrix``, ``as_square``,
``as_input_matrix``, ``as_vector``, ``validate_count``,
``validate_sparsity`` and ``Tolerances``; so are two numeric rules, the
overflow guard ``finite`` and the eigenvalue-cluster rule ``eigen_clusters``.
The number rule behind ``as_matrix`` and ``as_vector`` is the only one:
system files, certificate files, the bundled fixtures and ``Tolerances``
are read through these doors.

Floating-point decisions downstream use the thresholds of ``Tolerances``
and a few fixed constants, each named where it acts: ``_CROWDING_FACTOR``
and the 1e-6 cutoff widening here; ``conelp._DUAL_RTOL`` and
``_BLOCK_RCOND``; ``oracle._SEPARATOR_TAU``, ``_REJECT_FACTOR``, the 1e-12
zero-column cut and 12-digit rounding of ``_sequence_cone_ladder`` and the
1e-9 redraw guard of ``_probe_directions``; ``certificate_direction``'s
1e-12; and ``jordan``'s 1e-8 (left-kernel growth guard), 1e12 (condition
bound) and ``_VERIFY_RTOL``. Identical inputs and tolerances
always give identical answers. The eigen-analysis costs O(N^3) when the
eigenvalues are well separated (see ``left_eigensystem``).
Correctness is promised for well-conditioned, small matrices (N <= 8);
larger or ill-conditioned inputs get best-effort results with residuals
reported rather than hidden.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from math import inf

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
    """Numeric policy for every floating-point comparison: three floats in (0, 1).

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
            number = float(as_vector([value], name)[0])
            if not 0.0 < number < 1.0:
                raise InputError(f"{name} must lie strictly between 0 and 1, got {value!r}")
            object.__setattr__(self, name, number)

    def to_dict(self) -> dict:
        return asdict(self)


_ROW = (list, tuple, np.ndarray)
# The types an entry may have: Python's and numpy's integers, floats and
# complex numbers. Exact types, so a bool (an int subclass) is not one.
_NUMBER_TYPES = frozenset(
    [int, float, complex]
    + [np.dtype(c).type for c in np.typecodes["AllInteger"] + np.typecodes["AllFloat"]]
)
_CAST_TO = (np.dtype(np.float64), np.dtype(np.complex128))  # every number ends as one of these


def _location(name: str, shape: tuple, k: int) -> str:
    """The k-th entry (row-major) of an array of this shape, 1-based."""
    i = [int(j) + 1 for j in np.unravel_index(k, shape)]
    return f"{name} entry at row {i[0]}, column {i[1]}" if len(i) == 2 else f"{name} entry {i[0]}"


def _numbers(x, name: str, ndim: int, allow_complex: bool) -> np.ndarray:
    """The number rule: ``x`` (read by ``_entries`` unless a numeric ndarray) as
    float64, or complex128 with ``allow_complex``, of ``ndim`` dimensions. Values are
    judged once, after the cast: whatever float64 cannot hold is not finite."""
    arr = x if isinstance(x, np.ndarray) and x.dtype.kind in "iufc" else _entries(x, name, ndim)
    if arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.dtype.kind == "c" and not allow_complex:
        raise InputError(f"{name} must be real")
    if arr.dtype not in _CAST_TO:  # float64 input pays for no cast and no errstate
        with np.errstate(over="ignore"):  # a long double beyond float64 becomes inf
            arr = arr.astype(_CAST_TO[arr.dtype.kind == "c"])
    finite = np.isfinite(arr)
    if not finite.all():
        raise InputError(f"{_location(name, arr.shape, np.flatnonzero(~finite)[0])} is not finite")
    return arr


def _entries(x, name: str, ndim: int) -> np.ndarray:
    """Other input, judged on shape and type: a ragged row, then the first entry in
    row-major order that is not a number (a bool, str, None, list...), is refused.
    Returns the entries in their common type, at least float64, for ``_numbers``."""
    try:
        arr = np.array(x, dtype=object)
    except ValueError as exc:  # nested arrays whose shapes clash
        raise InputError(f"{name} is ragged: {exc}") from exc
    if arr.ndim < ndim and any(isinstance(row, _ROW) for row in arr.flat):
        for i, row in enumerate(arr):  # numpy leaves rows of unequal length 1-D
            if not isinstance(row, _ROW):
                raise InputError(f"{name} row {i + 1} is not an array: {row!r}")
            if len(row) != len(arr[0]):
                raise InputError(
                    f"{name} row {i + 1} has {len(row)} entries, expected {len(arr[0])} (ragged)"
                )
    if arr.ndim != ndim:
        return arr
    flat = arr.ravel().tolist()
    types = set(map(type, flat))
    if not types <= _NUMBER_TYPES:
        k = next(k for k, v in enumerate(flat) if type(v) not in _NUMBER_TYPES)
        raise InputError(f"{_location(name, arr.shape, k)} is not a number: {flat[k]!r}")
    dtype = np.result_type(np.float64, *types)
    try:
        return arr.astype(dtype)
    except (OverflowError, ValueError):  # an int too large for dtype: +-inf, for _numbers
        huge = 2**1024 - 2**970  # the least int float() overflows on: it rounds to 2**1024
        flat = [v if type(v) is not int or abs(v) < huge else -inf if v < 0 else inf for v in flat]
        return np.array(flat, dtype).reshape(arr.shape)


def as_matrix(a, name: str = "matrix", allow_complex: bool = False) -> np.ndarray:
    """A 2-D matrix under the number rule (``_numbers``), in canonical form.

    The canonical form is a fresh C-ordered float64 array (complex128 when
    ``allow_complex`` and ``a`` is complex) with every -0.0 made +0.0. Every
    module takes its matrices through here, so every result depends only on
    the values of the entries, not on memory layout or the sign of a zero.
    """
    return np.add(_numbers(a, name, 2, allow_complex), 0.0, order="C")  # -0.0 becomes +0.0


def as_square(a, name: str) -> np.ndarray:
    """``as_matrix`` for a square matrix."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_input_matrix(b, n: int) -> np.ndarray:
    """``as_matrix`` for the input matrix B of an N x N matrix A: N rows."""
    b = as_matrix(b, "B")
    if b.shape[0] != n:
        raise InputError(f"B must have {n} rows to match A, got {b.shape[0]}")
    return b


def as_vector(x, name: str = "vector") -> np.ndarray:
    """A real 1-D vector under the number rule (``_numbers``): float64, ``x`` itself if it is."""
    return _numbers(x, name, 1, False)


def validate_count(value, name: str, least: int | None = None) -> int:
    """Check that value is an integer, not a bool, and at least ``least`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return int(value)


def validate_sparsity(s, m: int) -> int:
    """Check 1 <= s <= m; zero is rejected because zero inputs cannot steer."""
    s = validate_count(s, "sparsity level")
    if not 1 <= s <= m:
        raise InputError(f"sparsity level must lie in [1, {m}], got {s}")
    return s


DEFAULT_TOL = Tolerances()


def scale_unit(m: np.ndarray) -> float:
    """The power of two u = 2^(e-1), with max|m| = f * 2^e and 0.5 <= f < 1 (0.5 if m = 0):
    m / u is exact and its largest entry lies in [1, 2), for every finite m, subnormal included."""
    return float(np.ldexp(1.0, np.frexp(np.abs(m).max(initial=0.0))[1] - 1))


def divide_by_unit(x: np.ndarray, unit: float) -> np.ndarray:
    """x / unit, real and imaginary parts apart: complex division by a subnormal unit overflows."""
    return (x.view(np.float64) / unit).view(x.dtype)


def finite(compute, what: str):
    """The overflow guard: ``compute()``, evaluated without floating-point warnings,
    or NumericError("{what} overflows") when the result is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute()
    if not np.isfinite(result).all():
        raise NumericError(f"{what} overflows")
    return result


def rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: singular values exceeding ``rank_rtol * sigma_max``,
    taken on m / ``scale_unit(m)`` so that sigma_max cannot overflow."""
    m = as_matrix(m, "matrix", allow_complex=True)
    if m.size == 0:
        return 0
    s = np.linalg.svd(divide_by_unit(m, scale_unit(m)), compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_rtol * s[0]))


def null_space_basis(
    m, tol: Tolerances = DEFAULT_TOL, *, atol: float = 0.0, closest: bool = False
) -> np.ndarray:
    """Orthonormal basis of the kernel of ``m`` as columns.

    Singular values below ``max(rank_rtol * sigma_max, atol)`` are treated
    as zero; ``atol`` lets callers widen the cutoff (used for eigenspace
    extraction, where the shift is only known to clustering accuracy).
    With ``closest``, a kernel that the cutoff leaves empty is replaced by
    the closest singular direction, the last right singular vector, from
    the same SVD.
    """
    m = as_matrix(m, "matrix", allow_complex=True)
    _, s, vh = np.linalg.svd(m)  # an empty m gives empty s and an identity vh
    cutoff = max(tol.rank_rtol * (s[0] if s.size else 0.0), atol)
    r = int(np.count_nonzero(s > cutoff))
    return vh[min(r, m.shape[1] - 1) if closest else r :].conj().T


@dataclass(frozen=True, eq=False)
class EigenGroup:
    """One clustered eigenvalue of A with its left eigenspace.

    ``basis`` has orthonormal columns z satisfying z^T A = eigenvalue * z^T
    up to ``max_residual``; it is real when ``is_real`` and complex otherwise.
    ``spread`` is the cluster diameter seen by the eigensolver, nonzero when
    numerically split copies of a repeated eigenvalue were merged.
    Derived: ``geometric_multiplicity``, the number of columns of ``basis``.
    """

    eigenvalue: complex
    algebraic_multiplicity: int
    is_real: bool
    basis: np.ndarray
    spread: float
    max_residual: float

    @property
    def geometric_multiplicity(self) -> int:
        return self.basis.shape[1]

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


@dataclass(frozen=True, eq=False)
class LeftEigenSystem:
    """All eigenvalues of A, grouped by numerical clustering, with left bases."""

    groups: tuple[EigenGroup, ...]
    cluster_radius: float


def _cluster(close: np.ndarray) -> list[np.ndarray]:
    """Connected components of the symmetric boolean matrix ``close`` (true
    diagonal), ordered by smallest index with members ascending: each index
    takes its neighbours' smallest label until no label changes."""
    n = close.shape[0]
    if np.count_nonzero(close) == n:
        return list(np.arange(n)[:, None])
    labels, previous = np.arange(n), None
    while not np.array_equal(labels, previous):
        previous, labels = labels, np.where(close, labels, n).min(axis=1)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def eigen_clusters(values: np.ndarray, close: np.ndarray, tol: Tolerances) -> Iterator[tuple]:
    """The cluster rule: (members, centre, is_real, spread) per component of ``close``.
    The centre is the members' mean, taken on values / ``scale_unit`` so that it cannot
    overflow, and made real when its imaginary part is at most ``eig_imag_tol``."""
    for idx in _cluster(close):
        if idx.size == 1:
            centre, spread = complex(values[idx[0]]) + 0.0, 0.0  # as a mean, clears -0.0
        else:
            members = values[idx]
            unit = scale_unit(members)
            mean = divide_by_unit(members, unit).mean()
            centre = complex(mean.real * unit, mean.imag * unit)
            spread = float(np.abs(members - centre).max())
        is_real = abs(centre.imag) <= tol.eig_imag_tol
        yield idx, complex(centre.real) if is_real else centre, is_real, spread


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


def left_eigensystem(a, tol: Tolerances = DEFAULT_TOL) -> LeftEigenSystem:
    """Eigenvalues of A with orthonormal left-eigenvector bases per group.

    Left vectors satisfy z^T A = lambda z^T, i.e. they span the kernel of
    A^T - lambda I. Eigenvalues within ``eig_imag_tol * (1 + spectral
    radius)`` of each other are merged into one group, since repeated
    eigenvalues of non-normal matrices split numerically.

    The groups come from ``eigvals(A)``. One ``eig(A^T)`` solve runs when a
    group has one member; its eigenvalues are not used for the grouping,
    because they differ from ``eigvals(A)`` at rounding level and would
    move the cluster boundaries. One comparison matrix matches every
    ``eigvals(A)`` value to the ``eig(A^T)`` eigenvalues within the radius.
    A one-member group that no other eigenvalue crowds (see
    ``_CROWDING_FACTOR``) and that matches exactly one of them takes that
    unit eigenvector as its basis (a real group only when both eigenvalues
    are exactly real). Every other group (several members, a crowded
    one-member group, which may be a split copy of a defective eigenvalue,
    or an unmatched one) takes the kernel of A^T - lambda I from an SVD.
    An eigenvalue that overflows raises ``NumericError``.

    A^T - lambda I is not built per group: each group overwrites the diagonal
    of a C-ordered copy of A^T shared by the groups (one real and one complex
    copy), which also serves the residual product. They hold A and lambda
    divided by ``scale_unit(A)``, an exact power of two, as do the SVD cut and
    the eigenvalue distances with the radius and reach they are compared with;
    the residual is multiplied back, so nothing overflows.
    """
    a = as_square(a, "A")
    n = a.shape[0]
    if n == 0:
        return LeftEigenSystem(groups=(), cluster_radius=0.0)
    unit = scale_unit(a)
    try:
        values = finite(lambda: np.linalg.eigvals(a), "an eigenvalue of A")
        radius = tol.eig_imag_tol * (1.0 + float(np.abs(values).max()))
        v, r = divide_by_unit(values, unit), radius / unit  # r is inf for a subnormal unit
        gaps = np.abs(v[:, None] - v[None, :])
        isolated = np.count_nonzero(gaps <= r, axis=1) == 1
        if isolated.any():
            w, vectors = np.linalg.eig(a.T)
            dist = np.abs(v[:, None] - divide_by_unit(w, unit)[None, :])
            bars = np.maximum(r, dist.min(axis=1))
            reach = _CROWDING_FACTOR * np.maximum.outer(bars, bars)
            near = dist <= r
            match = near.argmax(axis=1)
            isolated &= np.count_nonzero(gaps <= reach, axis=1) == 1
            isolated &= np.count_nonzero(near, axis=1) == 1  # one eig(A^T) match
            exactly_real = (values.imag == 0.0) & (w.imag[match] == 0.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc

    a = a / unit
    diagonal = a.diagonal()
    shifts = {True: a.T.astype(np.float64, order="C"), False: a.T.astype(np.complex128, order="C")}
    groups = []
    for idx, lam, is_real, spread in eigen_clusters(values, gaps <= r, tol):
        i = int(idx[0])
        shifted = shifts[is_real]
        shifted.reshape(-1)[:: n + 1] = diagonal - (lam.real if is_real else lam) / unit
        basis = None
        if isolated[i]:
            column = vectors[:, match[i] : match[i] + 1]
            if not is_real:
                basis = column.astype(np.complex128)
            elif exactly_real[i]:
                basis = column.real
        if basis is None:
            # The cluster center is within `radius` of a true eigenvalue, so
            # sigma_min <= radius; if rounding pushed it past the cutoff, keep
            # the closest singular direction and report its residual.
            basis = null_space_basis(shifted, tol, atol=radius * (1.0 + 1e-6) / unit, closest=True)
        residual = max(np.linalg.norm(shifted @ basis[:, j]) for j in range(basis.shape[1]))
        groups.append(
            EigenGroup(
                eigenvalue=lam,
                algebraic_multiplicity=int(idx.size),
                is_real=is_real,
                basis=basis,
                spread=spread,
                max_residual=unit * float(residual),
            )
        )
    groups.sort(key=lambda g: (g.eigenvalue.real, g.eigenvalue.imag))
    return LeftEigenSystem(groups=tuple(groups), cluster_radius=radius)


def pbh_rank(a, b, lam, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the N x (N+m) pencil [lambda*I - A | B], real when lambda is."""
    a = as_square(a, "A")
    b = as_input_matrix(b, a.shape[0])
    lam = complex(lam)
    return rank(np.hstack([(lam if lam.imag else lam.real) * np.eye(a.shape[0]) - a, b]), tol)


def mat_pow(m, k: int, name: str = "matrix") -> np.ndarray:
    """M**k by ``np.linalg.matrix_power`` (squaring from k = 4), M**0 = I: the
    one power convention of ``jordan``. Preserves nilpotent structure.

    A power that overflows raises ``NumericError`` ("{name}^{k} overflows"):
    the input is valid, and an SVD of the result would rank it, not fail.
    """
    m = as_square(m, name)
    k = validate_count(k, "power", 0)
    return finite(lambda: np.linalg.matrix_power(m, k), f"{name}^{k}")
