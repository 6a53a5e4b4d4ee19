"""Polyhedral-cone primitives built on one non-negative least-squares solve.

Membership in finitely generated cones, nonzero solutions of homogeneous
inequality systems, and basic-feasible sparsification of positive
combinations all reduce to one question, "is x in cone(G)?", answered by
the Lawson-Hanson active-set method (Lawson & Hanson, *Solving Least
Squares Problems*, 1974, ch. 23). It minimises ||x - G u||_2 over u >= 0;
its residual is either within tolerance of zero (a member, with at most
rank(G) positive coefficients) or a Farkas separator. Problems here are
desk scale (tens of variables), so each step re-solves a dense least
squares problem rather than updating a factorisation.

Outside input enters once, through a public function: the number rule
(``as_matrix``, ``as_vector``), the row check and ``membership_tol``. The
library's own questions, whose arrays it built from checked ones, go
straight to the core, ``_solve``, with their tolerance. The core takes M
in ``as_matrix``'s canonical form itself, so each answer is the door's to
the bit. The one target the library computes, Stiemke's -G 1, is built by
``_stiemke`` under ``matrixcore.finite``: finite, or NumericError where the
door would refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInConeError, NumericError
from .matrixcore import DEFAULT_TOL, Tolerances, as_matrix, as_vector, finite, rank

__all__ = [
    "ConeMembershipResult",
    "feasible_nonneg_solution",
    "homogeneous_nonzero",
    "sparsify_positive_combination",
    "is_positive_spanning_subspace",
]

# A column may enter the active set only when its dual G^T r exceeds
# _DUAL_RTOL ||r||_inf max|G|; below that the residual is optimal.
_DUAL_RTOL = 1e-13
# The columns that carry weight must keep sigma_min > _BLOCK_RCOND sigma_max.
_BLOCK_RCOND = 1e-12


@dataclass(frozen=True, eq=False)
class ConeMembershipResult:
    """Outcome of testing x in cone(M).

    ``coefficients`` is a basic feasible solution (at most rank(M) strict
    positives) and is None when not a member. ``residual`` is the infinity
    norm of x - M u at the least-squares u >= 0: at most ``membership_tol``
    for members, the distance to the cone otherwise. ``separator`` is None
    for members; for non-members it is a Farkas certificate w with
    w^T M >= 0 and w^T x < 0 up to rounding, a hyperplane through the
    origin with the cone on one side and x on the other (the negated
    residual, orthogonal to the columns that carry weight).
    """

    member: bool
    coefficients: np.ndarray | None
    residual: float
    separator: np.ndarray | None = None


def _nnls(
    g: np.ndarray, x: np.ndarray, feas_tol: float
) -> tuple[np.ndarray, list[int], np.ndarray, float]:
    """Lawson-Hanson: u >= 0 minimising ||x - g u||_2, its positive columns,
    the residual r = x - g u it stopped on and ||r||_inf.

    Stops early once ||x - g u||_inf <= feas_tol. The positive columns stay
    linearly independent: a column that would make them rank-deficient, or
    whose coefficient is not positive on entry, is blocked until u changes,
    which also rules out cycling on degenerate cones. The iteration cap is a
    guard against numerical trouble, not a tuning knob.
    """
    cols = g.shape[1]
    u = np.zeros(cols)
    passive: list[int] = []
    excluded = np.zeros(cols, dtype=bool)  # passive or blocked
    dual_cut = _DUAL_RTOL * float(np.abs(g).max(initial=0.0))
    r = x - g @ u
    for _ in range(100 + 10 * cols):
        size = float(np.abs(r).max(initial=0.0))
        if size <= feas_tol or cols == 0:
            return u, passive, r, size
        dual = g.T @ r
        dual[excluded] = -np.inf
        j = int(dual.argmax())
        if dual[j] <= dual_cut * size:
            return u, passive, r, size
        trial = passive + [j]
        z, _, trial_rank, _ = np.linalg.lstsq(g[:, trial], x, rcond=_BLOCK_RCOND)
        excluded[j] = True
        if trial_rank < len(trial) or z[-1] <= 0.0:
            continue
        new_u = u.copy()
        while (z <= 0.0).any():
            # Step from u towards z until the first coefficient reaches 0.
            current = new_u[trial]
            bad = np.flatnonzero(z <= 0.0)
            ratios = current[bad] / (current[bad] - z[bad])
            step = current + ratios.min() * (z - current)
            step[bad[ratios.argmin()]] = 0.0
            new_u[trial] = np.maximum(step, 0.0)
            trial = [c for c in trial if new_u[c] > 0.0]
            z = np.linalg.lstsq(g[:, trial], x, rcond=_BLOCK_RCOND)[0]
        new_u[:] = 0.0
        new_u[trial] = z
        if not (new_u == u).all():  # u moved: unblock all, then block j if it left
            excluded[:] = False
            excluded[trial + [j]] = True
        u, passive = new_u, trial
        r = x - g @ u
    raise NumericError("non-negative least squares iteration guard exceeded")


def membership_tol(x: np.ndarray, tol: Tolerances) -> float | np.ndarray:
    """The residual ||x - M u||_inf above which x counts as outside a cone:
    ``ineq_tol`` scaled by 1 + ||x||_inf; one per row when x is a matrix."""
    return tol.ineq_tol * (1.0 + np.abs(x).max(axis=-1, initial=0.0))


def feasible_nonneg_solution(m, x, tol: Tolerances = DEFAULT_TOL) -> ConeMembershipResult:
    """Decide whether x = M u has a solution u >= 0 (x in cone of M's columns).

    On success the returned coefficients are a basic feasible solution, so
    at most rank(M) of them are strictly positive.
    """
    m = as_matrix(m, "M")
    x = as_vector(x, "x")
    if m.shape[0] != x.size:
        raise InputError(f"M has {m.shape[0]} rows but x has {x.size} entries")
    return _solve(m, x, membership_tol(x, tol))


def _solve(m: np.ndarray, x: np.ndarray, feas_tol: float) -> ConeMembershipResult:
    """``feasible_nonneg_solution`` on arrays the library built: M a finite
    float64 matrix, x a finite float64 vector of M's row count, and feas_tol
    their ``membership_tol``. M is taken in ``as_matrix``'s canonical form
    here, so the caller's layout and signed zeros do not reach the bits."""
    m = np.add(m, 0.0, order="C")  # as_matrix's canonical form
    u, passive, r, residual = _nnls(m, x, feas_tol)
    if residual <= feas_tol:
        return ConeMembershipResult(True, u, residual)
    # Optimality leaves r orthogonal to the positive columns; projecting
    # them out removes the rounding. When they are ill-conditioned, a column
    # refused as dependent on them can still see w^T g < 0 beyond rounding;
    # then the subspace that best fits both is tried too, and the separator
    # that leaves its worst generator least far below zero is kept. When the
    # positive columns span the whole space, projecting leaves nothing, and
    # -r itself is the separator: it is nonzero, as r exceeds feas_tol.
    candidates = [_separator(r, np.linalg.qr(m[:, passive])[0])]
    stuck = m.T @ r > _DUAL_RTOL * float(np.abs(m).max(initial=0.0)) * residual
    stuck[passive] = False
    if stuck.any():
        near = m[:, passive + list(np.flatnonzero(stuck))]
        candidates.append(
            _separator(r, np.linalg.svd(near, full_matrices=False)[0][:, : len(passive)])
        )
    candidates = [v for v in candidates if v.any()] or [-r]
    w = max(candidates, key=lambda v: float((v @ m).min(initial=np.inf)) / float(np.abs(v).max()))
    return ConeMembershipResult(False, None, residual, w)


def _separator(r: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """-r without its component along the orthonormal columns of ``basis``."""
    return basis @ (basis.T @ r) - r


def homogeneous_nonzero(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """A nonzero rho with M rho <= 0, or None when the cone is {0}.

    rho is scaled so that its largest entry is 1 in modulus.

    With one column the cone is a sign test: rho = +1 when every entry of M
    is at most ``ineq_tol``, else rho = -1 when every entry of -M is, else
    {0}. M rho is then exactly M or -M, so the test needs no re-verification.
    With g > 1 columns it asks one membership question (``_stiemke_ray``).
    """
    m = as_matrix(m, "M")
    if m.shape[1] < 1:
        raise InputError("M must have at least one column")
    if m.shape[1] > 1:
        return _stiemke_ray(m, tol)
    if m.max(initial=0.0) <= tol.ineq_tol:
        return np.ones(1)
    if (-m).max(initial=0.0) <= tol.ineq_tol:
        return -np.ones(1)
    return None


def _stiemke(g: np.ndarray, tol: Tolerances) -> ConeMembershipResult:
    """Stiemke's question on the library's own G, is -G 1 in cone(G)? -G 1 passes ``finite``."""
    x = finite(lambda: -g @ np.ones(g.shape[1]), "the cone membership target")
    return _solve(g, x, membership_tol(x, tol))


def _stiemke_ray(m: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """A nonzero rho with M rho <= 0 scaled to unit max modulus, or None.

    When M (rows x g) is numerically rank-deficient, its last right singular
    vector is the witness: at unit max modulus ||M rho||_inf <= sigma_min
    sqrt(g) <= ``ineq_tol``. Otherwise M rho != 0 for every rho != 0, and by
    Stiemke's lemma (Schrijver, *Theory of Linear and Integer Programming*,
    1986, 7.8) no rho has M rho <= 0 exactly when some y > 0 has M^T y = 0.
    One membership question decides that: is -M^T 1 in cone(M^T)? A member
    gives y = u + 1 >= 1; a non-member's separator w has M w >= 0 and
    1^T M w > 0, so rho = -w. Either ray is re-verified: NumericError when
    M rho exceeds ``ineq_tol`` after all.
    """
    rows, g = m.shape
    _, sigma, vh = np.linalg.svd(m)
    if rows < g or sigma[-1] * np.sqrt(g) <= tol.ineq_tol:
        rho = vh[-1]
    else:
        result = _stiemke(m.T, tol)
        if result.member:
            return None
        rho = -result.separator
    rho = rho / np.abs(rho).max()
    worst = float((m @ rho).max(initial=0.0))
    if worst > tol.ineq_tol:
        raise NumericError(f"homogeneous witness failed re-verification, violation {worst:.3e}")
    return rho


def sparsify_positive_combination(z_mat, z, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Nonnegative alpha with Z alpha = z and at most rank(Z) nonzero entries.

    Raises NotInConeError when z is provably outside the positive span of
    Z's columns, as opposed to a numerical failure.
    """
    z_mat = as_matrix(z_mat, "Z")
    z = as_vector(z, "z")
    if z_mat.shape[0] != z.size:
        raise InputError(f"Z has {z_mat.shape[0]} rows but z has {z.size} entries")
    # Zero columns can never carry weight in a basic solution; drop them.
    col_norms = np.abs(z_mat).max(axis=0, initial=0.0)
    keep = np.nonzero(col_norms > tol.ineq_tol)[0]
    result = _solve(z_mat[:, keep], z, membership_tol(z, tol))
    if not result.member:
        raise NotInConeError(
            f"target is not in the positive span (distance {result.residual:.3e})"
        )
    alpha = np.zeros(z_mat.shape[1])
    alpha[keep] = result.coefficients
    nnz = int(np.count_nonzero(alpha > tol.ineq_tol))
    d = rank(z_mat, tol)
    if nnz > d:
        raise NumericError(f"basic solution has {nnz} positives, expected at most rank {d}")
    return alpha


def is_positive_spanning_subspace(z_mat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the positive span of Z's columns equals their linear span.

    Classic criterion: a finitely generated cone is a subspace exactly when
    it contains the negation of every generator, that is, when Z y = 0 for
    some y > 0. One membership question decides it: is -Z 1 in cone(Z)?
    """
    return _stiemke(as_matrix(z_mat, "Z"), tol).member
