"""Polyhedral-cone primitives built on a dense two-phase simplex.

Membership in finitely generated cones, nonzero solutions of homogeneous
inequality systems, and basic-feasible sparsification of positive
combinations. The simplex is intentionally small: dense tableau, Bland's
rule for anti-cycling, determinism over speed. Problems here are desk
scale (tens of variables), so no effort is spent on sparsity or pricing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInConeError, NumericError
from .matrixcore import DEFAULT_TOL, Tolerances, as_matrix, as_vector, rank

__all__ = [
    "ConeMembershipResult",
    "HomogeneousWitness",
    "feasible_nonneg_solution",
    "homogeneous_nonzero",
    "sparsify_positive_combination",
    "is_positive_spanning_subspace",
]

_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class ConeMembershipResult:
    """Outcome of testing x in cone(M).

    ``coefficients`` is a basic feasible solution (at most rank(M) strict
    positives) and is None when not a member. ``residual`` is the infinity
    norm of M u - x for members, and the phase-one infeasibility gap
    otherwise. ``separator`` is None for members; for non-members it is a
    Farkas certificate w with w^T M >= 0 and w^T x < 0 up to rounding, a
    hyperplane through the origin with the cone on one side and x on the
    other (the phase-one duals of the simplex, or -x for an empty M).
    """

    member: bool
    coefficients: np.ndarray | None
    residual: float
    separator: np.ndarray | None = None


@dataclass(frozen=True)
class HomogeneousWitness:
    """A nonzero rho with M rho <= 0, scaled so its largest entry is 1 in modulus."""

    rho: np.ndarray


@dataclass
class _LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    separator: np.ndarray | None = None  # set when status is "infeasible"


def _pivot(tableau: np.ndarray, basis: list[int], i: int, j: int) -> None:
    """Make column j basic in row i: scale the row, eliminate the column
    from every other row and record j in the basis."""
    tableau[i] /= tableau[i, j]
    other = np.arange(tableau.shape[0]) != i
    tableau[other] -= np.outer(tableau[other, j], tableau[i])
    basis[i] = j


def _solve_lp(a: np.ndarray, b: np.ndarray, c: np.ndarray, feas_tol: float) -> _LPResult:
    """Minimize c @ y subject to a y = b, y >= 0.

    Dense two-phase simplex with Bland's rule (entering: lowest eligible
    column index; leaving: lowest basic variable index among ratio ties).
    Bland's rule makes cycling impossible; the iteration cap is a guard
    against implementation bugs, not a tuning knob.
    """
    rows, n = a.shape
    if rows == 0:
        if np.all(c >= -_PIVOT_TOL):
            return _LPResult("optimal", np.zeros(n), 0.0)
        return _LPResult("unbounded", np.zeros(n), -np.inf)

    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tableau = np.hstack([a, np.eye(rows), b[:, None]])
    basis = list(range(n, n + rows))
    total = n + rows
    max_iter = 1000 + 200 * total

    def run(cost: np.ndarray, enter_limit: int) -> str:
        iterations = 0
        while True:
            iterations += 1
            if iterations > max_iter:
                raise NumericError("simplex iteration guard exceeded")
            reduced = cost[:enter_limit] - cost[basis] @ tableau[:, :enter_limit]
            eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
            if eligible.size == 0:
                return "optimal"
            j = int(eligible[0])
            col = tableau[:, j]
            positive = np.nonzero(col > _PIVOT_TOL)[0]
            if positive.size == 0:
                return "unbounded"
            ratios = np.maximum(tableau[positive, -1], 0.0) / col[positive]
            best = ratios.min()
            ties = positive[ratios <= best + _PIVOT_TOL]
            i = int(min(ties, key=lambda r: basis[r]))
            _pivot(tableau, basis, i, j)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(rows)])
    run(phase1_cost, total)
    infeasibility = float(phase1_cost[basis] @ tableau[:, -1])
    if infeasibility > feas_tol:
        # The artificial columns hold B^-1, so pi = c_B B^-1 are the duals.
        # Optimality gives pi a_j <= 0 for every column and pi b > 0 on the
        # sign-flipped rows; w = -pi with the flips undone separates b.
        separator = -(phase1_cost[basis] @ tableau[:, n:total])
        separator[neg] *= -1.0
        return _LPResult("infeasible", np.zeros(n), infeasibility, separator)

    # Drive zero-level artificials out so phase two can never reuse them.
    for i in range(rows):
        if basis[i] >= n:
            candidates = np.nonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)[0]
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]))

    phase2_cost = np.concatenate([c, np.zeros(rows)])
    status = run(phase2_cost, n)
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    if status == "unbounded":
        return _LPResult("unbounded", x, -np.inf)
    return _LPResult("optimal", x, float(c @ x))


def membership_tol(x: np.ndarray, tol: Tolerances) -> float:
    """The phase-one gap above which x counts as outside a cone:
    ``ineq_tol`` scaled by 1 + ||x||_inf."""
    return tol.ineq_tol * (1.0 + float(np.abs(x).max(initial=0.0)))


def feasible_nonneg_solution(m, x, tol: Tolerances = DEFAULT_TOL) -> ConeMembershipResult:
    """Decide whether x = M u has a solution u >= 0 (x in cone of M's columns).

    On success the returned coefficients are a basic feasible solution, so
    at most rank(M) of them are strictly positive.
    """
    m = as_matrix(m, "M")
    x = as_vector(x, "x")
    if m.shape[0] != x.size:
        raise InputError(f"M has {m.shape[0]} rows but x has {x.size} entries")
    feas_tol = membership_tol(x, tol)
    if m.shape[1] == 0:
        residual = float(np.abs(x).max(initial=0.0))
        if residual <= feas_tol:
            return ConeMembershipResult(True, np.zeros(0), residual)
        return ConeMembershipResult(False, None, residual, -x)
    result = _solve_lp(m, x, np.zeros(m.shape[1]), feas_tol)
    if result.status == "infeasible":
        return ConeMembershipResult(False, None, result.objective, result.separator)
    u = result.x
    residual = float(np.abs(m @ u - x).max(initial=0.0))
    if residual > feas_tol:
        raise NumericError(f"simplex returned an infeasible vertex, residual {residual:.3e}")
    return ConeMembershipResult(True, u, residual)


def homogeneous_nonzero(m, tol: Tolerances = DEFAULT_TOL) -> HomogeneousWitness | None:
    """Find a nonzero rho with M rho <= 0, or None when the cone is {0}.

    With one column the cone is a sign test: rho = +1 when every entry of M
    is at most ``ineq_tol``, else rho = -1 when every entry of -M is, else
    {0}. With g > 1 columns it solves the 2g box LPs of ``_box_lp_ray``.
    """
    m = as_matrix(m, "M")
    if m.shape[1] < 1:
        raise InputError("M must have at least one column")
    if m.shape[1] > 1:
        rho = _box_lp_ray(m, tol)
    elif m.max(initial=0.0) <= tol.ineq_tol:
        rho = np.ones(1)
    elif (-m).max(initial=0.0) <= tol.ineq_tol:
        rho = -np.ones(1)
    else:
        rho = None
    if rho is None:
        return None
    worst = float((m @ rho).max(initial=0.0))
    if worst > tol.ineq_tol:
        raise NumericError(f"homogeneous witness failed re-verification, violation {worst:.3e}")
    return HomogeneousWitness(rho=rho)


def _box_lp_ray(m: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """A nonzero rho with M rho <= 0 scaled to unit max modulus, or None.

    Solves the 2g box LPs max +/-rho_i subject to M rho <= 0, -1 <= rho <= 1.
    The cone is scale invariant, so whenever it contains any nonzero ray one
    of the LPs attains an optimum of 1; all optima near zero certify that
    the cone is trivial.
    """
    rows, g = m.shape
    # Shift t = rho + 1 in [0, 2]: M rho <= 0 becomes M t <= M 1.
    ones = np.ones(g)
    a = np.zeros((rows + g, g + rows + g))
    a[:rows, :g] = m
    a[:rows, g : g + rows] = np.eye(rows)
    a[rows:, :g] = np.eye(g)
    a[rows:, g + rows :] = np.eye(g)
    b = np.concatenate([m @ ones, 2.0 * ones])

    best_value = 0.0
    best_rho: np.ndarray | None = None
    for i in range(g):
        for sign in (1.0, -1.0):
            c = np.zeros(g + rows + g)
            c[i] = -sign
            result = _solve_lp(a, b, c, feas_tol=tol.ineq_tol)
            if result.status != "optimal":
                raise NumericError(f"box LP ended with status {result.status}")
            value = -result.objective - sign  # optimal sign * rho_i with rho = t - 1
            if value > best_value:
                best_value = value
                best_rho = result.x[:g] - 1.0
            if best_value >= 1.0 - 1e-9:
                break
        if best_value >= 1.0 - 1e-9:
            break

    if best_rho is None or best_value <= tol.ineq_tol:
        return None
    return best_rho / np.abs(best_rho).max()


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
    col_norms = np.abs(z_mat).max(axis=0, initial=0.0) if z_mat.shape[1] else np.zeros(0)
    keep = np.nonzero(col_norms > tol.ineq_tol)[0]
    result = feasible_nonneg_solution(z_mat[:, keep], z, tol)
    if not result.member:
        raise NotInConeError(
            f"target is not in the positive span (phase-one gap {result.residual:.3e})"
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
    it contains the negation of every generator.
    """
    z_mat = as_matrix(z_mat, "Z")
    for j in range(z_mat.shape[1]):
        if not feasible_nonneg_solution(z_mat, -z_mat[:, j], tol).member:
            return False
    return True
