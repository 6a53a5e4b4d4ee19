"""Shared construction helpers for the test suite, and the dense two-phase
simplex that the cone primitives replaced, kept as their reference."""

from dataclasses import dataclass

import numpy as np

from nnscontrol import SystemPair
from nnscontrol.errors import NumericError
from nnscontrol.matrixcore import Tolerances


def planted_structure_matrix(rng, max_n=6):
    """Random integer matrix with known zero-eigenvalue block structure.

    Direct sum of nilpotent shift blocks and a nonsingular integer block,
    conjugated by a random integer unimodular matrix (unit triangular
    product) so the inverse is exact and the conjugation stays integer.
    Returns (A, list of planted zero-block sizes).
    """
    sizes = []
    budget = int(rng.integers(2, max_n + 1))
    while budget > 0 and rng.uniform() < 0.8 and len(sizes) < 3:
        size = int(rng.integers(1, min(3, budget) + 1))
        sizes.append(size)
        budget -= size
    q = budget
    n_dim = sum(sizes) + q
    blocks = []
    if q:
        while True:
            block = rng.integers(-2, 3, size=(q, q))
            if abs(np.linalg.det(block)) > 0.5:
                blocks.append(block)
                break
    for size in sizes:
        blocks.append(np.eye(size, k=1, dtype=np.int64))
    direct_sum = np.zeros((n_dim, n_dim), dtype=np.int64)
    offset = 0
    for block in blocks:
        w = block.shape[0]
        direct_sum[offset : offset + w, offset : offset + w] = block
        offset += w
    lower = np.tril(rng.integers(-1, 2, size=(n_dim, n_dim)), -1) + np.eye(n_dim, dtype=np.int64)
    upper = np.triu(rng.integers(-1, 2, size=(n_dim, n_dim)), 1) + np.eye(n_dim, dtype=np.int64)
    u = lower @ upper
    u_inv = np.round(np.linalg.inv(u)).astype(np.int64)
    assert np.array_equal(u @ u_inv, np.eye(n_dim, dtype=np.int64))
    return (u @ direct_sum @ u_inv).astype(float), sizes


def rank_cut_disagreement():
    """rank(A) = 1 under rank_rtol, because the 1e6 entries set the scale,
    while all four eigenvalues are simple and nonzero; B = [b | -b]."""
    a = np.diag([1e-4, 2e-4, 3e-4, 4e-4])
    a[0, 1:] = 1e6
    b = np.array([1.0, 2.0, -1.0, 3.0])
    return SystemPair(A=a, B=np.column_stack([b, -b]))


_PIVOT_TOL = 1e-11


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
