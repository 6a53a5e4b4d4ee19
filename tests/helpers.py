"""Shared construction helpers for the test suite, and the code that faster
paths replaced, kept as their reference: the dense two-phase simplex of
the cone primitives, their Lawson-Hanson loop before it kept one mask of
excluded columns, the per-group eigen-analysis loop and the per-column
keying of the oracle's cone ladder."""

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nnscontrol import SystemPair, conelp, oracle
from nnscontrol.conelp import _BLOCK_RCOND, _DUAL_RTOL
from nnscontrol.errors import InputError, NumericError
from nnscontrol.matrixcore import (
    _CROWDING_FACTOR,
    DEFAULT_TOL,
    EigenGroup,
    LeftEigenSystem,
    Tolerances,
    as_matrix,
    null_space_basis,
)


def count_linalg_calls(monkeypatch, names=("eigvals", "eig", "svd"), shapes=None):
    """Wrap each named ``numpy.linalg`` function to count its calls; when a
    list ``shapes`` is given, each call also appends (name, argument shape)."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            if shapes is not None:
                shapes.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up by name
    spec.loader.exec_module(module)
    return module


def count_cone_solves(monkeypatch):
    """Wrap the cone solver's core, ``conelp._solve``, under both names it is
    called by: the oracle's and conelp's own, which the public door and the
    other cone primitives use. Returns the list of (generators, result) of
    every solve, in call order."""
    solves = []
    solve = conelp._solve

    def counted(m, x, feas_tol):
        result = solve(m, x, feas_tol)
        solves.append((m, result))
        return result

    monkeypatch.setattr(conelp, "_solve", counted)
    monkeypatch.setattr(oracle, "_solve", counted)
    return solves


def canonical_column(col: np.ndarray) -> bytes | None:
    """Reference: the positive-scale canonical key of one cone generator, as
    the oracle's cone ladder keys every column at once; None for zero columns."""
    norm = float(np.linalg.norm(col))
    if norm <= 1e-12:
        return None
    return (np.round(col / norm, 12) + 0.0).tobytes()


def ladder_cones(keys, stack):
    """One horizon of the oracle's cone ladder as a dict from each key set to
    its generators: the cone's row of ``stack`` without its NaN padding."""
    return {key: cone[:, ~np.isnan(cone[0])] for key, cone in zip(keys, stack)}


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
    while all four eigenvalues are simple and nonzero; B = [b | -b]. At the
    same rank_rtol the staircase leaves states unreached, so condition i
    fails, with a certificate that verifies."""
    a = np.diag([1e-4, 2e-4, 3e-4, 4e-4])
    a[0, 1:] = 1e6
    b = np.array([1.0, 2.0, -1.0, 3.0])
    return SystemPair(A=a, B=np.column_stack([b, -b]))


def defective_condition_i_system(lam, k, n, m, rng, annihilate=True):
    """(A, B) with A = T diag(J_k(lam), D) T^-1 and B = T B_J, drawn as
    ``perfbench/workloads.defective_system`` draws them, with row k - 1 of B_J
    set to 0 when ``annihilate``: then z = T^-T e_k is a left eigenvector of A for
    lam with z^T B = 0, and condition i fails. Otherwise B_J stays Gaussian
    and condition i holds."""
    core = np.zeros((n, n))
    core[:k, :k] = lam * np.eye(k) + np.eye(k, k=1)
    core[k:, k:] = np.diag(-rng.uniform(0.5, 2.0, size=n - k))
    t = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    b_j = rng.standard_normal((n, m))
    if annihilate:
        b_j[k - 1] = 0.0
    return SystemPair(A=t @ core @ np.linalg.inv(t), B=t @ b_j)


def exact_planted_system(family, lam, k, n, seed, steps, m=2):
    """An E-i or E-ii system, exact in float64: (pair, T, T^-1, z).

    T is unimodular, built from I by ``steps`` elementary column operations
    T <- T (I + c e_i e_j^T) with c in {+-1, +-2}; T^-1 <- (I - c e_i e_j^T) T^-1
    tracks its inverse, so both are int64. A = T core T^-1 with the block
    diagonal core = diag(lam I_k + N_k, -d_1, ..., -d_{n-k}), each d from 1 to
    4, built in halves so that lam in {0, 0.5, 1} is exact, and B = T B_J with
    B_J in [-3, 3]. Row k - 1 of B_J is 0 for "E-i" and in [-3, -1] for "E-ii", so
    z = T^-T e_k has z^T A = lam z^T and z^T B = 0 (condition i fails) or
    z^T B < 0 (condition ii fails), exactly.
    """
    rng = np.random.default_rng([seed, k, int(2 * lam), n, steps])
    t, t_inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        c = rng.choice([-2, -1, 1, 2])
        t[:, j] += c * t[:, i]
        t_inv[i] -= c * t_inv[j]
    twice_core = np.zeros((n, n), dtype=np.int64)
    twice_core[:k, :k] = 2 * lam * np.eye(k) + 2 * np.eye(k, k=1)  # small integers, stored exactly
    twice_core[k:, k:] = np.diag(-2 * rng.integers(1, 5, size=n - k))
    b_j = rng.integers(-3, 4, size=(n, m))
    b_j[k - 1] = 0 if family == "E-i" else rng.integers(-3, 0, size=m)
    pair = SystemPair(A=(t @ twice_core @ t_inv) / 2.0, B=(t @ b_j).astype(np.float64))
    return pair, t, t_inv, t_inv[k - 1].astype(np.float64)


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


# The Lawson-Hanson loop of the cone primitives with the passive columns as a
# list and the blocked ones as a mask, each excluded from the dual on its own.


def reference_nnls(g: np.ndarray, x: np.ndarray, feas_tol: float) -> tuple[np.ndarray, list[int]]:
    """Lawson-Hanson as it was before ``conelp._nnls`` kept one mask of the
    passive and blocked columns: u >= 0 minimising ||x - g u||_2, and its
    positive columns.

    Stops early once ||x - g u||_inf <= feas_tol. The positive columns stay
    linearly independent: a column that would make them rank-deficient, or
    whose coefficient is not positive on entry, is blocked until u changes,
    which also rules out cycling on degenerate cones. The iteration cap is a
    guard against numerical trouble, not a tuning knob.
    """
    cols = g.shape[1]
    u = np.zeros(cols)
    passive: list[int] = []
    blocked = np.zeros(cols, dtype=bool)
    dual_cut = _DUAL_RTOL * float(np.abs(g).max(initial=0.0))
    r = x.copy()
    for _ in range(100 + 10 * cols):
        size = float(np.abs(r).max(initial=0.0))
        if size <= feas_tol or cols == 0:
            return u, passive
        dual = g.T @ r
        dual[passive] = -np.inf
        dual[blocked] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= dual_cut * size:
            return u, passive
        trial = passive + [j]
        z, _, trial_rank, _ = np.linalg.lstsq(g[:, trial], x, rcond=_BLOCK_RCOND)
        if trial_rank < len(trial) or z[-1] <= 0.0:
            blocked[j] = True
            continue
        new_u = u.copy()
        while np.any(z <= 0.0):
            # Step from u towards z until the first coefficient reaches 0.
            current = new_u[trial]
            bad = np.flatnonzero(z <= 0.0)
            ratios = current[bad] / (current[bad] - z[bad])
            step = current + ratios.min() * (z - current)
            step[bad[np.argmin(ratios)]] = 0.0
            new_u[trial] = np.maximum(step, 0.0)
            trial = [c for c in trial if new_u[c] > 0.0]
            z = np.linalg.lstsq(g[:, trial], x, rcond=_BLOCK_RCOND)[0]
        new_u[:] = 0.0
        new_u[trial] = z
        if not np.array_equal(new_u, u):
            blocked[:] = False
        blocked[j] = j not in trial
        u, passive = new_u, trial
        r = x - g @ u
    raise NumericError("non-negative least squares iteration guard exceeded")


# The eigen-analysis and condition i as one Python step per eigenvalue group:
# a fresh A^T - lambda I, a scan of eig(A^T) and a B^T z product per group.


def _reference_cluster(close: np.ndarray) -> list[np.ndarray]:
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


def _reference_eig_column(
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


def reference_left_eigensystem(a, tol: Tolerances = DEFAULT_TOL) -> LeftEigenSystem:
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
    SVD.
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
    for idx in _reference_cluster(gaps <= radius):
        members = values[idx]
        center = complex(members.mean())
        spread = float(np.abs(members - center).max())
        is_real = abs(center.imag) <= tol.eig_imag_tol
        lam: complex = complex(center.real) if is_real else center
        if is_real:
            shifted = a.T - lam.real * np.eye(n)
        else:
            shifted = a.T.astype(np.complex128) - lam * np.eye(n)
        basis = None
        if isolated[idx[0]]:
            basis = _reference_eig_column(members[0], w, vectors, radius, is_real)
        if basis is None:
            basis = null_space_basis(shifted, tol, atol=radius * (1.0 + 1e-6))
        if basis.shape[1] == 0:
            # The cluster center is within `radius` of a true eigenvalue, so
            # sigma_min <= radius; if rounding pushed it past the cutoff,
            # keep the closest singular direction and report its residual.
            _, _, vh = np.linalg.svd(shifted)
            basis = vh[-1:].conj().T
        residual = float(max(np.linalg.norm(shifted @ basis[:, j]) for j in range(basis.shape[1])))
        groups.append(
            EigenGroup(
                eigenvalue=lam,
                algebraic_multiplicity=int(members.size),
                is_real=is_real,
                basis=basis,
                spread=spread,
                max_residual=residual,
            )
        )
    groups.sort(key=lambda g: (g.eigenvalue.real, g.eigenvalue.imag))
    return LeftEigenSystem(groups=tuple(groups), cluster_radius=radius)
