"""Shared construction helpers for the test suite."""

import numpy as np

from nnscontrol import SystemPair


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
