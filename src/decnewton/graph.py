"""Random connected graphs, Metropolis mixing matrices, multi-step consensus.

A graph is its symmetric 0/1 adjacency matrix ``A``: an undirected connected
graph on ``n`` nodes, sampled with a target edge count of
``round(tau * n * (n - 1) / 2)``. Degrees, connectivity and weights all come
from ``A``. The mixing matrix ``W`` follows the Metropolis-Hastings rule:
symmetric, doubly stochastic, and supported exactly on the graph (plus
self-loops). The key spectral quantity is ``sigma``, the second largest
singular value of ``W``, equivalently ``||W - W_inf||`` where
``W_inf = (1/n) 11^T`` is the averaging projector. Applying ``W^m`` blockwise
contracts the disagreement ``||x - W_inf x||`` by ``sigma**m`` per call while
leaving the block average unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MixingMatrix",
    "generate_topology",
    "metropolis_weights",
    "second_singular_value",
    "consensus_apply",
    "save_matrix",
    "load_matrix",
]


@dataclass
class MixingMatrix:
    """Doubly stochastic gossip matrix with its second singular value.

    ``power(m)`` keeps the most recent ``W**m``, so a run with a fixed
    consensus depth does not redo the matrix power every iteration, and one
    whose depth grows with the iteration holds a single n x n power.
    """

    W: np.ndarray
    sigma: float
    _power: tuple = field(default=(1, None), repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    def power(self, m: int) -> np.ndarray:
        if m == 1:
            return self.W
        if self._power[0] != m:
            self._power = (m, np.linalg.matrix_power(self.W, m))
        return self._power[1]


def generate_topology(n: int, tau: float, seed: int) -> np.ndarray:
    """The adjacency matrix of a connected graph with round(tau*n*(n-1)/2) edges.

    A uniformly random spanning tree (Pruefer decoding) guarantees
    connectivity; the remaining edges are drawn uniformly without
    replacement from the non-tree pairs. Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    target = int(round(tau * n * (n - 1) / 2))
    if target < n - 1:
        raise ValueError(
            f"tau={tau} yields {target} edges, below the {n - 1} needed for connectivity"
        )
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    rows, cols = np.array(_random_spanning_tree(n, rng)).T
    A[rows, cols] = A[cols, rows] = 1.0
    extra = target - (n - 1)
    if extra > 0:
        rows, cols = np.triu_indices(n, 1)  # pairs i < j in row-major order
        pool = A[rows, cols] == 0
        rows, cols = rows[pool], cols[pool]
        picks = np.sort(rng.choice(len(rows), size=extra, replace=False))
        A[rows[picks], cols[picks]] = A[cols[picks], rows[picks]] = 1.0
    return A


def _random_spanning_tree(n: int, rng: np.random.Generator) -> list:
    """Uniform random labeled tree via a random Pruefer sequence."""
    seq = rng.integers(0, n, size=n - 2)
    degree = 1 + np.bincount(seq, minlength=n)
    leaves = np.flatnonzero(degree == 1).tolist()  # ascending: already a heap
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, int(v)), max(leaf, int(v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    edges.append(tuple(leaves))  # the last two leaves, in heap (ascending) order
    return edges


def _connected(A: np.ndarray) -> bool:
    """Breadth-first search from node 0 over the adjacency matrix ``A``."""
    seen = np.zeros(len(A), dtype=bool)
    frontier = np.arange(len(A)) == 0
    while frontier.any():
        seen |= frontier
        frontier = A[frontier].any(axis=0) & ~seen
    return bool(seen.all())


def metropolis_weights(A) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges.

    ``A`` is the adjacency matrix of a connected graph: square, symmetric,
    0/1, with a zero diagonal; a ValueError names the rule it breaks. The
    diagonal of ``W`` absorbs the slack so every row sums to one; the result
    is non-negative, symmetric, doubly stochastic, and supported exactly on
    the graph plus self-loops.
    """
    A = np.asarray(A, dtype=float)
    rule = ("square" if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size
            else "0/1" if not ((A == 0) | (A == 1)).all()  # NaN fails here
            else "symmetric" if not np.array_equal(A, A.T)
            else "zero on the diagonal" if A.diagonal().any()
            else "of a connected graph" if not _connected(A) else None)
    if rule:
        raise ValueError(f"adjacency matrix must be {rule}")
    deg = A.sum(axis=1)
    W = A / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(W=W, sigma=second_singular_value(W))


def second_singular_value(W: np.ndarray) -> float:
    """Largest singular value of W - (1/n) 11^T, from a full SVD."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    B = W - np.full((n, n), 1.0 / n)
    return float(np.linalg.svd(B, compute_uv=False)[0])


def consensus_apply(W: MixingMatrix, m: int, blocks) -> np.ndarray:
    """Apply W^m blockwise to per-node blocks stacked on axis 0.

    The block average is restored exactly after the multiply (doubly
    stochastic matrices preserve it in exact arithmetic; the correction
    removes roundoff drift so tracking identities hold to machine
    precision over long runs).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[0] != W.n:
        raise ValueError(f"expected {W.n} node blocks, got {blocks.shape[0]}")
    # One matrix product on the (n, block size) view; the means are written
    # as sums over n, the arithmetic np.mean does, without its call overhead,
    # and the correction mean(flat) - mean(out) is built in place.
    n = W.n
    flat = blocks.reshape(n, blocks.size // n)
    out = W.power(m) @ flat
    shift = np.add.reduce(flat, axis=0)
    shift /= n
    drift = np.add.reduce(out, axis=0)
    drift /= n
    shift -= drift
    out += shift
    return out.reshape(blocks.shape)


def save_matrix(path, M: np.ndarray) -> None:
    """Plain-text dump: one row per line, space-separated decimals."""
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, dtype=float))
