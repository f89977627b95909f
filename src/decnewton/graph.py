"""Random connected topologies, Metropolis mixing matrices, multi-step consensus.

A topology is an undirected connected graph on ``n`` nodes with a target
edge count of ``round(tau * n * (n - 1) / 2)``. Its adjacency matrix is the one
representation degrees, connectivity and weights come from. The mixing matrix
``W`` follows the Metropolis-Hastings rule: symmetric, doubly stochastic, and
supported exactly on the graph (plus self-loops). The key spectral
quantity is ``sigma``, the second largest singular value of ``W``,
equivalently ``||W - W_inf||`` where ``W_inf = (1/n) 11^T`` is the averaging
projector. Applying ``W^m`` blockwise contracts the disagreement
``||x - W_inf x||`` by ``sigma**m`` per call while leaving the block average
unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Topology",
    "MixingMatrix",
    "generate_topology",
    "metropolis_weights",
    "second_singular_value",
    "consensus_apply",
    "save_matrix",
    "load_matrix",
]


@dataclass(frozen=True)
class Topology:
    """Undirected graph on ``n`` nodes; ``adjacency()`` is the one
    representation degrees, connectivity and weights come from."""

    n: int
    edges: frozenset

    def adjacency(self) -> np.ndarray:
        """The symmetric 0/1 adjacency matrix; a self-loop or an endpoint
        outside ``range(n)`` raises ``ValueError``."""
        ends = np.array(list(self.edges), dtype=int).reshape(-1, 2)
        if ((ends < 0) | (ends >= self.n)).any() or (ends[:, 0] == ends[:, 1]).any():
            raise ValueError(f"edges must join two distinct nodes in range({self.n})")
        A = np.zeros((self.n, self.n))
        A[ends[:, 0], ends[:, 1]] = A[ends[:, 1], ends[:, 0]] = 1.0
        return A

    def is_connected(self, A: np.ndarray | None = None) -> bool:
        """Breadth-first search from node 0 over ``A`` (default: the adjacency)."""
        A = (self.adjacency() if A is None else A) > 0
        seen = np.zeros(self.n, dtype=bool)
        frontier = np.arange(self.n) == 0
        while frontier.any():
            seen |= frontier
            frontier = A[frontier].any(axis=0) & ~seen
        return bool(seen.all())


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


def generate_topology(n: int, tau: float, seed: int) -> Topology:
    """Sample a connected graph with round(tau*n*(n-1)/2) edges.

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
    tree = _random_spanning_tree(n, rng)
    edges = set(tree)
    extra = target - len(edges)
    if extra > 0:
        rows, cols = np.triu_indices(n, 1)  # pairs i < j in row-major order
        pool = Topology(n, frozenset(tree)).adjacency()[rows, cols] == 0
        rows, cols = rows[pool], cols[pool]
        picks = np.sort(rng.choice(len(rows), size=extra, replace=False))
        edges.update(zip(rows[picks].tolist(), cols[picks].tolist()))
    return Topology(n=n, edges=frozenset(edges))


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


def metropolis_weights(topology: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges.

    The diagonal absorbs the slack so every row sums to one; the result is
    non-negative, symmetric, doubly stochastic, and supported exactly on the
    graph plus self-loops.
    """
    A = topology.adjacency()
    if not topology.is_connected(A):
        raise ValueError("topology must be connected")
    deg = A.sum(axis=1)
    W = A / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(W=W, sigma=second_singular_value(W))


def second_singular_value(W) -> float:
    """Largest singular value of W - (1/n) 11^T, from a full SVD.

    Accepts a raw matrix or a MixingMatrix.
    """
    A = W.W if isinstance(W, MixingMatrix) else np.asarray(W, dtype=float)
    n = A.shape[0]
    B = A - np.full((n, n), 1.0 / n)
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
    # as sums over n, the arithmetic np.mean does, without its call overhead.
    n = W.n
    flat = blocks.reshape(n, blocks.size // n)
    out = W.power(m) @ flat
    out += flat.sum(axis=0) / n - out.sum(axis=0) / n
    return out.reshape(blocks.shape)


def save_matrix(path, M: np.ndarray) -> None:
    """Plain-text dump: one row per line, space-separated decimals."""
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, dtype=float))
