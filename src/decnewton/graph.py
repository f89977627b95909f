"""Random connected topologies, Metropolis mixing matrices, multi-step consensus.

A topology is an undirected connected graph on ``n`` nodes with a target
edge count of ``round(tau * n * (n - 1) / 2)``. Its mixing matrix ``W`` is
built with the Metropolis-Hastings rule, which is symmetric, doubly
stochastic, and supported exactly on the graph (plus self-loops). The key
spectral quantity is ``sigma``, the second largest singular value of ``W``,
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
    """Undirected connected graph with a connectivity-ratio target."""

    n: int
    edges: frozenset
    tau: float

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        return A

    def is_connected(self) -> bool:
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


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
        in_tree = np.zeros((n, n), dtype=bool)
        in_tree[tuple(np.array(tree).T)] = True
        rows, cols = np.triu_indices(n, 1)  # pairs i < j in row-major order
        pool = ~in_tree[rows, cols]
        rows, cols = rows[pool], cols[pool]
        picks = np.sort(rng.choice(len(rows), size=extra, replace=False))
        edges.update(zip(rows[picks].tolist(), cols[picks].tolist()))
    return Topology(n=n, edges=frozenset(edges), tau=tau)


def _random_spanning_tree(n: int, rng: np.random.Generator) -> list:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, int(v)), max(leaf, int(v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def metropolis_weights(topology: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i, deg_j)) on edges.

    The diagonal absorbs the slack so every row sums to one; the result is
    non-negative, symmetric, doubly stochastic, and supported exactly on the
    graph plus self-loops.
    """
    if not topology.is_connected():
        raise ValueError("topology must be connected")
    n = topology.n
    deg = topology.degrees()
    W = np.zeros((n, n))
    for i, j in topology.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
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
    if isinstance(blocks, (list, tuple)):
        shapes = {np.shape(b) for b in blocks}
        if len(shapes) != 1:
            raise ValueError(f"per-node blocks must share one shape, got {sorted(shapes)}")
        blocks = np.stack([np.asarray(b, dtype=float) for b in blocks])
    else:
        blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[0] != W.n:
        raise ValueError(f"expected {W.n} node blocks, got {blocks.shape[0]}")
    P = W.power(m)
    out = np.tensordot(P, blocks, axes=(1, 0))
    out += blocks.mean(axis=0) - out.mean(axis=0)
    return out


def save_matrix(path, M: np.ndarray) -> None:
    """Plain-text dump: one row per line, space-separated decimals."""
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, dtype=float))
