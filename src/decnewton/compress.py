"""Deterministic contractive matrix compression with payload accounting.

Two concrete operators act on d x d matrices, one at a time or on an
``(n, d, d)`` stack of them (each matrix of the stack is compressed on its own):

* ``rank_k`` keeps the top-K terms of the singular value decomposition and
  satisfies ``||Q(A) - A||_F <= (1 - K/(2d)) ||A||_F``. It is computed as
  ``Q(A) = A V V^T`` from one stacked ``eigh`` of the Gram matrix ``B^T B``,
  whose top-K eigenvectors ``V`` are A's top-K right singular vectors; no
  full SVD is taken. ``B`` is ``A`` divided by the smallest power of two
  above its largest |entry|. That scaling is exact, and it keeps ``B^T B``
  from overflowing, or its leading entries from underflowing, at any
  magnitude of ``A``. ``V V^T`` does not depend on the signs of the
  eigenvectors, so there is no sign fix. ``payload_bits`` still counts the
  K singular triplets a node would send.
* ``top_k`` keeps the K entries of largest absolute value (ties broken by
  lowest row-major index) and satisfies the same bound with
  ``K/(2 d^2)`` in place of ``K/(2d)``.

``identity`` passes matrices through unchanged (contraction factor 0,
i.e. delta = 1) and exists so compressed and uncompressed runs share one
code path. Every operator rejects a NaN or infinite entry with a
``ValueError``. All operators are deterministic: the same input always
yields a bit-identical reconstruction. Payload sizes assume 64-bit floats and packed
index encoding; only relative comparisons between operators are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompressorSpec",
    "compress",
    "delta_bound",
    "payload_bits",
]

_KINDS = ("rank_k", "top_k", "identity")


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to use, how many components to keep, and the side length."""

    kind: str
    d: int
    K: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown compressor kind {self.kind!r}, expected one of {_KINDS}")
        if isinstance(self.K, bool) or not isinstance(self.K, int):
            raise ValueError(f"compressor K must be an integer, got {self.K!r}")
        if self.d < 1:
            raise ValueError(f"matrix side length must be positive, got d={self.d}")
        if self.kind == "rank_k" and not 1 <= self.K <= self.d:
            raise ValueError(f"rank_k needs 1 <= K <= d, got K={self.K}, d={self.d}")
        if self.kind == "top_k" and not 1 <= self.K <= self.d * self.d:
            raise ValueError(f"top_k needs 1 <= K <= d^2, got K={self.K}, d={self.d}")


def compress(spec: CompressorSpec, A: np.ndarray) -> np.ndarray:
    """Apply the operator to a d x d matrix or an (n, d, d) stack.

    Returns the dense reconstruction Q(A), with the shape of ``A``; the
    transmitted size of one matrix is ``payload_bits(spec)``. A NaN or
    infinite entry raises ``ValueError`` before any LAPACK call.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-2:] != (spec.d, spec.d):
        raise ValueError(f"expected a {spec.d}x{spec.d} matrix or a stack of them, "
                         f"got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{spec.kind} compression got a non-finite entry")
    if spec.kind == "identity":
        return A.copy()
    if spec.kind == "rank_k":
        return _rank_k(A, spec.K)
    return _top_k(A, spec.K)


def _rank_k(A: np.ndarray, K: int) -> np.ndarray:
    """A V V^T, where V holds the top-K eigenvectors of the Gram matrix B^T B.

    Those are A's top-K right singular vectors, so this is SVD truncation up
    to roundoff. B = A / 2^e with |entries| < 2^e <= 2 max|A|: exact, and
    B^T B cannot overflow or lose its leading entries to underflow. V V^T
    does not depend on the signs of the eigenvectors, so no sign fix is needed.
    """
    _, exp = np.frexp(np.abs(A).max(axis=(-2, -1), keepdims=True))
    B = np.ldexp(A, -exp)
    V = np.linalg.eigh(np.swapaxes(B, -1, -2) @ B)[1][..., -K:]
    return (A @ V) @ np.swapaxes(V, -1, -2)


def _top_k(A: np.ndarray, K: int) -> np.ndarray:
    """Every entry above the K-th largest magnitude, then the entries at that
    magnitude in ascending row-major order until K are kept: the set a stable
    sort on -|a| picks, without sorting."""
    flat = A.reshape(*A.shape[:-2], -1)
    mag = np.abs(flat)
    cut = flat.shape[-1] - K
    kth = np.partition(mag, cut, axis=-1)[..., cut:cut + 1]
    tied = mag == kth
    keep = mag > kth
    keep |= tied & (np.cumsum(tied, axis=-1) <= K - keep.sum(axis=-1, keepdims=True))
    return np.where(keep, flat, 0.0).reshape(A.shape)


def delta_bound(spec: CompressorSpec) -> float:
    """Guaranteed contraction parameter: ||Q(A)-A||_F <= (1-delta) ||A||_F."""
    if spec.kind == "rank_k":
        return spec.K / (2.0 * spec.d)
    if spec.kind == "top_k":
        return spec.K / (2.0 * spec.d * spec.d)
    return 1.0


def payload_bits(spec: CompressorSpec) -> int:
    """Transmitted size of one compressed matrix, in bits."""
    d, K = spec.d, spec.K
    if spec.kind == "top_k":
        return K * (64 + math.ceil(math.log2(d * d)))
    if spec.kind == "rank_k":
        return K * (2 * d + 1) * 64
    return d * d * 64
