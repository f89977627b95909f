"""Deterministic contractive matrix compression with payload accounting.

Two concrete operators act on d x d matrices, one at a time or on an
``(n, d, d)`` stack of them (each matrix of the stack is compressed on its own):

* ``rank_k`` keeps the top-K terms of the singular value decomposition and
  satisfies ``||Q(A) - A||_F <= (1 - K/(2d)) ||A||_F``. It is computed as
  ``Q(A) = A V V^T`` from one stacked ``eigh`` of a scaled Gram matrix
  (``_rank_k``), with no full SVD; ``payload_bits`` still counts the K
  singular triplets a node would send.
* ``top_k`` keeps the K entries of largest absolute value (ties broken by
  lowest row-major index) and satisfies the same bound with
  ``K/(2 d^2)`` in place of ``K/(2d)``.

``newton.step`` compresses its two Hessian packets, ``H - Htilde`` and
``E + H - Htilde``, in one call on their ``(2n, d, d)`` stack. A ``rank_k``
stack of two or more matrices and at least ``SPLIT_ENTRIES`` = 4,000 entries
(``len(A) * d * d``) is split in two halves when the process may run on two or
more CPUs: a persistent worker thread compresses the second half while the
caller compresses the first, into one output array. LAPACK releases the GIL, so
the halves run side by side; each matrix is compressed on its own, so the
output is bit for bit that of one call. The worker calls only ``_rank_k`` and
runs in the caller's ``contextvars`` context, so it sees the caller's numpy
``errstate``. ``top_k`` and ``identity`` never split: a split ``top_k`` was
slower at every size measured.

The threshold was measured with BLAS on one thread on a 2-vCPU VM, as the
median of 500 interleaved repeats of each path per shape (rank 3): the split
broke even between 3,000 and 4,000 entries, slower at (30, 10, 10) and faster
at (40, 10, 10), (4, 30, 30), (8, 20, 20) and (100, 5, 5); the hand-off costs
35-60 us. The packet stacks of the presets hold 18,000 entries (quad-kappa,
2 * 10 * 30^2) and 24,000 (logit-rank, 2 * 30 * 20^2); the split compresses
them in 0.6-0.7 of the one-call time.

``identity`` passes matrices through unchanged (contraction factor 0,
i.e. delta = 1) and exists so compressed and uncompressed runs share one
code path. Every operator rejects a NaN or infinite entry with a
``ValueError``. All operators are deterministic: the same input always
yields a bit-identical reconstruction. Payload sizes assume 64-bit floats and packed
index encoding; only relative comparisons between operators are meaningful.

The side length d is the matrix's (``compress`` reads it from ``A``, ``delta_bound``
and ``payload_bits`` take it), and ``check_K`` holds K to it.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .config import call, check_fields, choice, count, instance

__all__ = ["CompressorSpec", "compress", "delta_bound", "payload_bits"]


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to use and how many components it keeps (none for identity)."""

    kind: str
    K: int = 0
    KINDS = {"kind": choice("rank_k", "top_k", "identity"), "K": count(0)}

    def __post_init__(self):
        check_fields(self, "compressor")
        if (self.K == 0) != (self.kind == "identity"):  # identity keeps everything and reads no K
            raise ValueError(f"compressor K must be {'0' if self.K else 'at least 1'} for {self.kind}, got {self.K}")


def check_K(spec: CompressorSpec, d: int, field: str = "compressor") -> None:
    """The one rule between K and the side length d: K is at most d for rank_k and at most d^2
    for top_k. It raises ``ValueError("<field> K must be at most ...")``."""
    most = {"rank_k": d, "top_k": d * d}.get(spec.kind, 0)
    if spec.K > most:
        raise ValueError(f"{field} K must be at most {most} for {spec.kind} with d = {d}, got {spec.K}")


# a compressor field's kind, written rank_k(K), top_k(K) or identity
COMPRESSOR = call(instance("a CompressorSpec", CompressorSpec),
                  {kind: (partial(CompressorSpec, kind), {} if kind == "identity" else {"K": CompressorSpec.KINDS["K"]})
                   for kind in ("rank_k", "top_k", "identity")}, attrgetter("kind"))


def compress(spec: CompressorSpec, A: np.ndarray) -> np.ndarray:
    """Apply the operator to a d x d matrix or an (n, d, d) stack.

    Returns the dense reconstruction Q(A), with the shape of ``A``; the
    transmitted size of one matrix is ``payload_bits(spec, d)``. A NaN or
    infinite entry raises ``ValueError`` before any LAPACK call.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    check_K(spec, A.shape[-1])
    if not np.isfinite(A).all():
        raise ValueError(f"{spec.kind} compression got a non-finite entry")
    if spec.kind == "identity":
        return A.copy()
    if spec.kind == "top_k":
        return _top_k(A, spec.K)
    if A.ndim == 2 or len(A) < 2 or A.size < SPLIT_ENTRIES or _usable_cpus() < 2:
        return _rank_k(A, spec.K)
    out = np.empty_like(A)
    half = len(A) // 2
    # the worker calls only _rank_k, which no tracer patches, so every traced span stays here
    other = _worker().submit(contextvars.copy_context().run, _rank_k, A[half:], spec.K, out[half:])
    try:
        _rank_k(A[:half], spec.K, out[:half])
    finally:
        other.exception()  # waits: the worker writes into out, so never return or raise before it ends
    other.result()  # raises the worker's exception, if it had one
    return out


SPLIT_ENTRIES = 4000  # the smallest rank_k stack split over two threads; the module docstring says why

_WORKERS = {}  # process id -> its one worker thread, so that a fork child starts its own


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker() -> ThreadPoolExecutor:
    pid = os.getpid()
    return _WORKERS.get(pid) or _WORKERS.setdefault(
        pid, ThreadPoolExecutor(1, thread_name_prefix="decnewton-compress"))


def _rank_k(A: np.ndarray, K: int, out: np.ndarray | None = None) -> np.ndarray:
    """A V V^T, where V holds the top-K eigenvectors of the Gram matrix B^T B,
    written into ``out`` when given.

    Those are A's top-K right singular vectors, so this is SVD truncation up
    to roundoff. B = A / 2^e with |entries| < 2^e <= 2 max|A|: exact, and
    B^T B cannot overflow or lose its leading entries to underflow. V V^T
    does not depend on the signs of the eigenvectors, so no sign fix is needed.
    """
    _, exp = np.frexp(np.abs(A).max(axis=(-2, -1), keepdims=True))
    B = np.ldexp(A, -exp)
    V = np.linalg.eigh(np.swapaxes(B, -1, -2) @ B)[1][..., -K:]
    return np.matmul(A @ V, np.swapaxes(V, -1, -2), out=out)


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


def delta_bound(spec: CompressorSpec, d: int) -> float:
    """Guaranteed contraction parameter on d x d matrices: ||Q(A)-A||_F <= (1-delta) ||A||_F."""
    check_K(spec, d)
    if spec.kind == "rank_k":
        return spec.K / (2.0 * d)
    if spec.kind == "top_k":
        return spec.K / (2.0 * d * d)
    return 1.0


def payload_bits(spec: CompressorSpec, d: int) -> int:
    """Transmitted size of one compressed d x d matrix, in bits."""
    check_K(spec, d)
    K = spec.K
    if spec.kind == "top_k":
        return K * (64 + math.ceil(math.log2(d * d)))
    if spec.kind == "rank_k":
        return K * (2 * d + 1) * 64
    return d * d * 64
