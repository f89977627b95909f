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

The module also holds the config field kinds (``Kind``, ``check_fields``) by
which every config dataclass, ``CompressorSpec`` first, checks its values.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "CompressorSpec",
    "compress",
    "delta_bound",
    "payload_bits",
]


# ---------------------------------------------------------------------------
# config field kinds. Each config dataclass declares every field's Kind in KINDS, in the order
# config text writes them, and checks them all with one check_fields call. A Kind is a value
# ``ok`` accepts, which ``want`` describes; ``parse`` reads one from text, ``render`` writes it.

Kind = namedtuple("Kind", "want ok parse render", defaults=(str, str))


def read_int(text: str) -> int:
    """The integer ``text`` writes in its one spelling, the text ``str(int(text))`` gives:
    no '+', '_', space, leading zero or non-ASCII digit, which ``int`` also reads."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"an integer is written {value}, not {text!r}")
    return value


def read_real(text: str) -> float:
    """The float ``text`` writes, with no '_' or non-ASCII character, which ``float`` also reads."""
    if "_" in text or not text.isascii():
        raise ValueError(f"a real is written with no '_' or non-ASCII character, got {text!r}")
    return float(text)


def count(least: int, other: str | None = None) -> Kind:
    """An int >= ``least`` (of type int: no bool, numpy integer or enum), or the text ``other``."""
    return Kind(f"{f'{other!r} or ' if other else ''}an integer >= {least}",
                lambda v: v == other if isinstance(v, str) else type(v) is int and v >= least,
                lambda text: text if text == other else read_int(text))


def real(lo: float, hi: float | None = None, above: bool = False) -> Kind:
    """A real in [lo, hi], or (lo, hi] when ``above``, that a float holds (no NaN, inf or
    huge int): an int, a bool or a numpy float too, written as the float it equals."""
    want = (f"a real in {'(' if above else '['}{lo:g}, {hi:g}]" if hi is not None
            else f"a finite real {'>' if above else '>='} {lo:g}")
    top = sys.float_info.max if hi is None else hi  # Python compares a huge int with it exactly
    return Kind(want, lambda v: isinstance(v, numbers.Real) and (lo < v if above else lo <= v) and v <= top,
                read_real, lambda v: repr(float(v)))


def text(rule, want: str) -> Kind:
    return Kind(want, lambda v: isinstance(v, str) and bool(rule(v)))


def choice(*options: str) -> Kind:
    return text(options.__contains__, f"{', '.join(options[:-1])} or {options[-1]}")


def instance(want: str, *classes) -> Kind:  # config text writes one in a form of its own
    return Kind(want, lambda v: isinstance(v, classes), None, None)


def check_fields(obj, section: str, **names: str) -> None:
    """The one check of config values: each field of the dataclass ``obj`` against its kind in
    ``obj.KINDS`` (None passes where it is the default). It raises ``ValueError("<section>
    <field> must be <want>, got <value!r>")``; ``names`` gives a field another name."""
    for field in fields(obj):
        kind, value = obj.KINDS[field.name], getattr(obj, field.name)
        if not (value is None and field.default is None or kind.ok(value)):
            raise ValueError(f"{names.get(field.name, f'{section} {field.name}')} must be {kind.want}, got {value!r}")


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to use, how many components to keep, and the side length."""

    kind: str
    d: int
    K: int = 0
    KINDS = {"kind": choice("rank_k", "top_k", "identity"), "d": count(1), "K": count(0)}

    def __post_init__(self):
        check_fields(self, "compressor")
        most = {"rank_k": self.d, "top_k": self.d * self.d}.get(self.kind, 0)  # identity reads no K
        if self.kind != "identity" and not 1 <= self.K <= most:
            raise ValueError(f"compressor K must be in [1, {most}] for {self.kind} with d = {self.d}, got {self.K}")


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
