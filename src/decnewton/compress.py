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

import math
import numbers
import sys
from collections import namedtuple
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


def count(least: int, other: str | None = None) -> Kind:
    """An int >= ``least`` (of type int: no bool, numpy integer or enum), or the text ``other``."""
    return Kind(f"{f'{other!r} or ' if other else ''}an integer >= {least}",
                lambda v: v == other if isinstance(v, str) else type(v) is int and v >= least,
                lambda text: text if text == other else int(text))


def real(lo: float, hi: float | None = None, above: bool = False) -> Kind:
    """A real in [lo, hi], or (lo, hi] when ``above``, that a float holds (no NaN, inf or
    huge int): an int, a bool or a numpy float too, written as the float it equals."""
    want = (f"a real in {'(' if above else '['}{lo:g}, {hi:g}]" if hi is not None
            else f"a finite real {'>' if above else '>='} {lo:g}")
    top = sys.float_info.max if hi is None else hi  # Python compares a huge int with it exactly
    return Kind(want, lambda v: isinstance(v, numbers.Real) and (lo < v if above else lo <= v) and v <= top,
                float, lambda v: repr(float(v)))


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
