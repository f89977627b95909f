"""Contractive matrix compression: guarantees, measured error, payload size.

Rank-K keeps the top singular triples, Top-K the largest entries. Both obey
||Q(A) - A||_F <= (1 - delta) ||A||_F with delta = K/(2d) and K/(2d^2); the
measured error is usually much smaller than the bound. Payload sizes show
why shipping compressed curvature beats shipping a full d x d matrix.
"""

import numpy as np

from decnewton import CompressorSpec, compress, delta_bound, payload_bits

rng = np.random.default_rng(1)
d = 20
A = rng.standard_normal((d, d))
norm = np.linalg.norm(A)

print(f"one Gaussian {d}x{d} matrix, ||A||_F = {norm:.2f}")
print(f"{'operator':>12} {'K':>4} {'delta':>8} {'bound':>8} {'measured':>9} {'bits':>7}")
for kind, ks in (("rank_k", (1, 3, 5, 10, 20)), ("top_k", (10, 20, 50, 100, 400))):
    for K in ks:
        spec = CompressorSpec(kind, K)
        err = np.linalg.norm(compress(spec, A) - A) / norm
        delta = delta_bound(spec, d)
        print(f"{kind:>12} {K:>4d} {delta:>8.4f} {1 - delta:>8.4f} {err:>9.4f} "
              f"{payload_bits(spec, d):>7d}")

full = payload_bits(CompressorSpec("identity"), d)
print(f"\nuncompressed matrix: {full} bits")
print(f"rank-3 payload is {full / payload_bits(CompressorSpec('rank_k', 3), d):.1f}x smaller")
print(f"top-20 payload is {full / payload_bits(CompressorSpec('top_k', 20), d):.1f}x smaller")

print("\ndeterminism: two compressions of the same matrix are bit-identical:",
      np.array_equal(compress(CompressorSpec("rank_k", 3), A),
                     compress(CompressorSpec("rank_k", 3), A.copy())))
