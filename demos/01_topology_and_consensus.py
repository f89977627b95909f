"""Random topologies, Metropolis mixing, and multi-step consensus contraction.

Builds graphs at several connectivity ratios, reports the spectral quantity
sigma = ||W - averaging projector||, and measures how m gossip rounds shrink
disagreement by sigma^m.
"""

import numpy as np

from decnewton import consensus_apply, generate_topology, metropolis_weights

rng = np.random.default_rng(0)

print("connectivity ratio vs spectral gap (n = 20)")
print(f"{'tau':>6} {'edges':>6} {'sigma':>8}")
for tau in (0.1, 0.2, 0.5, 1.0):
    A = generate_topology(20, tau, seed=7)  # the adjacency matrix
    mix = metropolis_weights(A)
    print(f"{tau:>6.2f} {int(A.sum()) // 2:>6d} {mix.sigma:>8.4f}")

print()
print("multi-step consensus: measured contraction vs sigma^m (n = 10, tau = 0.2)")
mix = metropolis_weights(generate_topology(10, 0.2, seed=11))
blocks = rng.standard_normal((10, 5))
dev0 = np.linalg.norm(blocks - blocks.mean(axis=0))
print(f"sigma = {mix.sigma:.4f}, initial disagreement {dev0:.3f}")
print(f"{'m':>4} {'measured ratio':>15} {'sigma^m':>10}")
for m in (1, 2, 5, 10, 15, 20):
    out = consensus_apply(mix, m, blocks)
    dev = np.linalg.norm(out - out.mean(axis=0))
    print(f"{m:>4d} {dev / dev0:>15.6f} {mix.sigma**m:>10.6f}")

print()
print("the block average never moves:")
out = consensus_apply(mix, 15, blocks)
print(f"  |avg(out) - avg(in)|_max = {np.max(np.abs(out.mean(0) - blocks.mean(0))):.2e}")
