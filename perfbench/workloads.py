"""The benchmark's workloads, built from decnewton's public presets and config
objects.

Each workload is a fixed tuple of configs. ``jobs(seed, shift)`` adds
``shift`` to every problem and graph seed (0 reproduces the presets, any other
value checks a claim on instances it was not tuned on) and orders the configs
by ``seed``.

``scale-n300`` is not in BENCHMARK.json: its one config runs 11-15 s, so a
run of ``run_seconds`` holds only one or two samples of it, and its scaled time
still spread 14% between runs on a shared 2-core host (wall_s in ``run.py``).
It stays here for ``report.py`` and ``run.py --workload scale-n300``.

The benchmark seed does not pick instances, because instances differ too much
for one seed's figures to stand for another's: κ=1e4 instances take from 2.6
to 6.5 s, tuned gradient tracking from 1,300 to 2,500 iterations, and some
shifted instances fail outright (quad-k1e4-m15 diverges at shift 89, the
logistic oracle misses its tolerance at shift 19).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from decnewton.gradient_tracking import GTParams
from decnewton.harness import preset_configs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple

    def jobs(self, seed: int, shift: int = 0) -> list:
        """The configs of one run, seeds shifted by ``shift``, in ``seed`` order."""
        configs = [
            replace(c, problem=replace(c.problem, seed=c.problem.seed + shift),
                    graph=replace(c.graph, seed=c.graph.seed + shift))
            for c in self.configs
        ]
        random.Random(seed).shuffle(configs)
        return configs


def _build() -> dict:
    quad = preset_configs("quad-kappa")
    k1e2_m15 = next(c for c in quad if c.label == "quad-k1e2-m15")
    gt = replace(k1e2_m15, method="gt", gt_alpha_mode="tuned", label="gt-tuned",
                 algorithm=GTParams(alpha=1.0, m=1))  # alpha is replaced by tuning
    scale = replace(k1e2_m15, label="scale-n300",
                    problem=replace(k1e2_m15.problem, n=300),
                    graph=replace(k1e2_m15.graph, tau=0.02))
    workloads = [
        Workload("quad-illcond",
                 "kappa=1e4 quad-kappa configs: the CG direction solve dominates and "
                 "is the only place the CG contract breaks",
                 tuple(c for c in quad if c.problem.kappa == 1e4)),
        Workload("logit",
                 "logit-topk and logit-rank presets: the only real logistic Hessians, "
                 "and top-k next to rank-k compression",
                 tuple(preset_configs("logit-topk") + preset_configs("logit-rank"))),
        Workload("gt-tuned",
                 "tuned gradient tracking on the kappa=1e2 instance: consensus, gradients "
                 "and metrics only, bypassing every Newton-side layer",
                 (gt,)),
        Workload("scale-n300",
                 "kappa=1e2 quadratic on 300 nodes: per-node loops, a 300x300 gossip "
                 "matrix and the n>200 graph set-up path",
                 (scale,)),
    ]
    return {w.name: w for w in workloads}


WORKLOADS = _build()
