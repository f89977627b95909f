"""Decentralized Newton optimization over gossip networks, with multi-step
consensus, compressed Hessian tracking, a gradient-tracking baseline, and
convergence diagnostics at desk scale."""

from .compress import CompressorSpec, compress, delta_bound, payload_bits
from .diagnostics import (
    RateFit,
    RoundMetrics,
    Trace,
    fill_state_metrics,
    fit_rate,
    stage_two_window,
    theoretical_caps,
)
from .gradient_tracking import GTParams, gt_run, tune_alpha
from .graph import (
    MixingMatrix,
    consensus_apply,
    generate_topology,
    load_matrix,
    metropolis_weights,
    save_matrix,
    second_singular_value,
)
from .newton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    NetworkState,
    TwoStageSchedule,
    init_state,
    run,
    run_lockstep,
    step,
)
from .objectives import (
    LogisticInstance,
    Problem,
    QuadraticInstance,
    centralized_solve,
    make_logistic,
    make_quadratic,
)

__version__ = "0.1.0"
