"""Decentralized optimization on the Stiefel manifold with quantized
Riemannian gradient tracking, plus the retraction-based tracking baseline,
Metropolis mixing, and the distributed eigenvector experiment harness.
"""

from .engine import (
    ALGO_QRGT,
    ALGO_RGT,
    AlgoConfig,
    RunTrace,
    TrackingState,
    run,
    safety_step_bound,
    step_size_bounds,
)
from .metrics import consensus_error, evaluate, evaluate_means, subspace_distance
from .network import MixingMatrix, Topology, build_metropolis, mix, second_singular_value
from .problems import (
    ProblemInstance,
    SyntheticSpec,
    estimate_smoothness,
    generate_synthetic,
    load_mnist,
    make_instance,
    mnist_blocks,
    solve_ground_truth,
    synthetic_blocks,
)
from .quantizers import QuantizerSpec, dequantize, encode, scale_factor, snap, wire_size_bits
from .stiefel import (
    ManifoldDims,
    SmoothnessConstants,
    distance_to_manifold,
    penalty_grad,
    random_stiefel,
    retract,
    tangent_project,
)

__version__ = "0.1.0"
