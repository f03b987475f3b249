"""Desk-scale simulator and certificate harness for the flexible
adapt-then-combine family of decentralized composite-optimization
algorithms with probabilistic communication skipping."""

from .analysis import (
    CertificateError,
    GridCertificates,
    ComplexityEstimate,
    FixedPoint,
    complexity,
    fixed_point,
    sweep_certificates,
    zeta_c,
    zeta_rate,
)
from .combiners import CombinerError, CombinerPair, preset, validate
from .graph import (
    GraphError,
    MixingMatrix,
    Topology,
    gen_topology,
    lazify,
    metropolis_weights,
)
from .linalg import (
    LinalgError,
    kron_apply,
    range_solve,
    sym_eig,
)
from .problem import (
    Dataset,
    ParseError,
    ProblemInstance,
    ProxSpec,
    logistic_instance,
    parse_libsvm,
    quadratic_from_targets,
    quadratic_instance,
    serialize_libsvm,
)
from .solver import (
    DivergenceError,
    GridRun,
    RunTrace,
    centralized_proxgrad,
    coin_flips,
    run,
    run_grid,
)

__version__ = "0.1.0"
