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
from .combiners import CombinerError, CombinerPair, preset, sigma_m, validate
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
    SpectralDecomposition,
    SymMatrix,
    kron_apply,
    range_solve,
    sym_eig,
)
from .problem import (
    Dataset,
    LogisticLoss,
    ParseError,
    ProblemInstance,
    ProxSpec,
    QuadraticLoss,
    logistic_instance,
    parse_libsvm,
    partition,
    quadratic_from_targets,
    quadratic_instance,
    read_libsvm,
    serialize_libsvm,
)
from .solver import (
    CoinSequence,
    DivergenceError,
    GridRun,
    RunTrace,
    SolverState,
    centralized_proxgrad,
    run,
    run_grid,
)

__version__ = "0.1.0"
