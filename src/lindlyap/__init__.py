"""Gaussian steady states of linear open quantum dynamics.

Build models from quadratic Hamiltonians and linear jump operators, solve
their stationary covariance through a Lyapunov equation, certify stability,
test nonclassicality, entanglement, and steering both on the state and
directly on the model, detect symmetries, compute symplectic normal forms,
and engineer reservoirs that prepare prescribed Gaussian targets.
"""

from .core import (
    DEFAULT_TOL,
    InertiaIndex,
    Tolerances,
    symplectic_form,
)
from .criteria import (
    Classicality,
    Conclusiveness,
    CriterionResult,
    Level,
    Partition,
    Separability,
    Steerability,
    Uncertainty,
    Verdict,
    environment_criterion,
    state_criterion,
    xi_matrix,
)
from .catalog import CatalogId, catalog_analytic, catalog_build, squeeze_transform, thermal_bath
from .evolution import Trajectory, evolve
from .lyapunov import (
    LyapunovProblem,
    residual,
    solve,
    solve_integral,
    steady_covariance,
)
from .model import (
    GaussianDynamics,
    LindbladRealization,
    LindbladVector,
    ModelSpec,
    QuadraticHamiltonian,
    SchurForm,
    StabilityReport,
    UnstableDriftError,
    build_dynamics,
    realize_lindblad,
    schur_form,
    stability_check,
)
from .symmetry import (
    CovarianceTransform,
    InvarianceReport,
    StructureTemplate,
    gibbs_condition,
    invariance_check,
    match_template,
    transform_triple,
)
from .williamson import (
    EngineeredReservoir,
    EngineeredTarget,
    EngineeringError,
    WilliamsonDecomposition,
    engineer_covariant_target,
    engineer_gibbs_target,
    engineer_target,
    is_symplectic,
    physical_spectrum,
    symplectic_spectrum,
    williamson_decompose,
)

__version__ = "0.1.0"
