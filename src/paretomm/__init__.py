"""Preference optimization over Pareto sets of strongly convex objectives.

The outer problem -- minimize a preference function over the set of Pareto
optimal points -- is pulled back onto the weight simplex through the
scalarized-minimizer map, then solved by iterating quadratic upper-bound
minimization with certified approximate stationarity.
"""

from .errors import (
    ConfigurationError,
    InfeasibleError,
    InvalidArgumentError,
    NumericalFailureError,
    SizeLimitError,
)
from .problem import (
    ConstantBundle,
    ObjectiveSet,
    ProblemInstance,
    SmoothFunction,
    derive_constants,
    make_log_cosh_quadratic,
    make_quadratic,
    norm_1_2,
    quadratic_from_hessian,
    scalarize,
)
from .simplex import (
    SimplexPoint,
    SimplexQuadratic,
    l1_stationarity_gap,
    l2_tangent_gap,
    min_norm_over_simplex,
    minimize_quadratic_over_simplex,
    project_to_simplex,
)
from .manifold import (
    Jacobian,
    ManifoldPoint,
    err_grad_f0,
    grad_x_star_estimate,
    grad_x_star_exact,
    minimize_function,
    solve_x_star,
)
from .pmm import (
    IterateTrace,
    PmmResult,
    SolverConfig,
    StationarityCertificate,
    SurrogateState,
    build_surrogate,
    compute_c1_c2,
    pmm_solve,
)
from .baselines import (
    ImpossibilityInstance,
    PngConfig,
    PngResult,
    build_impossibility_instance,
    is_pareto_generic,
    is_preference_generic,
    png_descent,
    png_vector,
    sample_preference_generic,
)
from .oracle import (
    GridSearchResult,
    finite_difference_jacobian,
    grid_search_preference_opt,
    lattice_size,
    shared_hessian_optimum,
    tangent_directions,
)

__version__ = "0.1.0"
