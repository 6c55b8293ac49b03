"""Ordinal-preference games: solve the variational reformulation, verify equilibria.

The package models generalized games whose players rank outcomes by ordinal
preferences (utility-based or purely relational), computes normal-cone
selections of the strict upper contour sets, solves the associated
quasivariational inequality by a projected multistart iteration, and
independently certifies candidate equilibria with grid and variational-inequality
checks.
"""

__version__ = "0.1.0"

from .cones import (
    ConeGenerators,
    Direction,
    Provenance,
    cone_membership,
    contour_polyhedron,
    gradient_normal_direction,
    polyhedral_normal_generators,
    sampled_separating_direction,
    zero_in_hull,
)
from .corpus import (
    EXAMPLES,
    arrow_debreu_instance,
    example_coordinate_pref,
    example_lhc_remark,
    example_trivial_pref,
    monotone_concave_instance,
    quadratic_equilibrium,
    random_concave_quadratic,
)
from .errors import (
    EvaluationError,
    ExpressionError,
    GameFormatError,
    GridBudgetError,
    InfeasiblePointError,
    InfeasibleRegionError,
    InteriorPointError,
    OrdnashError,
    ProfileError,
    SeparatorError,
)
from .expressions import compile_expression, parse_expression
from .gamefile import (
    dumps_game,
    game_digest,
    load_game,
    loads_game,
    save_game,
)
from .minnorm import MinNormResult, min_norm_point
from .model import (
    Block,
    BoxOnly,
    ContourRow,
    CoordinateOrder,
    FeasibleRegion,
    GameSpec,
    HalfspaceContour,
    PlayerSpec,
    Profile,
    SharedLinear,
    ThresholdBand,
    TrivialZero,
    UtilityPreference,
    ValidationIssue,
    assemble_profile,
    feasible_region,
    sample_contour,
    split_profile,
    strict_upper_mask,
    strictly_prefers,
    validate_spec,
)
from .solver import (
    Selection,
    SolverConfig,
    SvipSolution,
    fixed_point_step,
    natural_residual,
    project_feasible,
    selection_T,
    solve_svip,
)
from .verify import (
    Certificate,
    brute_force_gne,
    check_gne_grid,
    check_svip,
    grid_coordinates,
    lhc_probe,
    theorem1_property,
    theorem2_property,
)

__all__ = [
    "__version__",
    # model
    "Block",
    "Profile",
    "UtilityPreference",
    "CoordinateOrder",
    "TrivialZero",
    "ContourRow",
    "HalfspaceContour",
    "ThresholdBand",
    "BoxOnly",
    "SharedLinear",
    "PlayerSpec",
    "GameSpec",
    "FeasibleRegion",
    "ValidationIssue",
    "assemble_profile",
    "split_profile",
    "strictly_prefers",
    "strict_upper_mask",
    "feasible_region",
    "sample_contour",
    "validate_spec",
    # expressions
    "parse_expression",
    "compile_expression",
    # cones
    "Provenance",
    "Direction",
    "ConeGenerators",
    "gradient_normal_direction",
    "polyhedral_normal_generators",
    "contour_polyhedron",
    "sampled_separating_direction",
    "cone_membership",
    "zero_in_hull",
    "MinNormResult",
    "min_norm_point",
    # solver
    "SolverConfig",
    "Selection",
    "SvipSolution",
    "selection_T",
    "project_feasible",
    "natural_residual",
    "fixed_point_step",
    "solve_svip",
    # verifier
    "Certificate",
    "grid_coordinates",
    "check_gne_grid",
    "check_svip",
    "brute_force_gne",
    "theorem1_property",
    "theorem2_property",
    "lhc_probe",
    # corpus
    "EXAMPLES",
    "example_trivial_pref",
    "example_coordinate_pref",
    "example_lhc_remark",
    "random_concave_quadratic",
    "quadratic_equilibrium",
    "monotone_concave_instance",
    "arrow_debreu_instance",
    # files
    "load_game",
    "loads_game",
    "save_game",
    "dumps_game",
    "game_digest",
    # errors
    "OrdnashError",
    "ExpressionError",
    "EvaluationError",
    "ProfileError",
    "GameFormatError",
    "InfeasibleRegionError",
    "InfeasiblePointError",
    "InteriorPointError",
    "SeparatorError",
    "GridBudgetError",
]
