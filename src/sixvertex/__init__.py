"""Simulation and verification toolkit for a family of periodic vertex models.

The package covers four layers that share one algebraic core:

* ``weights`` -- a ten-element symbolic weight set closed under an
  idempotent, annihilating product, with exact evaluation and parsing.
* ``lmatrix`` -- the one-color transfer rule, its n-color extension built by
  folding levels through the product, exact output laws, the two-coin
  sampler that realizes them, and exhaustive small-n verifiers
  (stochasticity, color ignorance, erasure under color merging).
* ``lattice`` -- row-by-row samplers for the six vertex model with step
  data, its horizontally complemented variant with empty boundary, the
  blockwise colored variant, height functions, and admissibility checks.
* ``degenerations`` / ``lln`` -- the exact point-process degeneration with
  its pathwise coupling, the four-symbol collapse of the weight algebra,
  superadditivity of the crossing array, and limit-shape convergence
  experiments.

Randomness is counter-based throughout: every uniform is addressed by
(seed, replica, row, column), so results never depend on worker count or
traversal order.
"""

__version__ = "0.1.0"

from .degenerations import (
    PointSet,
    enumerate_cs6v_height_distribution,
    enumerate_hammersley_distribution,
    hammersley_height,
    modified_min,
    sample_pointset,
    specialize_t,
    verify_hammersley_coupling,
    verify_hammersley_equivalence,
    verify_tpng_equivalence,
)
from .lattice import (
    ColoringScheme,
    ParameterField,
    PathEnsemble,
    admissibility_violations,
    complement,
    height_H,
    height_h,
    make_coloring,
    make_field,
    mod2_project,
    sample_colored_cs6v,
    sample_cs6v,
    sample_s6v,
    sample_two_colored_with_boundary,
    select_color,
    verify_monotonicity,
)
from .lln import (
    ConvergenceReport,
    compute_X,
    convergence_experiment,
    hammersley_limit,
    limit_shape_g,
    sample_shell_ensembles,
    verify_ergodic_hypotheses,
    verify_prop_X_height,
    verify_superadditivity,
)
from .lmatrix import (
    OutcomeDistribution,
    coin_law,
    contiguous_partitions,
    fold_projection,
    format_colors,
    golden_table_lines,
    l1_weight,
    l2_golden_table,
    ln_distribution,
    ln_weight,
    outcome_table,
    parse_colors,
    partition_projection,
    verify_color_ignorance,
    verify_golden_table,
    verify_mod2_erasure,
    verify_sampler_matrix,
    verify_stochastic,
    vertex_outcome,
)
from .render_svg import ensemble_svg, write_svg
from .report import VerificationReport
from .rng import row_uniforms
from .serialize import (
    ensemble_from_bytes,
    ensemble_from_json,
    ensemble_to_bytes,
    ensemble_to_json,
    read_ensemble,
    write_ensemble,
)
from .weights import (
    B1,
    B2,
    ONE,
    ONE_MINUS_B1,
    ONE_MINUS_B2,
    W,
    W_PRIME,
    ZERO,
    Weight,
    evaluate,
    is_partition_of_unity,
    parse,
    render,
    star,
    star_product,
)

__all__ = [
    "B1", "B2", "ColoringScheme", "ConvergenceReport", "ONE",
    "ONE_MINUS_B1", "ONE_MINUS_B2", "OutcomeDistribution", "ParameterField",
    "PathEnsemble", "PointSet", "VerificationReport", "W", "W_PRIME",
    "Weight", "ZERO", "__version__", "admissibility_violations", "coin_law",
    "complement", "compute_X", "contiguous_partitions",
    "convergence_experiment",
    "enumerate_cs6v_height_distribution",
    "enumerate_hammersley_distribution", "ensemble_from_bytes",
    "ensemble_from_json", "ensemble_svg", "ensemble_to_bytes",
    "ensemble_to_json", "evaluate", "fold_projection", "format_colors",
    "golden_table_lines", "hammersley_height", "hammersley_limit",
    "height_H", "height_h", "is_partition_of_unity", "l1_weight",
    "l2_golden_table", "limit_shape_g", "ln_distribution", "ln_weight",
    "make_coloring", "make_field", "mod2_project", "modified_min",
    "outcome_table", "parse", "parse_colors", "partition_projection",
    "read_ensemble", "render", "row_uniforms", "sample_colored_cs6v",
    "sample_cs6v", "sample_pointset", "sample_s6v", "sample_shell_ensembles",
    "sample_two_colored_with_boundary", "select_color", "specialize_t",
    "star", "star_product",
    "verify_color_ignorance", "verify_ergodic_hypotheses",
    "verify_golden_table", "verify_hammersley_coupling",
    "verify_hammersley_equivalence", "verify_mod2_erasure",
    "verify_monotonicity", "verify_prop_X_height", "verify_sampler_matrix",
    "verify_stochastic", "verify_superadditivity", "verify_tpng_equivalence",
    "vertex_outcome", "write_ensemble", "write_svg",
]
