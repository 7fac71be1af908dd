"""Random feature collocation solvers for stationary multiscale radiative
transfer, with a micro-macro decomposition variant that stays accurate
uniformly in the scattering scale."""

__version__ = "0.1.0"

from .basis import (Box, BoxPartition, FeatureModel, FeatureWeights,
                    feature_eval, make_model, model_eval, normalize_to_box,
                    pou_tensor_normalized, pou_univariate, uniform_partition)
from .quadrature import AngularRule, angular_rule, apply_collision, average, \
    gauss_legendre
from .collocation import (CollocationSet, build_collocation, evaluation_grid,
                          inflow_boundary, interior_grid)
from .problems import (PROBLEM_IDS, ProblemSpec, catalog, epsilon_profile,
                       micro_macro_residuals)
from .assemble import (LinearSystem, assemble_aprfm, assemble_rfm,
                       reconstruct_f, rescale_rows)
from .solve import SolveReport, lstsq
from .reference import (GridField, exact_field, fdm_density, fdm_reference,
                        relative_l2)
from .method import Method

__all__ = [
    "__version__",
    "Box", "BoxPartition", "FeatureModel", "FeatureWeights",
    "feature_eval", "make_model", "model_eval", "normalize_to_box",
    "pou_tensor_normalized", "pou_univariate", "uniform_partition",
    "AngularRule", "angular_rule", "apply_collision", "average",
    "gauss_legendre",
    "CollocationSet", "build_collocation", "evaluation_grid",
    "inflow_boundary", "interior_grid",
    "PROBLEM_IDS", "ProblemSpec", "catalog", "epsilon_profile",
    "micro_macro_residuals",
    "LinearSystem", "assemble_aprfm", "assemble_rfm", "reconstruct_f",
    "rescale_rows",
    "SolveReport", "lstsq",
    "GridField", "exact_field", "fdm_density", "fdm_reference",
    "relative_l2",
    "Method",
]
