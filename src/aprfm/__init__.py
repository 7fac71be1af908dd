"""Random feature collocation solvers for stationary multiscale radiative
transfer, with a micro-macro decomposition variant that stays accurate
uniformly in the scattering scale."""

__version__ = "0.1.0"

from .basis import (BoxPartition, FeatureModel, make_model, model_values,
                    uniform_partition)
from .quadrature import AngularRule, angular_rule
from .collocation import (CollocationSet, build_collocation,
                          evaluation_nodes)
from .problems import PROBLEM_IDS, ProblemSpec, catalog, epsilon_profile
from .assemble import (LinearSystem, assemble_aprfm, assemble_rfm,
                       reconstruct_f, rescale_rows)
from .solve import SolveReport, lstsq
from .reference import (GridField, exact_field, fdm_density, fdm_reference,
                        relative_l2)
from .method import Method

__all__ = [
    "__version__",
    "BoxPartition", "FeatureModel", "make_model",
    "model_values", "uniform_partition",
    "AngularRule", "angular_rule",
    "CollocationSet", "build_collocation", "evaluation_nodes",
    "PROBLEM_IDS", "ProblemSpec", "catalog", "epsilon_profile",
    "LinearSystem", "assemble_aprfm", "assemble_rfm", "reconstruct_f",
    "rescale_rows",
    "SolveReport", "lstsq",
    "GridField", "exact_field", "fdm_density", "fdm_reference",
    "relative_l2",
    "Method",
]
