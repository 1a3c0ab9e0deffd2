"""quadsurv: continuous-time deep survival modeling.

The instantaneous hazard is parameterized by a small network and the
cumulative hazard inside the likelihood is evaluated with Gauss-Legendre
quadrature over each subject's observed interval, keeping training
fully differentiable without time discretization.
"""

__version__ = "0.1.0"

from .data import Standardizer, SurvivalData, load_csv, save_csv
from .errors import QuadSurvError
from .metrics import (c_index_td, censoring_survival, d_calibration,
                      evaluation_report, integrated_brier_score,
                      integrated_binomial_ll, kaplan_meier, select_horizons)
from .model import FittedModel, HazardModel, ModelConfig
from .quadrature import QuadratureRule, build_rule, error_bound
from .simulation import (GeneratorSpec, GroundTruth, calibrate_censoring,
                         generate, l1_error, make_truth, marginalized_curves)
from .training import (SearchSpace, TrainingConfig, TrainResult, adamw_step,
                       nll_loss, nll_terms, random_search, train)

__all__ = [
    "__version__",
    "Standardizer", "SurvivalData", "load_csv", "save_csv",
    "QuadSurvError",
    "c_index_td", "censoring_survival", "d_calibration", "evaluation_report",
    "integrated_brier_score", "integrated_binomial_ll", "kaplan_meier",
    "select_horizons",
    "FittedModel", "HazardModel", "ModelConfig",
    "QuadratureRule", "build_rule", "error_bound",
    "GeneratorSpec", "GroundTruth", "calibrate_censoring", "generate",
    "l1_error", "make_truth", "marginalized_curves",
    "SearchSpace", "TrainingConfig", "TrainResult", "adamw_step", "nll_loss",
    "nll_terms", "random_search", "train",
]
