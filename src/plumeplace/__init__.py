"""plumeplace: information-driven sensor placement for release-source
inference, verified by ensemble Kalman assimilation."""

from .bo import BoConfig, BoTrace, expected_improvement, maximize, propose_next
from .cca import (
    CanonicalPair,
    first_canonical,
    gaussian_mi_from_correlations,
    mi_lower_bound,
)
from .config import ExperimentConfig, load_config, save_config
from .dispersion import MeteoConfig, ObservationModel, ScenarioParams, simulate_observations
from .enkf import AugmentedEnsemble, analysis, assimilate_run, forecast
from .evaluate import EvaluationReport, compare_placements, conditional_entropy
from .gp import GpSurrogate, fit, predict
from .mi import KnnConfig, knn_entropy, ksg_mi
from .placement import (
    GridSpec,
    PlacementResult,
    PriorEnsemble,
    build_ensemble,
    greedy_place,
    grid_place,
    objective,
)

__version__ = "0.1.0"
