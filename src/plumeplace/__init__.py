"""plumeplace: information-driven sensor placement for release-source
inference, verified by ensemble Kalman assimilation."""

from .bo import BoTrace, expected_improvement, maximize, propose_next
from .cca import CanonicalPair, first_canonical, mi_lower_bound
from .config import BoConfig, ExperimentConfig, KnnConfig, load_config, save_config
from .dispersion import simulate_observations
from .enkf import AugmentedEnsemble, analysis, assimilate_run, draw_perturbations, forecast
from .evaluate import EvaluationReport, compare_placements
from .gp import GpSurrogate, fit, predict
from .mi import knn_entropy, ksg_mi
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
