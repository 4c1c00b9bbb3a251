"""Deterministic simulator for fair, differentially private federated learning.

Clients train locally and transmit model-update differences; the server clips
each update with a dual-threshold operator (a privacy bound S and a bias bound
M), averages, and adds Gaussian noise. The harness compares against a
centralized baseline and tracks per-group accuracy and a nominal privacy cost.
"""

from .numeric import RngStream, gaussian_vector, l2_norm, median
from .models import EvalMetrics, LabeledBatch, ModelSpec
from .datagen import BiasTag, ClientShard, DataSpec, PartitionScheme
from .clipping import ClipReport, clip_by_norm, dual_clip
from .privacy import PrivacyLedger, add_noise, epsilon_per_round
from .federation import FedConfig, RoundRecord, ServerState, SimulationError, run_training
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunSummary,
    centralized_baseline,
    compare_runs,
    parse_config,
    preset_config,
    run_experiment,
)

__version__ = "0.1.0"
