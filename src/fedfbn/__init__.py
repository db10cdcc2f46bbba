"""Deterministic federated-learning simulation with frozen batch norm.

The package trains a small multi-label MLP (dense / batch-norm / ReLU
trunk, per-label sigmoid heads) across simulated nodes and compares
three aggregation strategies: averaging everything (fedavg), keeping
batch norm local (fedbn), and freezing batch norm at pretrained values
so aggregation never touches it (fedfbn). Local-only and centralized
baselines run beside them, on synthetic multi-label data with
controllable covariate shift and partial label overlap. Every result is
a pure function of the config and one master seed.
"""

from .config import ExperimentConfig, load_config, parse_config
from .datagen import Dataset, DomainSpec, LabelModel
from .errors import FedfbnError
from .federation import GlobalModel, Node, Strategy, Weighting, run_federation
from .metrics import ComparisonResult, EvalReport, auroc, bootstrap_ci, paired_ttest
from .network import BnPolicy, Model, ModelSpec, init_model
from .numerics import RngStream

__version__ = "0.1.0"

__all__ = [
    "BnPolicy",
    "ComparisonResult",
    "Dataset",
    "DomainSpec",
    "EvalReport",
    "ExperimentConfig",
    "FedfbnError",
    "GlobalModel",
    "LabelModel",
    "Model",
    "ModelSpec",
    "Node",
    "RngStream",
    "Strategy",
    "Weighting",
    "auroc",
    "bootstrap_ci",
    "init_model",
    "load_config",
    "paired_ttest",
    "parse_config",
    "run_federation",
    "__version__",
]
