"""Community membership hiding by minimal rewiring of one node's edges.

The names below are the package's front door; everything else is imported
from the module that defines it (cmhide.graph, cmhide.scoring, ...).
"""

from .baselines import run_baseline
from .detectors import DetectorSpec, Partition, detect
from .errors import (
    CmhideError,
    ConfigError,
    EdgeListParseError,
    SingletonCommunityError,
)
from .evaluation import (
    ALL_METHODS,
    ExperimentSpec,
    budget_for,
    f1_score,
    nmi,
    run_experiment,
)
from .fixtures import load_fixture
from .gradient import HidingConfig, hide
from .graph import EdgeDelta, apply_delta, load_edge_list
from .presets import get_preset
from .scoring import pagerank, structural_scores

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "CmhideError",
    "ConfigError",
    "DetectorSpec",
    "EdgeDelta",
    "EdgeListParseError",
    "ExperimentSpec",
    "HidingConfig",
    "Partition",
    "SingletonCommunityError",
    "apply_delta",
    "budget_for",
    "detect",
    "f1_score",
    "get_preset",
    "hide",
    "load_edge_list",
    "load_fixture",
    "nmi",
    "pagerank",
    "run_baseline",
    "run_experiment",
    "structural_scores",
]
