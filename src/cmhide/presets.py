"""Tuned hyperparameter bundles for the datasets the attack was tuned on.

Property weights are kept as tuned (they sum to 0.98); weights are
relative, and `scoring.check_weights` scales them to sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .gradient import HidingConfig


@dataclass(frozen=True)
class Preset:
    """Per-dataset optimiser settings and property weights."""

    name: str
    eta: float
    lam: float
    max_iter: int
    weights: tuple[float, float, float, float]
    mu_plus_one: bool = False

    def config(self, tau: float = 0.5, beta: int = 1) -> HidingConfig:
        return HidingConfig(
            tau=tau, beta=beta, eta=self.eta, lam=self.lam, max_iter=self.max_iter,
            weights=self.weights,
        )


# weight order: betweenness, degree, intra-community, inter-community degree
PRESETS = {
    p.name: p
    for p in (
        Preset("kar", eta=0.079, lam=1.71, max_iter=120,
               weights=(0.33, 0.20, 0.21, 0.24), mu_plus_one=True),
        Preset("words", eta=0.006, lam=0.04, max_iter=110,
               weights=(0.16, 0.26, 0.34, 0.22)),
        Preset("vote", eta=0.017, lam=0.37, max_iter=140,
               weights=(0.48, 0.25, 0.01, 0.24)),
        Preset("pow", eta=0.008, lam=18.1, max_iter=130,
               weights=(0.05, 0.17, 0.41, 0.35), mu_plus_one=True),
        Preset("fb-75", eta=0.004, lam=0.15, max_iter=140,
               weights=(0.29, 0.59, 0.09, 0.01)),
        Preset("arxiv", eta=0.001, lam=17.2, max_iter=140,
               weights=(0.40, 0.21, 0.05, 0.32)),
    )
}

PRESET_NAMES = tuple(PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
