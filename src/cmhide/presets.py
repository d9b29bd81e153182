"""Tuned hyperparameter bundles for the datasets the attack was tuned on.

Raw property weights are kept as tuned (they sum to 0.98) and renormalised
to sum to exactly 1 when a config is built from a preset.
"""

from __future__ import annotations

import json
import os
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
    raw_weights: tuple[float, float, float, float]
    mu_plus_one: bool = False

    @property
    def weights(self) -> tuple[float, float, float, float]:
        total = sum(self.raw_weights)
        return tuple(w / total for w in self.raw_weights)

    def config(self, tau: float = 0.5, beta: int = 1, **overrides) -> HidingConfig:
        base = dict(
            tau=tau,
            beta=beta,
            eta=self.eta,
            lam=self.lam,
            max_iter=self.max_iter,
            weights=self.weights,
        )
        base.update(overrides)
        return HidingConfig(**base)


# weight order: betweenness, degree, intra-community, inter-community degree
PRESETS = {
    p.name: p
    for p in (
        Preset("kar", eta=0.079, lam=1.71, max_iter=120,
               raw_weights=(0.33, 0.20, 0.21, 0.24), mu_plus_one=True),
        Preset("words", eta=0.006, lam=0.04, max_iter=110,
               raw_weights=(0.16, 0.26, 0.34, 0.22)),
        Preset("vote", eta=0.017, lam=0.37, max_iter=140,
               raw_weights=(0.48, 0.25, 0.01, 0.24)),
        Preset("pow", eta=0.008, lam=18.1, max_iter=130,
               raw_weights=(0.05, 0.17, 0.41, 0.35), mu_plus_one=True),
        Preset("fb-75", eta=0.004, lam=0.15, max_iter=140,
               raw_weights=(0.29, 0.59, 0.09, 0.01)),
        Preset("arxiv", eta=0.001, lam=17.2, max_iter=140,
               raw_weights=(0.40, 0.21, 0.05, 0.32)),
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


def load_preset(ref: str) -> Preset:
    """Resolve a preset by built-in name, falling back to a JSON file path."""
    if ref in PRESETS:
        return PRESETS[ref]
    if not os.path.exists(ref):
        raise ConfigError(
            f"unknown preset {ref!r} (not a built-in name or a file); "
            f"available: {', '.join(PRESET_NAMES)}"
        )
    try:
        with open(ref, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read preset file {ref!r}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"preset file {ref!r} is not JSON text: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"preset file {ref!r} must contain a JSON object")
    missing = {"eta", "lam", "max_iter", "weights"} - set(obj)
    if missing:
        raise ConfigError(
            f"preset file {ref!r} is missing keys: {', '.join(sorted(missing))}"
        )
    try:
        weights = tuple(float(w) for w in obj["weights"])
        preset = Preset(
            name=str(obj.get("name", os.path.splitext(os.path.basename(ref))[0])),
            eta=float(obj["eta"]),
            lam=float(obj["lam"]),
            max_iter=int(obj["max_iter"]),
            raw_weights=weights,
            mu_plus_one=bool(obj.get("mu_plus_one", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in preset file {ref!r}: {exc}") from None
    if len(weights) != 4:
        raise ConfigError(f"preset file {ref!r} must list exactly 4 weights")
    return preset
