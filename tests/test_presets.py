import pytest

from cmhide import ConfigError, get_preset
from cmhide.presets import PRESET_NAMES, Preset

EXPECTED = {
    "kar": (0.079, 1.71, 120, (0.33, 0.20, 0.21, 0.24), True),
    "words": (0.006, 0.04, 110, (0.16, 0.26, 0.34, 0.22), False),
    "vote": (0.017, 0.37, 140, (0.48, 0.25, 0.01, 0.24), False),
    "pow": (0.008, 18.1, 130, (0.05, 0.17, 0.41, 0.35), True),
    "fb-75": (0.004, 0.15, 140, (0.29, 0.59, 0.09, 0.01), False),
    "arxiv": (0.001, 17.2, 140, (0.40, 0.21, 0.05, 0.32), False),
}


def test_preset_table_is_locked():
    assert set(PRESET_NAMES) == set(EXPECTED)
    for name, (eta, lam, max_iter, raw, plus_one) in EXPECTED.items():
        p = get_preset(name)
        assert (p.eta, p.lam, p.max_iter) == (eta, lam, max_iter)
        assert p.raw_weights == raw
        assert p.mu_plus_one is plus_one


def test_weights_are_renormalised_but_proportional():
    for name in PRESET_NAMES:
        p = get_preset(name)
        assert sum(p.weights) == pytest.approx(1.0, abs=1e-9)
        scale = sum(p.raw_weights)
        for w, raw in zip(p.weights, p.raw_weights):
            assert w == pytest.approx(raw / scale)


def test_config_carries_preset_knobs():
    cfg = get_preset("vote").config(tau=0.3, beta=5)
    assert (cfg.tau, cfg.beta) == (0.3, 5)
    assert (cfg.eta, cfg.lam, cfg.max_iter) == (0.017, 0.37, 140)
    assert cfg.weights == get_preset("vote").weights
    overridden = get_preset("vote").config(tau=0.3, beta=5, eta=0.5, seed=9)
    assert overridden.eta == 0.5 and overridden.seed == 9


def test_unknown_preset_name_lists_options():
    with pytest.raises(ConfigError, match="kar"):
        get_preset("zachary")


def test_preset_rejects_mistyped_fields():
    # a preset checks nothing itself; the HidingConfig it builds checks every setting
    good = dict(name="p", eta=0.1, lam=1.0, max_iter=10, raw_weights=(1.0, 1.0, 1.0, 1.0))
    assert Preset(**good).config().weights == (0.25, 0.25, 0.25, 0.25)
    for bad, message in (
        (dict(max_iter=2.7), "max_iter must be an integer"),
        (dict(eta="0.1"), "eta must be a number"),
        (dict(raw_weights=(-1, 1, 1, 1)), "non-negative"),
    ):
        with pytest.raises(ConfigError, match=message):
            Preset(**{**good, **bad}).config()
