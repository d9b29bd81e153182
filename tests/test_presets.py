import json

import pytest

from cmhide import ConfigError, get_preset
from cmhide.presets import PRESET_NAMES, load_preset

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
    with pytest.raises(ConfigError, match="not a built-in name"):
        load_preset("zachary")


def test_load_preset_resolves_names_and_files(tmp_path):
    assert load_preset("kar") is get_preset("kar")
    path = tmp_path / "tuned.json"
    path.write_text(
        json.dumps(
            {
                "eta": 0.05,
                "lam": 0.9,
                "max_iter": 60,
                "weights": [1, 1, 1, 1],
                "mu_plus_one": True,
            }
        ),
        "utf-8",
    )
    p = load_preset(str(path))
    assert p.name == "tuned"  # file stem when no explicit name
    assert (p.eta, p.lam, p.max_iter) == (0.05, 0.9, 60)
    assert p.weights == (0.25, 0.25, 0.25, 0.25)
    assert p.mu_plus_one is True


def test_load_preset_rejects_malformed_files(tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"eta": 0.1}), "utf-8")
    with pytest.raises(ConfigError, match="missing keys"):
        load_preset(str(short))
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps({"eta": 0.1, "lam": 1.0, "max_iter": 10, "weights": [1, 2]}),
        "utf-8",
    )
    with pytest.raises(ConfigError, match="exactly 4 weights"):
        load_preset(str(wide))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", "utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_preset(str(arr))
