import json

import pytest

from cmhide import ALL_METHODS, DetectorSpec, get_preset, load_fixture, pagerank
from cmhide.cli import main
from cmhide.evaluation import SUMMARY_COLUMNS, attack


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_detect_emits_partition_json(capsys):
    rc, out, _ = run_cli(capsys, "detect", "--graph", "kar")
    assert rc == 0
    obj = json.loads(out)
    assert obj["algo"] == "greedy" and obj["seed"] == 0
    assert len(obj["communities"]) == 3
    labels = [lab for comm in obj["communities"] for lab in comm]
    assert sorted(labels) == sorted(load_fixture("kar").labels)


def test_detect_output_file_is_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "detect", "--graph", "kar", "--out", str(a))[0] == 0
    assert run_cli(capsys, "detect", "--graph", "kar", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_detect_verbose_digest_goes_to_stderr(capsys):
    rc, out, err = run_cli(capsys, "detect", "--graph", "kar", "--verbose")
    assert rc == 0
    assert "3 communities" in err
    json.loads(out)  # stdout stays machine-readable


def test_hide_gradient_regression(capsys):
    rc, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--preset", "kar",
        "--tau", "0.5", "--beta", "3", "--seed", "7",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["method"] == "gradient" and obj["target"] == "9"
    assert obj["success"] is True
    assert obj["similarity"] == 0.0
    assert obj["used_budget"] == 2
    assert obj["added"] == [["31", "9"], ["8", "9"]]
    assert obj["removed"] == []
    assert obj["tau"] == 0.5 and obj["beta"] == 3
    assert obj["wall_ms"] > 0


def test_hide_exhaust_budget_spends_everything(capsys):
    rc, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--preset", "kar",
        "--tau", "0.5", "--beta", "3", "--seed", "7", "--method", "gradient_projected",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["used_budget"] == 3
    assert obj["added"] == [["30", "9"], ["31", "9"], ["8", "9"]]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_hide_reports_what_attack_returns(capsys, method):
    rc, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--preset", "kar",
        "--beta", "3", "--seed", "7", "--method", method,
    )
    assert rc == 0
    obj = json.loads(out)
    g = load_fixture("kar")
    outcome = attack(
        method, g, g.id_of("9"), DetectorSpec("greedy"),
        get_preset("kar").config(beta=3, seed=7), seed=7,
    )
    edges = {"added": [], "removed": []}
    for delta in outcome.deltas:
        for a, b in delta.edges():
            pair = sorted((g.label_of(a), g.label_of(b)))
            edges["removed" if g.has_edge(a, b) else "added"].append(pair)
    assert obj["method"] == method
    assert obj["added"] == sorted(edges["added"])
    assert obj["removed"] == sorted(edges["removed"])
    assert obj["similarity"] == outcome.similarity
    assert obj["used_budget"] == outcome.used_budget


def test_hide_dice_reports_mixed_rewiring(capsys):
    rc, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--method", "dice",
        "--beta", "3",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["success"] is True
    assert obj["added"] == [["0", "9"], ["32", "9"]]
    assert obj["removed"] == [["2", "9"]]


def test_hide_roam_reports_edges_off_the_target_row(capsys):
    rc, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--method", "roam",
        "--beta", "3",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["removed"] == [["33", "9"]]
    assert obj["added"] == [["2", "33"]]  # rewiring lands on the detached node
    assert obj["used_budget"] == 2
    assert obj["success"] is False


def test_hide_strict_flag_turns_failure_into_exit_1(capsys):
    argv = (
        "hide", "--graph", "kar", "--target", "9", "--preset", "kar",
        "--tau", "0.01", "--beta", "3", "--seed", "3", "--max-iter", "3",
    )
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["success"] is False
    rc, _, _ = run_cli(capsys, *argv, "--strict")
    assert rc == 1


def test_hide_unknown_target_exits_2(capsys):
    rc, _, err = run_cli(capsys, "hide", "--graph", "kar", "--target", "zz")
    assert rc == 2
    assert err == "cmhide: error: unknown node label 'zz'\n"


def test_missing_graph_exits_2(capsys):
    rc, _, err = run_cli(capsys, "detect", "--graph", "no-such-file.txt")
    assert rc == 2
    assert "not found" in err


def test_config_file_applies_and_flags_beat_it(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.8, "beta": 2, "seed": 5}), "utf-8")
    plain = ("hide", "--graph", "kar", "--target", "9", "--preset", "kar")
    base = plain + ("--config", str(cfg))
    strip = lambda s: {k: v for k, v in json.loads(s).items() if k != "wall_ms"}
    _, out, _ = run_cli(capsys, *base)
    obj = strip(out)
    assert obj["tau"] == 0.8 and obj["beta"] == 2
    _, seed_5, _ = run_cli(capsys, *plain, "--tau", "0.8", "--beta", "2", "--seed", "5")
    _, seed_0, _ = run_cli(capsys, *plain, "--tau", "0.8", "--beta", "2", "--seed", "0")
    assert obj == strip(seed_5) != strip(seed_0)  # the file's seed runs
    _, out, _ = run_cli(capsys, *base, "--tau", "0.3")
    obj = json.loads(out)
    assert obj["tau"] == 0.3 and obj["beta"] == 2
    _, out, _ = run_cli(capsys, *base, "--seed", "7")
    _, seed_7, _ = run_cli(capsys, *plain, "--tau", "0.8", "--beta", "2", "--seed", "7")
    assert strip(out) == strip(seed_7) != strip(seed_5)  # the flag beats the file


def test_unknown_preset_exits_2(capsys):
    rc, _, err = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--preset", "zachary"
    )
    assert rc == 2
    assert "unknown preset" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step": 1}), "utf-8")
    rc, _, err = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "9", "--config", str(cfg)
    )
    assert rc == 2
    assert "unknown config keys" in err


def _json_file(tmp_path, obj) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), "utf-8")
    return str(path)


def _bytes_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return str(path)


LATIN1 = "caf\xe9 bar\n".encode("latin-1")  # not UTF-8


HIDE_9 = ("hide", "--graph", "kar", "--target", "9")

KAR_AS_FILE = {"eta": 0.079, "lam": 1.71, "max_iter": 120, "weights": [0.33, 0.20, 0.21, 0.24]}

BAD_INPUTS = {
    "config value": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"tau": "x"})),
    "partition label": lambda tmp: (
        "analyze", "scores", "--graph", "kar",
        "--partition", _json_file(tmp, {"communities": [["0", "zz"]]}),
    ),
    "partition cover": lambda tmp: (
        "analyze", "scores", "--graph", "kar",
        "--partition", _json_file(tmp, {"communities": [["0", "1"]]}),
    ),
    "partition key misspelt": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--partition",
        _json_file(tmp, {"communities": [[str(v) for v in range(34)]], "seeds": 0}),
    ),
    # a preset is a built-in name; settings from a file come with --config
    "preset file": lambda tmp: HIDE_9 + ("--preset", _json_file(tmp, KAR_AS_FILE)),
    "preset empty": lambda tmp: HIDE_9 + ("--preset", ""),
    "spec preset file": lambda tmp: (
        "benchmark", "--out", str(tmp / "out"), "--spec", _json_file(
            tmp, {"graph": "kar", "preset": _bytes_file(tmp, json.dumps(KAR_AS_FILE).encode())},
        ),
    ),
    "spec runs": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "runs": "x"}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "graph directory": lambda tmp: ("detect", "--graph", str(tmp)),
    "spec detector": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "detector": "louvain"}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "spec detector seed": lambda tmp: (
        "benchmark", "--spec",
        _json_file(tmp, {"graph": "kar", "eval_detector": {"algo": "louvain", "seed": "x"}}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "eta nan": lambda tmp: HIDE_9 + ("--preset", "kar", "--beta", "3", "--eta", "nan"),
    "eta inf": lambda tmp: HIDE_9 + ("--preset", "kar", "--beta", "3", "--eta", "inf"),
    "lam nan": lambda tmp: HIDE_9 + ("--preset", "kar", "--beta", "3", "--lam", "nan"),
    "weights nan": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--weights", "nan,1,1,1",
    ),
    "weights inf": lambda tmp: HIDE_9 + ("--weights", "inf,1,1,1"),
    "weights sum overflows": lambda tmp: HIDE_9 + ("--weights", "1e308,1e308,0,0"),
    "config weights nan": lambda tmp: HIDE_9 + (
        "--config", _json_file(tmp, {"weights": [float("nan"), 1, 1, 1]}),
    ),
    "config weights sum 4": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--method", "random",
        "--config", _json_file(tmp, {"weights": [1, 1, 1, 1]}),
    ),
    "config removed key": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"q": 3}),
    ),
    "spec config removed key": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "config": {"squared_loss": True}}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "scores weights nan": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--weights", "nan,1,1,1",
        "--partition", _json_file(tmp, {"communities": [[str(v) for v in range(34)]]}),
    ),
    "graph not utf-8": lambda tmp: ("detect", "--graph", _bytes_file(tmp, LATIN1)),
    "graph not an edge list": lambda tmp: ("detect", "--graph", _bytes_file(tmp, b"a b c\n")),
    "partition not utf-8": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--partition", _bytes_file(tmp, LATIN1),
    ),
    "partition directory": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--partition", str(tmp),
    ),
    "spec directory": lambda tmp: (
        "benchmark", "--spec", str(tmp), "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "config directory": lambda tmp: HIDE_9 + ("--config", str(tmp)),
    "preset directory": lambda tmp: HIDE_9 + ("--preset", str(tmp)),
    "spec beta factor nan": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "beta_factors": ["nan"]}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "spec not an object": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, ["kar"]), "--out", str(tmp / "out"),
    ),
    "spec graph missing": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"runs": 1}), "--out", str(tmp / "out"),
    ),
    "spec graph not found": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": str(tmp / "missing.txt")}),
        "--out", str(tmp / "out"),
    ),
    "spec method unknown": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "methods": ["strongest"]}),
        "--out", str(tmp / "out"),
    ),
    "spec runs zero": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "runs": 0}),
        "--out", str(tmp / "out"),
    ),
    "spec tau out of range": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "taus": [1.5]}),
        "--out", str(tmp / "out"),
    ),
    "spec config value": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "config": {"tau": "x"}}),
        "--out", str(tmp / "out"),
    ),
    "spec eval detector unknown": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "eval_detector": {"algo": "zz"}}),
        "--out", str(tmp / "out"),
    ),
    **{
        f"spec {name}": lambda tmp, obj=obj: (
            "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "runs": 1, **obj}),
            "--out", str(tmp / "out"),
        )
        for name, obj in {
            "runs not integral": {"runs": 1.9},
            "seed not integral": {"seed": 0.5},
            "max_targets not integral": {"max_targets": 2.5},
            "config beta not integral": {"config": {"beta": 2.5}},
            "config max_iter not integral": {"config": {"max_iter": 2.7}},
            "config seed not integral": {"config": {"seed": 0.5}},
            "detector seed not integral": {"detector": {"algo": "louvain", "seed": 1.5}},
            "fractions nan": {"fractions": ["nan"]},
            "fractions empty": {"fractions": []},
            "mu_plus_one string": {"mu_plus_one": "false"},
            "key misspelt": {"run": 5},
            "runs written as float": {"runs": 2.0},
            "runs written as string": {"runs": "3"},
            "tau written as string": {"taus": ["0.5"]},
            "config beta bool": {"config": {"beta": True}},
            "detector seed negative": {"detector": {"algo": "louvain", "seed": -1}},
            "detector key misspelt": {"detector": {"algo": "louvain", "sed": 1}},
            "detector resolution": {"detector": {"algo": "louvain", "resolution": 1.0}},
            "nmi_variant": {"nmi_variant": "arithmetic"},
            "config seed": {"config": {"seed": 5}},  # attack seeds derive from the spec's seed
            "preset false": {"preset": False},
        }.items()
    },
    "config exhaust_budget string": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"exhaust_budget": "false"}),
    ),
    "config beta bool": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"beta": True})),
    "detect seed negative": lambda tmp: (
        "detect", "--graph", "kar", "--algo", "louvain", "--seed", "-1",
    ),
    **{
        f"hide seed negative {method}": lambda tmp, method=method: HIDE_9 + (
            "--preset", "kar", "--beta", "3", "--seed", "-1", "--method", method,
        )
        for method in ("gradient", "random")
    },
}

# the unknown key each error line must end with
UNKNOWN_KEYS = {
    "config removed key": ("config", "q"),
    "spec config removed key": ("config", "squared_loss"),
    "spec config seed": ("config", "seed"),
    "spec detector resolution": ("detector", "resolution"),
    "spec nmi_variant": ("spec", "nmi_variant"),
}


UNREADABLE_FILES = {
    "config directory", "graph directory", "graph not an edge list", "graph not utf-8",
    "partition directory", "partition not utf-8", "spec directory",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_an_error_line(capsys, tmp_path, case):
    argv = BAD_INPUTS[case](tmp_path)
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("cmhide: error:")
    if "--weights" in argv:  # the message quotes what was typed
        assert repr(argv[argv.index("--weights") + 1]) in err
    if case in UNREADABLE_FILES:  # and names the file
        assert str(tmp_path) in err
    if "--spec" in argv:  # a spec may name other files; the error names the spec
        assert repr(argv[argv.index("--spec") + 1]) in err
    for flag in ("--config", "--preset"):  # as it names a config or preset file
        if flag in argv and argv[argv.index(flag) + 1].startswith(str(tmp_path)):
            assert repr(argv[argv.index(flag) + 1]) in err
    if case in UNKNOWN_KEYS:  # and the key it does not know
        what, key = UNKNOWN_KEYS[case]
        assert f"unknown {what} keys" in err
        assert err.rstrip().endswith(f": {key}")


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--graph", "kar", "--algo", "labelprop"),
        HIDE_9 + ("--algo", "labelprop"),
        ("detect", "--graph", "kar", "--resolution", "1"),
        HIDE_9 + ("--algo", "louvain", "--resolution", "1"),
    ],
    ids=["detect labelprop", "hide labelprop", "detect resolution", "hide resolution"],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "usage: cmhide" in capsys.readouterr().err


def test_loader_notes_dropped_lines(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\nb b\na b\nb c\n", "utf-8")
    rc, out, err = run_cli(capsys, "detect", "--graph", str(path))
    assert rc == 0
    assert "dropped 1 self-loop line(s)" in err
    assert "collapsed 1 duplicate line(s)" in err


def test_analyze_pagerank_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "pagerank", "--graph", "kar")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,value"
    kar = load_fixture("kar")
    assert len(lines) == kar.n + 1
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    pr = pagerank(kar)
    assert sum(values.values()) == pytest.approx(1.0)
    assert values["33"] == pytest.approx(pr[kar.id_of("33")], abs=1e-12)


def test_analyze_scores_needs_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "scores", "--graph", "kar"])
    assert exc.value.code == 2


def test_analyze_scores_renormalises_weights(capsys, tmp_path):
    part = tmp_path / "part.json"
    assert run_cli(capsys, "detect", "--graph", "kar", "--out", str(part))[0] == 0

    def scores(weight_text):
        rc, out, _ = run_cli(
            capsys, "analyze", "scores", "--graph", "kar",
            "--partition", str(part), "--weights", weight_text,
        )
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows]

    plain = scores("0.33,0.20,0.21,0.24")
    scaled = scores("33,20,21,24")  # same proportions, different scale
    assert plain == pytest.approx(scaled, abs=1e-12)
    assert all(0.0 <= v <= 1.0 for v in plain)


def test_benchmark_writes_the_three_artifacts(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "graph": "cliques",
                "preset": "kar",
                "methods": ["dice", "random"],
                "taus": [0.5],
                "beta_factors": [1.0],
                "runs": 1,
                "seed": 0,
            }
        ),
        "utf-8",
    )
    out_dir = tmp_path / "bench"
    rc, out, _ = run_cli(
        capsys, "benchmark", "--spec", str(spec), "--out", str(out_dir), "--jobs", "1"
    )
    assert rc == 0
    assert out.strip() == str(out_dir / "summary.csv")
    summary = (out_dir / "summary.csv").read_text("utf-8").splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 3  # one row per method
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    assert report["meta"]["seed"] == 0
    assert (out_dir / "records.csv").exists()
    rc2, _, _ = run_cli(
        capsys, "benchmark", "--spec", str(spec), "--out", str(tmp_path / "b2"),
        "--jobs", "1", "--seed", "5",
    )
    assert rc2 == 0
    report2 = json.loads((tmp_path / "b2" / "report.json").read_text("utf-8"))
    assert report2["meta"]["seed"] == 5  # flag overrides the spec file
