import csv
import itertools
import json
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cmhide
from cmhide import (
    ALL_METHODS, DetectorSpec, HidingConfig, detect, get_preset, load_fixture, pagerank,
    structural_scores,
)
from cmhide.cli import main
from cmhide.evaluation import attack

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_module_runs_as_a_script():
    src = str(Path(cmhide.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "cmhide.cli", "detect", "--graph", "kar"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert len(json.loads(out.stdout)["communities"]) == 3


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
    assert obj["added"] == [["27", "9"], ["31", "9"]]
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
    assert obj["added"] == [["27", "9"], ["31", "9"], ["8", "9"]]


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
        get_preset("kar").config(beta=3), seed=7,
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


def test_hide_strict_flag_turns_failure_into_exit_1(capsys, tmp_path):
    argv = (
        "hide", "--graph", "kar", "--target", "9", "--preset", "kar",
        "--tau", "0.01", "--beta", "3", "--seed", "3",
        "--config", _json_file(tmp_path, {"max_iter": 3}),
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


def _without_wall_ms(out: str) -> dict:
    return {k: v for k, v in json.loads(out).items() if k != "wall_ms"}


def test_config_file_applies_and_beats_the_preset(capsys, tmp_path):
    # target 0 is not hidden at tau 0.01 within 4 iterations, so max_iter sets the count
    _, out, _ = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "0", "--preset", "kar", "--seed", "3",
        "--tau", "0.01", "--beta", "2", "--config", _json_file(tmp_path, {"max_iter": 4}),
    )
    obj = json.loads(out)
    assert (obj["tau"], obj["beta"], obj["iterations"]) == (0.01, 2, 4)
    g = load_fixture("kar")
    config = replace(get_preset("kar").config(tau=0.01, beta=2), max_iter=4)
    outcome = attack("gradient", g, g.id_of("0"), DetectorSpec("greedy"), config, seed=3)
    # the file's settings run: the preset's, with the file's max_iter in place of its 120
    for key in ("success", "similarity", "used_budget", "detections", "restarts"):
        assert obj[key] == getattr(outcome, key)


def test_config_file_with_the_tuned_weights_runs_as_the_preset(capsys, tmp_path):
    # weights are relative: the kar preset's own, summing to 0.98, are a config
    flags = ("--beta", "3", "--seed", "7")
    _, preset, _ = run_cli(capsys, *HIDE_9, "--preset", "kar", *flags)
    rc, out, err = run_cli(capsys, *HIDE_9, "--config", _json_file(tmp_path, KAR_AS_FILE), *flags)
    assert rc == 0, err
    assert _without_wall_ms(out) == _without_wall_ms(preset)


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


def _json_file(tmp_path, obj, name="input.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), "utf-8")
    return str(path)


def _bytes_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return str(path)


LATIN1 = "caf\xe9 bar\n".encode("latin-1")  # not UTF-8
NOT_JSON = b"{graph: kar}\n"  # UTF-8, but its key is not quoted


def _beside_file_5(tmp_path, argv):
    """argv, run from tmp_path, which now holds an edge list named 5."""
    (tmp_path / "5").write_text("a b\nb c\nc a\nd e\ne f\nf d\nc d\n", "utf-8")
    return argv


HIDE_9 = ("hide", "--graph", "kar", "--target", "9")

BOM = "\ufeff".encode("utf-8")  # EF BB BF, which some editors write first in a UTF-8 file


def test_an_edge_list_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    # the mark is no part of the first label: node 0 stays one node
    text = b"0 1\n1 2\n2 0\n2 3\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(BOM + text)
    rc, out, err = run_cli(capsys, "detect", "--graph", str(marked))
    assert rc == 0, err
    assert (rc, out, err) == run_cli(capsys, "detect", "--graph", str(plain))
    assert sorted(lab for comm in json.loads(out)["communities"] for lab in comm) == list("0123")
    # a byte that is not UTF-8 is placed from the start of the file, mark included
    rc, _, err = run_cli(capsys, "detect", "--graph", _bytes_file(tmp_path, BOM + LATIN1))
    assert rc == 2 and err.endswith(" at byte 6\n")


def test_a_config_file_with_a_byte_order_mark_is_read(capsys, tmp_path):
    # target 0 is not hidden at tau 0.01 within 4 iterations, so max_iter sets the count
    cfg = tmp_path / "config.json"
    cfg.write_bytes(BOM + json.dumps({"max_iter": 4}).encode("utf-8"))
    rc, out, err = run_cli(
        capsys, "hide", "--graph", "kar", "--target", "0", "--preset", "kar", "--seed", "3",
        "--tau", "0.01", "--beta", "2", "--config", str(cfg),
    )
    assert rc == 0, err
    assert json.loads(out)["iterations"] == 4

KAR_AS_FILE = {"eta": 0.079, "lam": 1.71, "max_iter": 120, "weights": [0.33, 0.20, 0.21, 0.24]}

# one grid cell, few targets: a spec case wrongly accepted runs in a moment
ONE_CELL = {"methods": ["dice"], "taus": [0.5], "beta_factors": [1.0], "max_targets": 1}

BAD_INPUTS = {
    "config value": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"eta": "x"})),
    # tau and beta come from --tau and --beta alone
    "config tau": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"tau": 0.1})),
    "config beta": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"beta": 9})),
    "singleton target": lambda tmp: (
        "hide", "--graph", _bytes_file(tmp, b"x x\na b\n"), "--target", "x",
    ),
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
    # only eval_detector may be null
    "spec detector null": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "detector": None}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    "spec detector seed": lambda tmp: (
        "benchmark", "--spec",
        _json_file(tmp, {"graph": "kar", "eval_detector": {"algo": "louvain", "seed": "x"}}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    # eta, lam and weights come from a --config file alone; json writes NaN and Infinity
    **{
        name: lambda tmp, obj=obj: HIDE_9 + (
            "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, obj),
        )
        for name, obj in {
            "eta nan": {"eta": float("nan")},
            "eta inf": {"eta": float("inf")},
            "lam nan": {"lam": float("nan")},
            "weights nan": {"weights": [float("nan"), 1, 1, 1]},
            "weights inf": {"weights": [float("inf"), 1, 1, 1]},
            "weights sum 0": {"weights": [0, 0, 0, 0]},
            "weights sum overflows": {"weights": [1e308, 1e308, 0, 0]},
            "weights negative": {"weights": [1, -1, 1, 1]},
        }.items()
    },
    "config weights nan": lambda tmp: HIDE_9 + (
        "--config", _json_file(tmp, {"weights": [float("nan"), 1, 1, 1]}),
    ),
    "config weights sum 0": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--method", "random",
        "--config", _json_file(tmp, {"weights": [0, 0, 0, 0]}),
    ),
    # the attack seed is the --seed flag; a config holds settings only
    "config seed": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"seed": 5}),
    ),
    "config removed key": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"q": 3}),
    ),
    "spec config removed key": lambda tmp: (
        "benchmark", "--spec", _json_file(tmp, {"graph": "kar", "config": {"squared_loss": True}}),
        "--out", str(tmp / "out"), "--jobs", "1",
    ),
    # analyze scores reads its weights from the config object hide reads
    **{
        f"scores weights {name}": lambda tmp, weights=weights: (
            "analyze", "scores", "--graph", "kar",
            "--config", _json_file(tmp, {"weights": weights}, "config.json"),
            "--partition", _json_file(tmp, {"communities": [[str(v) for v in range(34)]]}),
        )
        for name, weights in {
            "nan": [float("nan"), 1, 1, 1],
            "inf": [float("inf"), 1, 1, 1],
            "sum overflows": [1e308, 1e308, 0, 0],
            "sum 0": [0, 0, 0, 0],
            "negative": [1, -1, 1, 1],
        }.items()
    },
    "graph not utf-8": lambda tmp: ("detect", "--graph", _bytes_file(tmp, LATIN1)),
    "graph not an edge list": lambda tmp: ("detect", "--graph", _bytes_file(tmp, b"a b c\n")),
    "partition not utf-8": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--partition", _bytes_file(tmp, LATIN1),
    ),
    "config not JSON": lambda tmp: HIDE_9 + ("--config", _bytes_file(tmp, NOT_JSON)),
    "spec not JSON": lambda tmp: (
        "benchmark", "--spec", _bytes_file(tmp, NOT_JSON), "--out", str(tmp / "out"),
    ),
    "partition not JSON": lambda tmp: (
        "analyze", "scores", "--graph", "kar", "--partition", _bytes_file(tmp, NOT_JSON),
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
            "fractions": {"fractions": [0.3, 0.5, 0.8]},  # the target fractions are fixed
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
            # each cell's tau and beta come from taus and beta_factors
            "config tau": {"config": {"tau": 0.1}, **ONE_CELL},
            "config beta": {"config": {"beta": 9}, **ONE_CELL},
            "preset false": {"preset": False},
            "preset list": {"preset": ["kar"]},
            "graph list": {"graph": ["kar"]},
            "detector algo number": {"detector": {"algo": 5}},
            "methods empty": {"methods": []},
            "taus empty": {"taus": []},
            "beta_factors empty": {"beta_factors": []},
            # the method name alone sets exhaust_budget
            "config exhaust_budget": {"config": {"exhaust_budget": True}, **ONE_CELL},
            **{
                f"{name} repeated": {**ONE_CELL, name: ONE_CELL[name] * 2}
                for name in ("methods", "taus", "beta_factors")
            },
        }.items()
    },
    # a graph is named by a string, never by a number that happens to name a file
    "spec graph number": lambda tmp: _beside_file_5(tmp, (
        "benchmark", "--spec", _json_file(tmp, {"graph": 5, **ONE_CELL}),
        "--out", str(tmp / "out"),
    )),
    "config exhaust_budget": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"exhaust_budget": True}),
    ),
    "config exhaust_budget string": lambda tmp: HIDE_9 + (
        "--preset", "kar", "--beta", "3", "--config", _json_file(tmp, {"exhaust_budget": "false"}),
    ),
    "config beta bool": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"beta": True})),
    "config max_iter bool": lambda tmp: HIDE_9 + ("--config", _json_file(tmp, {"max_iter": True})),
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
    "config seed": ("config", "seed"),
    "config tau": ("config", "tau"),
    "config beta": ("config", "beta"),
    "config beta bool": ("config", "beta"),
    "spec config seed": ("config", "seed"),
    "spec config seed not integral": ("config", "seed"),
    "spec config tau": ("config", "tau"),
    "spec config value": ("config", "tau"),
    "spec config beta": ("config", "beta"),
    "spec config beta bool": ("config", "beta"),
    "spec config beta not integral": ("config", "beta"),
    "spec detector resolution": ("detector", "resolution"),
    "spec nmi_variant": ("spec", "nmi_variant"),
    "spec fractions": ("spec", "fractions"),
    "config exhaust_budget": ("config", "exhaust_budget"),
    "config exhaust_budget string": ("config", "exhaust_budget"),
    "spec config exhaust_budget": ("config", "exhaust_budget"),
}


# the key each error line must name, whose value is not a JSON string
NOT_A_STRING = {
    "spec graph number": "'graph'",
    "spec graph list": "'graph'",
    "spec preset false": "'preset'",
    "spec preset list": "'preset'",
    "spec detector algo number": "'algo'",
}


UNREADABLE_FILES = {
    "config directory", "config not JSON", "graph directory", "graph not an edge list",
    "graph not utf-8", "partition directory", "partition not JSON", "partition not utf-8",
    "spec directory", "spec not JSON",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_an_error_line(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    argv = BAD_INPUTS[case](tmp_path)
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    *notes, line = err.splitlines()  # one error line, after any notes on the input
    assert line.startswith("cmhide: error:")
    assert all(note.startswith("cmhide: note:") for note in notes)
    if case == "singleton target":  # the node is named by its label, not its id
        assert "node 'x' forms a singleton community" in line
    if case == "spec detector null":
        assert "'detector'" in line
    if case in NOT_A_STRING:
        assert NOT_A_STRING[case] in line and "must be a string" in line
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


def test_spec_budget_beyond_a_row_runs_at_n_minus_1(capsys, tmp_path):
    # mu * 1e308 overflows to infinity; the budget is capped at the 33 flips of a row
    spec = {
        "graph": "kar", "methods": ["random", "dice"], "taus": [0.5], "runs": 1,
        "max_targets": 1, "beta_factors": [1e308],
    }
    out_dir = tmp_path / "out"
    argv = ("benchmark", "--spec", _json_file(tmp_path, spec), "--out", str(out_dir), "--jobs", "1")
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 0, err
    records = list(csv.DictReader((out_dir / "records.csv").read_text("utf-8").splitlines()))
    assert records and {r["beta"] for r in records} == {"33"}
    assert all(int(r["used_budget"]) <= 33 for r in records)


def test_hide_budget_beyond_a_row_exits_0(capsys):
    # `random` draws at most the n - 1 = 33 flips of a row, not 10**20
    rc, out, err = run_cli(capsys, *HIDE_9, "--method", "random", "--beta", str(10**20))
    assert rc == 0, err
    obj = json.loads(out)
    assert obj["beta"] == 10**20 and obj["used_budget"] <= 33


KAR_NODES = [str(v) for v in range(34)]

BAD_PARTITIONS = {
    "overlap": ([KAR_NODES, ["0", "1"]], "not a partition of this graph: communities overlap"),
    "node left out": (
        [KAR_NODES[:17], KAR_NODES[18:]], "leaves 1 node(s) of the graph uncovered",
    ),
    "unknown label": (
        [KAR_NODES + ["zz"]], "not a partition of this graph: unknown node label 'zz'",
    ),
    # a string is no community: "10" would otherwise be read as nodes 1 and 0
    **{
        case: (communities, "communities must be an array of arrays of node label strings")
        for case, communities in {
            "communities a string": "abc",
            "community a string": [["a", "b"], "c"],
            "label a number": [list(range(34))],
        }.items()
    },
}


@pytest.mark.parametrize("case", sorted(BAD_PARTITIONS))
def test_bad_partition_file_exits_2_naming_it(capsys, tmp_path, case):
    communities, message = BAD_PARTITIONS[case]
    path = _json_file(tmp_path, {"communities": communities})
    rc, _, err = run_cli(capsys, "analyze", "scores", "--graph", "kar", "--partition", path)
    assert rc == 2
    assert err == f"cmhide: error: partition file {path!r}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--graph", "kar", "--algo", "labelprop"),
        HIDE_9 + ("--algo", "labelprop"),
        ("detect", "--graph", "kar", "--resolution", "1"),
        HIDE_9 + ("--algo", "louvain", "--resolution", "1"),
        ("benchmark", "--spec", "spec.json", "--out", "out", "--seed", "1"),
        # eta, lam, max_iter and weights come from --config alone
        HIDE_9 + ("--eta", "0.1"),
        HIDE_9 + ("--lam", "1"),
        HIDE_9 + ("--max-iter", "3"),
        HIDE_9 + ("--weights", "33,20,21,24"),
        # each analyze table takes only the flags it reads
        ("analyze", "pagerank", "--graph", "kar", "--partition", "p.json"),
        ("analyze", "scores", "--graph", "kar", "--partition", "p.json", "--weights", "1,1,1,1"),
    ],
    ids=[
        "detect labelprop", "hide labelprop", "detect resolution", "hide resolution",
        "benchmark seed", "hide eta", "hide lam", "hide max-iter", "hide weights",
        "pagerank partition", "scores weights",
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    # the usage is that of the subcommand that ran, e.g. "usage: cmhide analyze pagerank"
    words = " ".join(itertools.takewhile(lambda arg: not arg.startswith("-"), argv))
    assert capsys.readouterr().err.startswith(f"usage: cmhide {words} ")


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


def _analyze_scores(capsys, tmp_path, weights=None) -> list[float]:
    """analyze scores on karate's greedy partition, mixed by a config file's weights, if any."""
    part = tmp_path / "part.json"
    assert run_cli(capsys, "detect", "--graph", "kar", "--out", str(part))[0] == 0
    config = () if weights is None else ("--config", _json_file(tmp_path, {"weights": weights}))
    rc, out, err = run_cli(
        capsys, "analyze", "scores", "--graph", "kar", "--partition", str(part), *config,
    )
    assert rc == 0, err
    rows = out.strip().splitlines()[1:]
    return [float(r.split(",")[1]) for r in rows]


def test_analyze_scores_renormalises_weights(capsys, tmp_path):
    plain = _analyze_scores(capsys, tmp_path, [0.33, 0.20, 0.21, 0.24])
    scaled = _analyze_scores(capsys, tmp_path, [33, 20, 21, 24])  # same proportions, other scale
    assert plain == pytest.approx(scaled, abs=1e-12)
    assert all(0.0 <= v <= 1.0 for v in plain)


def test_analyze_scores_mixes_by_the_config_weights(capsys, tmp_path):
    # the kar preset's weights, as a --config file of hide or a spec's config holds them
    weights = get_preset("kar").weights
    g = load_fixture("kar")
    combined = structural_scores(g, detect(g, DetectorSpec("greedy")), weights).combined
    values = _analyze_scores(capsys, tmp_path, list(weights))
    assert values == pytest.approx(combined.tolist(), abs=1e-12)


def test_analyze_scores_without_a_config_mixes_by_the_default_weights(capsys, tmp_path):
    g = load_fixture("kar")
    weights = HidingConfig().weights
    combined = structural_scores(g, detect(g, DetectorSpec("greedy")), weights).combined
    assert _analyze_scores(capsys, tmp_path) == pytest.approx(combined.tolist(), abs=1e-12)


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
    assert len(summary) == 3  # a header and one row per method
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    assert report["meta"]["seed"] == 0
    assert (out_dir / "records.csv").exists()
    spec.write_text(spec.read_text("utf-8").replace('"seed": 0', '"seed": 5'), "utf-8")
    rc2, _, _ = run_cli(
        capsys, "benchmark", "--spec", str(spec), "--out", str(tmp_path / "b2"), "--jobs", "1"
    )
    assert rc2 == 0
    report2 = json.loads((tmp_path / "b2" / "report.json").read_text("utf-8"))
    assert report2["meta"]["seed"] == 5  # the spec's seed is the master seed


@pytest.mark.parametrize(
    "flags, digest",
    [
        (("--tau", "0.5", "--seed", "7"), "gradient: target 9 hidden (sim=0.0000, used 2/3)\n"),
        (
            ("--tau", "0.01", "--seed", "3", "--config", {"max_iter": 3}),
            "gradient: target 9 still visible (sim=0.0769, used 1/3)\n",
        ),
    ],
)
def test_hide_verbose_adds_only_a_digest_on_stderr(capsys, tmp_path, flags, digest):
    flags = [_json_file(tmp_path, f) if isinstance(f, dict) else f for f in flags]
    argv = (*HIDE_9, "--preset", "kar", "--beta", "3", *flags)
    rc, quiet, quiet_err = run_cli(capsys, *argv)
    rc_verbose, out, err = run_cli(capsys, *argv, "--verbose")
    assert rc == rc_verbose == 0
    assert _without_wall_ms(out) == _without_wall_ms(quiet)  # stdout stays deterministic
    assert quiet_err == "" and err == digest


def _csv_without_wall_seconds(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in row.items() if k != "wall_seconds"} for row in csv.DictReader(fh)]


def test_benchmark_verbose_adds_only_a_digest_on_stderr(capsys, tmp_path):
    spec = {"graph": "cliques", "preset": "kar", "methods": ["dice", "gradient"],
            "taus": [0.3, 0.5], "beta_factors": [1.0], "runs": 1}
    argv = ("benchmark", "--spec", _json_file(tmp_path, spec), "--out", str(tmp_path / "b"),
            "--jobs", "1")
    rc, quiet, quiet_err = run_cli(capsys, *argv)
    records = _csv_without_wall_seconds(tmp_path / "b" / "records.csv")
    rc_verbose, out, err = run_cli(capsys, *argv, "--verbose")
    assert rc == rc_verbose == 0
    assert out == quiet and quiet_err == ""
    assert _csv_without_wall_seconds(tmp_path / "b" / "records.csv") == records
    with open(tmp_path / "b" / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    lines = err.splitlines()
    assert len(lines) == len(summary) == 4  # one digest line per cell
    for line, row in zip(lines, summary):
        assert line.split()[:3] == [row["method"], f"tau={row['tau']}", f"beta={row['beta']}"]
        assert f"SR={float(row['sr_mean']):.3f}+-" in line
        assert line.endswith(f"F1={float(row['f1_mean']):.3f}")


README_HIDE = "cmhide hide --graph kar --target 9 "


def _readme_quick_start() -> tuple[list[str], str]:
    """The quick start's `cmhide` command lines and its Python block."""
    quick = README.read_text("utf-8").split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    shell, python = re.findall(r"```(?:sh|python)\n(.*?)```", quick, re.S)
    return [line for line in shell.splitlines() if line.startswith("cmhide ")], python


def _readme_hide_line() -> str:
    (line,) = [c for c in _readme_quick_start()[0] if c.startswith(README_HIDE)]
    return line


def test_reruns_in_new_processes_agree_under_any_hash_seed(tmp_path):
    # every other determinism test runs in one process, under one string-hash seed
    spec = {"graph": "kar", "preset": "kar", "detector": {"algo": "louvain"},
            "eval_detector": {"algo": "label_propagation"}, "taus": [0.5],
            "beta_factors": [1.0], "max_targets": 2}
    spec_path = _json_file(tmp_path, spec)
    src = str(Path(cmhide.__file__).parents[1])
    runs = []
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / f"bench{hash_seed}"
        env = {"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        cli = [sys.executable, "-m", "cmhide.cli"]
        bench = subprocess.run(
            [*cli, "benchmark", "--spec", spec_path, "--out", str(out_dir), "--jobs", "1"],
            capture_output=True, text=True, check=True, env=env,
        )
        hidden = subprocess.run(
            [*cli, *shlex.split(_readme_hide_line())[1:]], capture_output=True, text=True,
            check=True, env=env,
        )
        runs.append((
            bench.stdout.replace(str(out_dir), "<out>"),
            _csv_without_wall_seconds(out_dir / "records.csv"),
            _csv_without_wall_seconds(out_dir / "summary.csv"),
            _without_wall_ms(hidden.stdout),
        ))
    assert len(runs[0][1]) > 0 and runs[0][3]["target"] == "9"
    assert runs[0] == runs[1]


def test_readme_quick_start_runs_as_written(capsys):
    commands, python = _readme_quick_start()
    assert any(line.startswith(README_HIDE) for line in commands)
    for line in commands:
        rc, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert rc == 0, (line, err)
        if line.startswith(README_HIDE):
            shown = json.loads(out)
    exec(compile(python, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # the Python block runs the same search as the command line
    assert printed[:2] == [str(shown["success"]), str(shown["similarity"])]
