"""Command-line interface: detect, hide, benchmark and analyze subcommands.

Machine output is JSON (or CSV for tabular data) on stdout or --out; this
module formats all of it, with one JSON dump and one CSV cell rule, and reads
every file a user names, with errors that name its path. --verbose
adds a human-readable digest on stderr. Exit codes: 0 success, 1 hiding
failed under --strict, 2 usage or config errors. Optimiser settings come
from a built-in preset, then a config object that beats it: `hide` reads
--preset and --config, a benchmark spec its `preset` and `config`, and
`analyze scores` a --config file; tau and beta come from --tau and --beta.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Sequence

from .detectors import DETECTOR_NAMES, DetectorSpec, Partition, detect
from .errors import CmhideError, ConfigError, EdgeListParseError
from .evaluation import (
    ALL_METHODS,
    ExperimentSpec,
    Report,
    SummaryRow,
    TargetRecord,
    attack,
    run_experiment,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .gradient import CONFIG_KEYS, HidingConfig, HidingOutcome
from .graph import Graph, load_edge_list_with_stats
from .presets import PRESET_NAMES, get_preset
from .schema import fits
from .scoring import pagerank, structural_scores

# a spec's `jobs` is left to --jobs
_SPEC_KEYS = {"graph", "preset", *(f.name for f in fields(ExperimentSpec) if f.name != "jobs")}


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line, a leading byte-order mark skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")  # utf-8-sig would count error offsets past it
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{what} {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def from_json(value, what: str, where: str, build: Callable, keys: Collection[str], required=()):
    """`build` called on a copy of `value`, the JSON object of a `what` found `where`.

    Rejects a non-object, a missing required key and a key not in `keys`.
    Every error, those `build` raises included, names `where`.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must contain a JSON object")
    if missing := set(required) - set(value):
        raise ConfigError(f"{where} is missing keys: {', '.join(sorted(missing))}")
    if unknown := set(value) - set(keys):
        raise ConfigError(f"unknown {what} keys in {where}: {', '.join(sorted(unknown))}")
    try:
        return build(dict(value))
    except CmhideError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def read_json(path: str, what: str):
    """The JSON value in a `what` file: the one reader of JSON input files."""
    try:
        return json.loads(read_text(path, f"{what} file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path!r} is not valid JSON: {exc}") from None


def load_json(path: str, what: str, build: Callable, keys: Collection[str], required=()):
    """`from_json` on the object in a `what` file."""
    return from_json(read_json(path, what), what, f"{what} file {path!r}", build, keys, required)


def _load_graph(path: str) -> Graph:
    if os.path.exists(path):
        try:
            g, stats = load_edge_list_with_stats(read_text(path, "graph file"))
        except EdgeListParseError as exc:
            raise ConfigError(f"graph file {path!r}: {exc}") from None
        notes = []
        if stats.self_loops_dropped:
            notes.append(f"dropped {stats.self_loops_dropped} self-loop line(s)")
        if stats.duplicate_lines:
            notes.append(f"collapsed {stats.duplicate_lines} duplicate line(s)")
        if notes:
            print(f"cmhide: note: {', '.join(notes)}", file=sys.stderr)
        return g
    if path in FIXTURE_NAMES:
        return load_fixture(path)
    raise ConfigError(f"graph file {path!r} not found (and not a fixture name)")


def _detector_from_json(value, key: str) -> DetectorSpec:
    def build(obj: dict) -> DetectorSpec:
        if not fits(str, algo := obj.pop("algo", "greedy")):  # DetectorSpec names it `name`
            raise ConfigError(f"'algo' must be a string, got {algo!r}")
        return DetectorSpec(algo, **obj)

    return from_json(value, "detector", repr(key), build, ("algo", "seed"))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, "utf-8")


def _json(payload) -> str:
    """Every JSON output: indented, with sorted keys, so reruns compare byte for byte."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    """Every CSV cell: a bool is 0/1, a float .12g, a tuple its items joined with ';'."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return str(value)


def write_csv(columns: Sequence[str], rows: Iterable[Sequence], sink: IO[str]) -> None:
    """A header of `columns`, then one line per row of values."""
    writer = csv.writer(sink)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def report_to_json(report: Report) -> str:
    """report.json: a benchmark's meta, summary rows and records."""
    return _json({
        "meta": report.meta,
        "summary": [asdict(row) for row in report.summary],
        "records": [asdict(r) for r in report.records],
    })


def _partition_json(algo: str, seed: int, g: Graph, part: Partition) -> str:
    communities = [[g.label_of(v) for v in sorted(c)] for c in part.communities]
    return _json({"algo": algo, "seed": seed, "communities": communities})


def _partition_from_json(path: str, g: Graph) -> Partition:
    def build(obj: dict) -> Partition:
        listed = obj["communities"]
        if not (isinstance(listed, list) and all(isinstance(c, list) for c in listed)
                and all(isinstance(v, str) for c in listed for v in c)):
            raise ConfigError("communities must be an array of arrays of node label strings")
        try:
            comms = [frozenset(map(g.id_of, comm)) for comm in listed]
            uncovered = g.n - len(frozenset().union(*comms))
            if not uncovered:
                return Partition.from_communities(comms)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"not a partition of this graph: {exc.args[0]}") from None
        raise ConfigError(f"leaves {uncovered} node(s) of the graph uncovered")

    return load_json(path, "partition", build, ("algo", "seed", "communities"), ("communities",))


def _hiding_config(preset: str | None, obj, where: str) -> HidingConfig:
    """A preset's settings, or the defaults, with a config object's CONFIG_KEYS over them."""
    base = get_preset(preset).config() if preset is not None else HidingConfig()
    return from_json(obj, "config", where, lambda c: replace(base, **c), CONFIG_KEYS)


def _config_file(path: str | None, preset: str | None = None) -> HidingConfig:
    """_hiding_config on the object of a --config file, if one is given."""
    obj = {} if path is None else read_json(path, "config")
    return _hiding_config(preset, obj, f"config file {path!r}")


def _config_from_args(args) -> HidingConfig:
    """The preset and the --config file, then --tau and --beta."""
    config = _config_file(args.config, args.preset)
    criterion = {"tau": args.tau, "beta": args.beta}
    return replace(config, **{k: v for k, v in criterion.items() if v is not None})


def _outcome_json(g: Graph, method: str, outcome: HidingOutcome, config: HidingConfig) -> str:
    added: list[list[str]] = []
    removed: list[list[str]] = []
    for delta in outcome.deltas:
        for a, b in delta.edges():
            pair = sorted((g.label_of(a), g.label_of(b)))
            (removed if g.has_edge(a, b) else added).append(pair)
    return _json({
        "method": method,
        "target": g.label_of(outcome.target),
        "tau": config.tau,
        "beta": config.beta,
        "success": outcome.success,
        "similarity": outcome.similarity,
        "added": sorted(added),
        "removed": sorted(removed),
        "used_budget": outcome.used_budget,
        "iterations": outcome.iterations,
        "detections": outcome.detections,
        "restarts": outcome.restarts,
        "wall_ms": outcome.wall_seconds * 1000.0,
    })


def _cmd_detect(args) -> int:
    g = _load_graph(args.graph)
    part = detect(g, DetectorSpec(args.algo, seed=args.seed))
    _write_output(_partition_json(args.algo, args.seed, g, part), args.out)
    if args.verbose:
        print(f"{args.algo}: {part.k} communities on n={g.n}, m={g.m}", file=sys.stderr)
    return 0


def _cmd_hide(args) -> int:
    g = _load_graph(args.graph)
    try:
        u = g.id_of(args.target)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    config = _config_from_args(args)
    detector = DetectorSpec(args.algo, seed=args.detector_seed)
    outcome = attack(args.method, g, u, detector, config, seed=args.seed)
    _write_output(_outcome_json(g, args.method, outcome, config), args.out)
    if args.verbose:
        state = "hidden" if outcome.success else "still visible"
        print(
            f"{args.method}: target {args.target} {state} "
            f"(sim={outcome.similarity:.4f}, used {outcome.used_budget}/{config.beta})",
            file=sys.stderr,
        )
    if args.strict and not outcome.success:
        return 1
    return 0


def _experiment_from_json(obj: dict) -> tuple[Graph, ExperimentSpec]:
    """A spec's graph and ExperimentSpec; its preset fills what it leaves out."""
    for key in ("graph", "preset"):
        if key in obj and not fits(str, obj[key]):
            raise ConfigError(f"{key!r} must be a string, got {obj[key]!r}")
    g = _load_graph(obj.pop("graph"))
    preset = obj.pop("preset", None)
    obj["config"] = _hiding_config(preset, obj.get("config", {}), "'config'")
    if "detector" in obj:
        obj["detector"] = _detector_from_json(obj["detector"], "detector")
    if obj.get("eval_detector") is not None:  # null: score with the attack's detector
        obj["eval_detector"] = _detector_from_json(obj["eval_detector"], "eval_detector")
    if preset is not None:
        obj.setdefault("mu_plus_one", get_preset(preset).mu_plus_one)
    return g, ExperimentSpec(**obj)


def _cmd_benchmark(args) -> int:
    g, spec = load_json(args.spec, "spec", _experiment_from_json, _SPEC_KEYS, ("graph",))
    report = run_experiment(g, replace(spec, jobs=args.jobs))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report), "utf-8")
    for name, row_type, rows in (
        ("summary.csv", SummaryRow, report.summary), ("records.csv", TargetRecord, report.records)
    ):
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            write_csv([f.name for f in fields(row_type)], map(astuple, rows), fh)
    if args.verbose:
        for row in report.summary:
            print(
                f"{row.method:18s} tau={row.tau:<4g} beta={row.beta:<3d} "
                f"SR={row.sr_mean:.3f}+-{row.sr_std:.3f} F1={row.f1_mean:.3f}",
                file=sys.stderr,
            )
    print(str(out_dir / "summary.csv"))
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    if args.what == "pagerank":
        values = pagerank(g)
    else:
        part = _partition_from_json(args.partition, g)
        values = structural_scores(g, part, _config_file(args.config).weights).combined
    buf = io.StringIO()
    write_csv(("node", "value"), zip(g.labels, values.tolist()), buf)
    _write_output(buf.getvalue(), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmhide",
        description="Hide a node from its detected community by rewiring few edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run a community detector on a graph")
    p_detect.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_detect.add_argument("--algo", default="greedy", choices=DETECTOR_NAMES)
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--out", help="write partition JSON here instead of stdout")
    p_detect.add_argument("--verbose", action="store_true")
    p_detect.set_defaults(func=_cmd_detect, parser=p_detect)

    p_hide = sub.add_parser("hide", help="rewire one node's edges until it changes community")
    p_hide.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_hide.add_argument("--target", required=True, help="node label to hide")
    p_hide.add_argument("--algo", default="greedy", choices=DETECTOR_NAMES)
    p_hide.add_argument("--method", default="gradient", choices=ALL_METHODS)
    p_hide.add_argument("--tau", type=float)
    p_hide.add_argument("--beta", type=int)
    p_hide.add_argument("--preset", help=f"hyperparameter set: one of {', '.join(PRESET_NAMES)}")
    p_hide.add_argument("--config", help="JSON file overriding optimiser settings")
    p_hide.add_argument("--seed", type=int, default=0)
    p_hide.add_argument("--detector-seed", type=int, default=0)
    p_hide.add_argument("--strict", action="store_true", help="exit 1 when hiding fails")
    p_hide.add_argument("--out", help="write outcome JSON here instead of stdout")
    p_hide.add_argument("--verbose", action="store_true")
    p_hide.set_defaults(func=_cmd_hide, parser=p_hide)

    p_bench = sub.add_parser("benchmark", help="sweep methods over a tau/budget grid")
    p_bench.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_bench.add_argument("--verbose", action="store_true")
    p_bench.set_defaults(func=_cmd_benchmark, parser=p_bench)

    p_an = sub.add_parser("analyze", help="per-node structural values as CSV")
    tables = p_an.add_subparsers(dest="what", required=True)
    p_pagerank = tables.add_parser("pagerank", help="PageRank of every node")
    p_scores = tables.add_parser("scores", help="combined structural score of every node")
    p_scores.add_argument("--partition", required=True, help="partition JSON file")
    p_scores.add_argument("--config", help="JSON file whose weights mix the scores")
    for p_table in (p_pagerank, p_scores):
        p_table.add_argument("--graph", required=True, help="edge-list file or fixture name")
        p_table.add_argument("--out", help="write CSV here instead of stdout")
        p_table.set_defaults(func=_cmd_analyze, parser=p_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # reported by the parser of the subcommand that ran, with its usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (CmhideError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"cmhide: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
