"""Command-line interface: detect, hide, benchmark and analyze subcommands.

Machine output is JSON (or CSV for tabular data) on stdout or --out;
--verbose adds a human-readable digest on stderr. Exit codes: 0 success,
1 hiding failed under --strict, 2 usage or config errors. `hide` takes its
settings from a built-in --preset, then a --config file, then its flags,
each beating the one before.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import IO, Sequence

from .detectors import DETECTOR_NAMES, DetectorSpec, Partition, detect
from .errors import CmhideError, ConfigError, EdgeListParseError
from .evaluation import (
    ALL_METHODS,
    ExperimentSpec,
    attack,
    report_to_json,
    run_experiment,
    write_records_csv,
    write_summary_csv,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .gradient import HidingConfig, HidingOutcome
from .graph import Graph, load_edge_list_with_stats
from .presets import PRESET_NAMES, get_preset
from .schema import from_json, load_json, read_text
from .scoring import DEFAULT_WEIGHTS, pagerank, structural_scores

_CONFIG_KEYS = frozenset(f.name for f in fields(HidingConfig))
_SPEC_CONFIG_KEYS = _CONFIG_KEYS - {"seed"}  # every attack seed derives from the spec's seed

# a spec's `jobs` is left to --jobs
_SPEC_KEYS = {"graph", "preset", *(f.name for f in fields(ExperimentSpec) if f.name != "jobs")}


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
        return DetectorSpec(str(obj.pop("algo", "greedy")), **obj)

    return from_json(value, "detector", repr(key), build, ("algo", "seed"))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", "utf-8")


def _partition_json(algo: str, seed: int, g: Graph, part: Partition) -> str:
    communities = [[g.label_of(v) for v in sorted(c)] for c in part.communities]
    return json.dumps(
        {"algo": algo, "seed": seed, "communities": communities},
        indent=2, sort_keys=True,
    )


def _partition_from_json(path: str, g: Graph) -> Partition:
    def build(obj: dict) -> Partition:
        try:
            part = Partition.from_communities(
                frozenset(g.id_of(lab) for lab in comm) for comm in obj["communities"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"not a partition of this graph: {exc.args[0]}") from None
        uncovered = g.n - sum(len(c) for c in part.communities)
        if uncovered:
            raise ConfigError(f"leaves {uncovered} node(s) of the graph uncovered")
        return part

    return load_json(path, "partition", build, ("algo", "seed", "communities"), ("communities",))


def _parse_weights(text: str) -> tuple[float, ...]:
    """Comma-separated weights, renormalised so they sum to exactly 1."""
    try:
        weights = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"weights must be comma-separated numbers, got {text!r}") from None
    total = sum(weights)  # NaN or infinite if any weight is, or if the sum overflows
    if not 0 < total < math.inf:
        raise ConfigError(f"weights must be finite with a positive finite sum, got {text!r}")
    return tuple(w / total for w in weights)


def _config_from_args(args) -> HidingConfig:
    """Flags beat the --config file, which beats the preset, which beats defaults."""
    config = get_preset(args.preset).config() if args.preset is not None else HidingConfig()
    if args.config is not None:
        base = config
        config = load_json(args.config, "config", lambda obj: replace(base, **obj), _CONFIG_KEYS)
    overrides = {}
    for key in ("tau", "beta", "eta", "lam", "max_iter", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.weights is not None:
        overrides["weights"] = _parse_weights(args.weights)
    return replace(config, **overrides)


def _outcome_json(g: Graph, method: str, outcome: HidingOutcome, config: HidingConfig) -> str:
    added: list[list[str]] = []
    removed: list[list[str]] = []
    for delta in outcome.deltas:
        for a, b in delta.edges():
            pair = sorted((g.label_of(a), g.label_of(b)))
            (removed if g.has_edge(a, b) else added).append(pair)
    payload = {
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
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_value_csv(labels: Sequence[str], values: Sequence[float], sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(("node", "value"))
    for label, value in zip(labels, values):
        writer.writerow((label, format(float(value), ".12g")))


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
    outcome = attack(args.method, g, u, DetectorSpec(args.algo, seed=args.detector_seed), config)
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
    g = _load_graph(str(obj.pop("graph")))
    preset = obj.pop("preset", None)
    preset = get_preset(str(preset)) if preset is not None else None
    base = preset.config() if preset else HidingConfig()
    obj["config"] = from_json(
        obj.get("config", {}), "config", "'config'", lambda c: replace(base, **c), _SPEC_CONFIG_KEYS
    )
    for key in ("detector", "eval_detector"):
        if obj.get(key) is not None:
            obj[key] = _detector_from_json(obj[key], key)
    if preset:
        obj.setdefault("mu_plus_one", preset.mu_plus_one)
    return g, ExperimentSpec(**obj)


def _cmd_benchmark(args) -> int:
    g, spec = load_json(args.spec, "spec", _experiment_from_json, _SPEC_KEYS, ("graph",))
    overrides = {"jobs": args.jobs}
    if args.seed is not None:
        overrides["seed"] = args.seed
    report = run_experiment(g, replace(spec, **overrides))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report) + "\n", "utf-8")
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        write_summary_csv(report.summary, fh)
    with open(out_dir / "records.csv", "w", newline="", encoding="utf-8") as fh:
        write_records_csv(report.records, fh)
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
    buf = io.StringIO()
    if args.what == "pagerank":
        _emit_value_csv(g.labels, pagerank(g), buf)
    else:
        part = _partition_from_json(args.partition, g)
        weights = _parse_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
        scores = structural_scores(g, part, weights)
        _emit_value_csv(g.labels, scores.combined, buf)
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
    p_detect.set_defaults(func=_cmd_detect)

    p_hide = sub.add_parser("hide", help="rewire one node's edges until it changes community")
    p_hide.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_hide.add_argument("--target", required=True, help="node label to hide")
    p_hide.add_argument("--algo", default="greedy", choices=DETECTOR_NAMES)
    p_hide.add_argument("--method", default="gradient", choices=ALL_METHODS)
    p_hide.add_argument("--tau", type=float)
    p_hide.add_argument("--beta", type=int)
    p_hide.add_argument("--preset", help=f"hyperparameter set: one of {', '.join(PRESET_NAMES)}")
    p_hide.add_argument("--config", help="JSON file overriding optimiser settings")
    p_hide.add_argument("--eta", type=float)
    p_hide.add_argument("--lam", type=float)
    p_hide.add_argument("--max-iter", dest="max_iter", type=int)
    p_hide.add_argument("--weights", help="four comma-separated structural weights")
    p_hide.add_argument("--seed", type=int, help="default: the --config seed, else 0")
    p_hide.add_argument("--detector-seed", type=int, default=0)
    p_hide.add_argument("--strict", action="store_true", help="exit 1 when hiding fails")
    p_hide.add_argument("--out", help="write outcome JSON here instead of stdout")
    p_hide.add_argument("--verbose", action="store_true")
    p_hide.set_defaults(func=_cmd_hide)

    p_bench = sub.add_parser("benchmark", help="sweep methods over a tau/budget grid")
    p_bench.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_bench.add_argument("--seed", type=int, help="override the spec's master seed")
    p_bench.add_argument("--verbose", action="store_true")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_an = sub.add_parser("analyze", help="per-node structural values as CSV")
    p_an.add_argument("what", choices=("pagerank", "scores"))
    p_an.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_an.add_argument("--partition", help="partition JSON (required for scores)")
    p_an.add_argument("--weights", help="four comma-separated structural weights")
    p_an.add_argument("--out", help="write CSV here instead of stdout")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "analyze" and args.what == "scores" and not args.partition:
            parser.error("analyze scores requires --partition")
        return args.func(args)
    except (CmhideError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"cmhide: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
