"""Command-line interface: detect, hide, benchmark and analyze subcommands.

Machine output is JSON (or CSV for tabular data) on stdout or --out;
--verbose adds a human-readable digest on stderr. Exit codes: 0 success,
1 hiding failed under --strict, 2 usage or config errors. The CMH_SEED
environment variable overrides the default of every --seed flag.
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
from .presets import PRESET_NAMES, load_preset
from .scoring import DEFAULT_WEIGHTS, pagerank, structural_scores

_ALGO_ALIASES = {"labelprop": "label_propagation"}
_ALGO_CHOICES = DETECTOR_NAMES + tuple(_ALGO_ALIASES)

_CONFIG_KEYS = frozenset(f.name for f in fields(HidingConfig))


def _seed_default(unset: int | None = 0) -> int | None:
    """The CMH_SEED environment variable as an integer, `unset` without it."""
    raw = os.environ.get("CMH_SEED")
    if raw is None:
        return unset
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CMH_SEED must be an integer, got {raw!r}") from None


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{what} {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _read_json(path: str, what: str):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from None


def _load_graph(path: str) -> Graph:
    if os.path.exists(path):
        try:
            g, stats = load_edge_list_with_stats(_read_text(path, "graph file"))
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


def _canon_algo(name: str) -> str:
    name = _ALGO_ALIASES.get(name, name)
    if name not in DETECTOR_NAMES:
        raise ConfigError(
            f"unknown detector {name!r}; available: {', '.join(DETECTOR_NAMES)}"
        )
    return name


def _detector_from_json(obj, key: str) -> DetectorSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {obj!r}")
    algo = _canon_algo(str(obj.get("algo", "greedy")))
    try:
        seed = int(obj.get("seed", 0))
        resolution = float(obj.get("resolution", 1.0))
    except (TypeError, ValueError):
        raise ConfigError(f"bad seed or resolution in {key!r}: {obj!r}") from None
    return DetectorSpec(algo, seed=seed, resolution=resolution)


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
    obj = _read_json(path, "partition file")
    try:
        communities = obj["communities"]
    except (TypeError, KeyError):
        raise ConfigError(f"{path!r} is not a partition file") from None
    try:
        part = Partition.from_communities(
            frozenset(g.id_of(lab) for lab in comm) for comm in communities
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path!r} is not a partition of this graph: {exc.args[0]}") from None
    uncovered = g.n - sum(len(c) for c in part.communities)
    if uncovered:
        raise ConfigError(f"{path!r} leaves {uncovered} node(s) of the graph uncovered")
    return part


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
    config = load_preset(args.preset).config() if args.preset else HidingConfig()
    if args.config is not None:
        obj = _read_json(args.config, "config file")
        config = _override_config(config, obj, source=args.config)
    overrides = {"seed": args.seed}
    for key in ("tau", "beta", "eta", "lam", "max_iter"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.weights is not None:
        overrides["weights"] = _parse_weights(args.weights)
    return replace(config, **overrides)


def _override_config(config: HidingConfig, obj: dict, source: str) -> HidingConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{source!r} must contain a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys in {source!r}: {', '.join(sorted(unknown))}")
    try:
        if "weights" in obj:
            obj = dict(obj, weights=tuple(float(w) for w in obj["weights"]))
        return replace(config, **obj)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value in {source!r}: {exc}") from None


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
    algo = _canon_algo(args.algo)
    part = detect(g, DetectorSpec(algo, seed=args.seed, resolution=args.resolution))
    _write_output(_partition_json(algo, args.seed, g, part), args.out)
    if args.verbose:
        print(f"{algo}: {part.k} communities on n={g.n}, m={g.m}", file=sys.stderr)
    return 0


def _cmd_hide(args) -> int:
    g = _load_graph(args.graph)
    try:
        u = g.id_of(args.target)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    detector = DetectorSpec(
        _canon_algo(args.algo), seed=args.detector_seed, resolution=args.resolution
    )
    config = _config_from_args(args)
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


def _experiment_from_json(obj) -> tuple[Graph, ExperimentSpec]:
    if not isinstance(obj, dict):
        raise ConfigError("not a JSON object")
    try:
        graph_ref = obj["graph"]
    except KeyError:
        raise ConfigError("missing the 'graph' key") from None
    g = _load_graph(str(graph_ref))
    preset = load_preset(str(obj["preset"])) if obj.get("preset") else None
    config = preset.config() if preset else HidingConfig()
    if "config" in obj:
        config = _override_config(config, obj["config"], source="config")
    mu_default = preset.mu_plus_one if preset else False
    kwargs = {}
    for key, cast in (
        ("methods", lambda v: tuple(str(x) for x in v)),
        ("taus", lambda v: tuple(float(x) for x in v)),
        ("beta_factors", lambda v: tuple(float(x) for x in v)),
        ("runs", int),
        ("seed", int),
        ("nmi_variant", str),
        ("fractions", lambda v: tuple(float(x) for x in v)),
        ("max_targets", int),
    ):
        if key in obj:
            try:
                kwargs[key] = cast(obj[key])
            except (TypeError, ValueError):
                raise ConfigError(f"bad {key!r}: {obj[key]!r}") from None
    if "detector" in obj:
        kwargs["detector"] = _detector_from_json(obj["detector"], "detector")
    if "eval_detector" in obj and obj["eval_detector"] is not None:
        kwargs["eval_detector"] = _detector_from_json(obj["eval_detector"], "eval_detector")
    kwargs["mu_plus_one"] = bool(obj.get("mu_plus_one", mu_default))
    return g, ExperimentSpec(config=config, **kwargs)


def _cmd_benchmark(args) -> int:
    obj = _read_json(args.spec, "spec file")
    try:
        g, spec = _experiment_from_json(obj)
    except CmhideError as exc:  # the spec may name other files; say which one is at fault
        raise ConfigError(f"benchmark spec {args.spec!r}: {exc}") from None
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
    seed_default = _seed_default()

    p_detect = sub.add_parser("detect", help="run a community detector on a graph")
    p_detect.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_detect.add_argument("--algo", default="greedy", choices=_ALGO_CHOICES)
    p_detect.add_argument("--seed", type=int, default=seed_default)
    p_detect.add_argument(
        "--resolution", type=float, default=1.0, help="modularity resolution (Louvain only)"
    )
    p_detect.add_argument("--out", help="write partition JSON here instead of stdout")
    p_detect.add_argument("--verbose", action="store_true")
    p_detect.set_defaults(func=_cmd_detect)

    p_hide = sub.add_parser("hide", help="rewire one node's edges until it changes community")
    p_hide.add_argument("--graph", required=True, help="edge-list file or fixture name")
    p_hide.add_argument("--target", required=True, help="node label to hide")
    p_hide.add_argument("--algo", default="greedy", choices=_ALGO_CHOICES)
    p_hide.add_argument("--method", default="gradient", choices=ALL_METHODS)
    p_hide.add_argument("--tau", type=float)
    p_hide.add_argument("--beta", type=int)
    p_hide.add_argument(
        "--preset",
        help=f"hyperparameter set: one of {', '.join(PRESET_NAMES)}, or a JSON file",
    )
    p_hide.add_argument("--config", help="JSON file overriding optimiser settings")
    p_hide.add_argument("--eta", type=float)
    p_hide.add_argument("--lam", type=float)
    p_hide.add_argument("--max-iter", dest="max_iter", type=int)
    p_hide.add_argument("--weights", help="four comma-separated structural weights")
    p_hide.add_argument("--seed", type=int, default=seed_default)
    p_hide.add_argument("--detector-seed", type=int, default=0)
    p_hide.add_argument(
        "--resolution", type=float, default=1.0, help="modularity resolution (Louvain only)"
    )
    p_hide.add_argument("--strict", action="store_true", help="exit 1 when hiding fails")
    p_hide.add_argument("--out", help="write outcome JSON here instead of stdout")
    p_hide.add_argument("--verbose", action="store_true")
    p_hide.set_defaults(func=_cmd_hide)

    p_bench = sub.add_parser("benchmark", help="sweep methods over a tau/budget grid")
    p_bench.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_bench.add_argument(
        "--seed", type=int, default=_seed_default(unset=None),
        help="override the spec's master seed",
    )
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
