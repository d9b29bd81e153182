"""Outside-in tracer: spans around calls into the cmhide layers.

Nothing inside the package is edited. Each public layer function is wrapped
at every module attribute bound to it, because `from .graph import
clamp_add` gives `cmhide.gradient` a binding of its own: patching only
`cmhide.graph.clamp_add` would miss the calls made from `gradient`. Spans
stay in memory until `write` dumps them at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer -> public functions whose calls become spans named "<layer>.<function>".
LAYER_FUNCTIONS = {
    "graph": ("load_edge_list", "apply_delta", "clamp_add", "delta_between"),
    "detectors": ("detect",),
    "scoring": ("betweenness", "pagerank", "structural_scores"),
    "gradient": ("hide", "hide_projected", "loss_gradient", "project_to_budget"),
    "baselines": ("run_baseline",),
    "evaluation": ("run_experiment", "nmi", "summarise"),
}

# Calls that produce one attack outcome; the outermost one is what a caller sees.
ATTACK_SPANS = ("gradient.hide", "gradient.hide_projected", "baselines.run_baseline")

DETECTOR_NAMES = ("greedy", "louvain", "label_propagation")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the root
    attrs: dict | None


@dataclass(frozen=True)
class Attack:
    """One attack as its caller issued it, with the outcome it got back."""

    graph: object
    target: int
    detector: object
    config: object
    partition: object  # partition the caller passed in, or None
    outcome: object


class Tracer:
    """Collects spans and attack calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.attacks: list[Attack] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        overlay_type = importlib.import_module("cmhide.graph").GraphOverlay
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cmhide" or name.startswith("cmhide."))
        ]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"cmhide.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original, overlay_type)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None) -> None:
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        span.attrs = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, e.g. around one op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, attrs or None)

    def _in_attack(self) -> bool:
        return any(self.spans[i].name in ATTACK_SPANS for i in self._stack)

    def _wrap(self, name: str, fn, overlay_type):
        signature = inspect.signature(fn)
        is_attack = name in ATTACK_SPANS
        is_detect = name == "detectors.detect"

        def wrapper(*args, **kwargs):
            outermost = is_attack and not self._in_attack()
            idx = self._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if is_detect:
                    bound = signature.bind(*args, **kwargs).arguments
                    attrs = {
                        "detector": bound["spec"].name,
                        "overlay": isinstance(bound["g"], overlay_type),
                    }
                elif is_attack:
                    attrs = {
                        "iterations": result.iterations,
                        "detections": result.detections,
                        "restarts": result.restarts,
                        "outermost": outermost,
                    }
                    if outermost:
                        bound = signature.bind(*args, **kwargs).arguments
                        self.attacks.append(Attack(
                            graph=bound["g"], target=bound["u"],
                            detector=bound["detector"], config=bound["config"],
                            partition=bound.get("partition"), outcome=result,
                        ))
                return result
            finally:
                self._close(idx, attrs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        One thread runs everything, so children never overlap and their
        durations add up to the part of the parent they cover.
        """
        out = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end_ns - s.start_ns
        return out

    def layer_metrics(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer counts, self times and ratios over spans[first:last]."""
        last = len(self.spans) if last is None else last
        self_ns = self.self_ns()
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        detector_ms = dict.fromkeys(DETECTOR_NAMES, 0.0)
        overlay_calls = 0
        hides = iterations = restarts = detections = 0
        for i in range(first, last):
            span = self.spans[i]
            calls[span.name] = calls.get(span.name, 0) + 1
            ms = self_ns[i] / 1e6
            self_ms[span.name] = self_ms.get(span.name, 0.0) + ms
            attrs = span.attrs or {}
            if span.name == "detectors.detect" and "detector" in attrs:
                detector_ms[attrs["detector"]] += ms
                overlay_calls += attrs["overlay"]
            if span.name.startswith("gradient.hide") and attrs.get("outermost"):
                hides += 1
                iterations += attrs["iterations"]
                restarts += attrs["restarts"]
                detections += attrs["detections"]
        out: dict[str, float] = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        # hide_projected is the budget-exhausting form of hide: one optimiser
        out["gradient.hide.self_ms"] += out.pop("gradient.hide_projected.self_ms")
        out.pop("gradient.hide_projected.calls")
        for det, ms in detector_ms.items():
            out[f"detectors.{det}.self_ms"] = ms
        n_detect = calls.get("detectors.detect", 0)
        out["detectors.detect.overlay_share"] = overlay_calls / n_detect if n_detect else 0.0
        out["gradient.iterations"] = iterations
        out["gradient.restarts"] = restarts
        out["gradient.restart_ratio"] = restarts / iterations if iterations else 0.0
        out["gradient.detections_per_hide"] = detections / hides if hides else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Dump the header, then one JSON list per span:
        [index, name, start_ns, end_ns, parent, self_ns, attrs]."""
        self_ns = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(
                    [i, s.name, s.start_ns, s.end_ns, s.parent, self_ns[i], s.attrs]
                ) + "\n")
