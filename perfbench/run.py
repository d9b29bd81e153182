"""Benchmark of the cmhide package: workloads, output checks, tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kar_grid --seed 1 --seconds 25 --trace 0

With `--trace 0` the run times the package import in fresh interpreters
and the workload's set-up in process, several times each, then repeats
whole passes of the workload's ops for about `--seconds`, and reports the
end-to-end metrics. With
`--trace 1` it alternates an untraced and a traced pass (set-up plus one
pass of ops) for `--seconds` and reports the per-layer metrics of
BENCHMARK.json, plus the tracing overhead. Output checks run on every
outcome outside the timed section. The last line of stdout is the result
object; the line before it carries provenance and the figures that are not
in BENCHMARK.json. `--smoke` shrinks every workload to its smallest size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
JOBS = 1
IMPORT_REPS = 9
MAX_FAILURES_SHOWN = 20

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith((".calls", ".iterations", ".restarts", ".detections_per_hide")):
        return "count"
    return "ratio"


class Ledger:
    """Counts attempted ops and collects every failure with its message.

    Ops are deterministic, so each repeat of an op must reproduce the
    fingerprints of its first run; a mismatch is a failure too.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: dict[tuple, list[str]] = {}
        self._reference: dict[int, list] = {}
        self._runs = 0

    def add(self, op_index: int, res) -> int:
        run_id = self._runs
        self._runs += 1
        self.attempted += len(res.fingerprints)
        ref = self._reference.setdefault(op_index, res.fingerprints)
        if ref is not res.fingerprints:
            if len(ref) != len(res.fingerprints):
                self.fail((run_id, 0), f"op {op_index}: {len(res.fingerprints)} results, "
                                       f"first run gave {len(ref)}")
            for j, (a, b) in enumerate(zip(ref, res.fingerprints)):
                if a != b:
                    self.fail((run_id, j), f"op {op_index}.{j}: result differs from its first run")
        return run_id

    def error(self, op_index: int, exc: BaseException) -> None:
        self.attempted += 1
        self.fail((self._runs, 0), f"op {op_index} raised {type(exc).__name__}: {exc}")
        self._runs += 1

    def fail(self, key: tuple, message: str) -> None:
        self.failures.setdefault(key, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_ops(indexed_ops, ledger: Ledger, tracer=None) -> list:
    """Run (index, op) pairs; ops whose outcomes stay hidden get the tracer's captures."""
    out = []
    for i, op in indexed_ops:
        seen = len(tracer.attacks) if tracer is not None else 0
        try:
            t0 = time.perf_counter()
            if tracer is None:
                res = op()
            else:
                with tracer.span("bench.op", op=i):  # groups the op's spans
                    res = op()
            res.wall_s = time.perf_counter() - t0
        except Exception as exc:  # a failed op is counted, the run goes on
            ledger.error(i, exc)
            continue
        if res.attacks is None and tracer is not None:
            res.attacks = tracer.attacks[seen:]
        out.append((ledger.add(i, res), res))
    return out


def check_all(runs, ledger: Ledger) -> dict[int, list]:
    """Output checks on every captured outcome; returns checked pairs per run."""
    from checks import check_attack

    checked = {}
    for run_id, res in runs:
        if res.attacks is None:
            continue
        if res.verify is not None:
            for msg in res.verify():
                ledger.fail((run_id, 0), msg)
        elif len(res.attacks) != len(res.fingerprints):
            ledger.fail((run_id, 0), f"{len(res.attacks)} outcomes captured for "
                                     f"{len(res.fingerprints)} results")
        pairs = []
        for j, attack in enumerate(res.attacks):
            c = check_attack(attack)
            for msg in c.errors:
                ledger.fail((run_id, j), f"target {attack.target} ({attack.detector.name}): {msg}")
            pairs.append((attack, c))
        checked[run_id] = pairs
    return checked


def quality(wl, state, first_pass, checked) -> dict[str, float]:
    out = {"planted_nmi": wl.planted_nmi(state)}
    pairs = [p for run_id, _ in first_pass for p in checked.get(run_id, [])]
    if pairs:
        success = [
            c.similarity <= a.config.tau and a.outcome.used_budget <= a.config.beta
            for a, c in pairs
        ]
        sr = sum(success) / len(success)
        out["success_rate"] = sr
        out["similarity_mean"] = statistics.fmean(c.similarity for _, c in pairs)
        out["f1_mean"] = wl.f1_mean([res for _, res in first_pass], pairs, sr)
    return out


def measure(wl, seconds: float, ledger: Ledger) -> dict:
    from tracer import Tracer

    setup_times = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = wl.ops(state)
    captured = []
    if wl.hides_outcomes:
        # an untimed pass under the tracer hands out the outcomes to check;
        # later passes are checked by matching its results
        with Tracer().installed() as capture:
            captured = run_ops(enumerate(ops), ledger, capture)
    # whole passes, so every figure covers the same mix of ops; stop at the
    # pass end nearest to `seconds`
    timed = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ran = run_ops(enumerate(ops), ledger)
        if captured or timed:
            # a repeat: the ledger has matched it against the first run,
            # whose outputs the checks cover; keeping its outputs too would
            # make the footprint grow with the number of passes
            for _, res in ran:
                res.attacks = res.verify = res.report = None
                res.fingerprints = []
        timed.extend(ran)
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            break
    first_pass = captured or timed[: len(ops)]
    samples = [ms for _, res in timed for ms in res.samples_ms]
    checked = check_all(captured + timed, ledger)
    values = {
        "samples": len(samples),
        # median over ops of the rate within each op: a burst of load from
        # other tenants of the machine moves a few ops, not the median
        "ops_per_s": statistics.median(len(res.samples_ms) / res.wall_s for _, res in timed),
        "ops_per_s_overall": len(samples) / (now - start),
        "setup_reps_s": setup_times,
    }
    if samples:
        values["op_ms_p50"] = statistics.median(samples)
    if len(samples) > 1:
        values["op_ms_p99"] = statistics.quantiles(samples, n=100, method="inclusive")[98]
    values.update(quality(wl, state, first_pass, checked))
    return values


def measure_traced(wl, seconds: float, ledger: Ledger) -> tuple[dict, object]:
    from tracer import Tracer

    tracer = Tracer()
    per_pair = []
    untraced = traced = 0.0
    first_pass = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_ops(enumerate(wl.ops(wl.setup())), ledger)
        untraced += time.perf_counter() - t0
        mark = len(tracer.spans)
        t1 = time.perf_counter()
        with tracer.installed():
            with tracer.span("bench.setup"):
                state = wl.setup()
            with tracer.span("bench.pass"):
                runs = run_ops(enumerate(wl.ops(state)), ledger, tracer)
        traced += time.perf_counter() - t1
        per_pair.append(tracer.layer_metrics(mark))
        if not first_pass:
            first_pass, first_state = runs, state
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            break
    checked = check_all(first_pass, ledger)
    values = {
        name: statistics.median(pair[name] for pair in per_pair) for name in per_pair[0]
    }
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.pairs"] = len(per_pair)
    values.update(quality(wl, first_state, first_pass, checked))
    return values, tracer


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import cmhide; "
    "print(time.perf_counter() - t0)"
)


def import_seconds(reps: int) -> float:
    """Median time a fresh interpreter takes to import the package.

    The child times itself: the wall time of the whole child process moves
    in 50 ms steps on some virtual machines, as process exit is noticed
    late.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def provenance(wl, args, numpy_version: str) -> dict:
    sha = dirty = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": JOBS,
        "loop": "closed, one caller in one process",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("kar_grid", "sbm_search", "sbm_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size of every workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cmhide" / "__init__.py").is_file():
        print(f"perfbench: no cmhide sources in {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cmhide
    import numpy

    if not Path(cmhide.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cmhide from {cmhide.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    ledger = Ledger()
    detail = {"provenance": provenance(wl, args, numpy.__version__)}
    if args.trace:
        values, tracer = measure_traced(wl, args.seconds, ledger)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, detail["provenance"])
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        values = measure(wl, args.seconds, ledger)
        values["import_s"] = import_seconds(IMPORT_REPS)
        values["setup_s"] = values["import_s"] + statistics.median(values["setup_reps_s"])
        wanted = spec["end_to_end"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ops_failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    detail["values"] = values
    detail["failures"] = [
        msg for msgs in list(ledger.failures.values())[:MAX_FAILURES_SHOWN] for msg in msgs
    ]
    metrics = {}
    for m in wanted:
        name = m["name"]
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit_of(name)}
    result = {
        "correct": ledger.failed == 0 and all(m["name"] in values for m in wanted),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
