"""adamsrr benchmark: one workload per run, timed for a fixed number of seconds.

    python3 bench/run.py --workload chain-grid --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and loads the package from `src/`
without installing it.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  See README.md in
this directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PACKAGE = "adamsrr"
SUBMODULES = ("expr", "splitting", "picard", "chow", "rewrite", "suite", "cli")
SETUP_REPEATS = 5
TRACED_ROUNDS = 1  # a law-corpus round records about 400 000 spans

sys.path.insert(0, str(BENCH))
from speed import Speedometer, kernel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "heaviest_case_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "expr.parse.calls": "count",
    "expr.parse.self_ms": "ms",
    "expr.canonicalize.calls": "count",
    "expr.canonicalize.self_ms": "ms",
    "expr.print_expr.calls": "count",
    "expr.print_expr.self_ms": "ms",
    "expr.rank.self_ms": "ms",
    "splitting.truncated_eval.fallback_pull": "count",
    "splitting.truncated_eval.fallback_theta": "count",
    "splitting.truncated_eval.fallback_psi": "count",
    "splitting.truncated_filtration.calls": "count",
    "splitting.truncated_filtration.self_ms": "ms",
    "splitting.truncated_filtration.terms_in": "count",
    "splitting.truncated_filtration.terms_out": "count",
    "splitting.SplitClass.mul.calls": "count",
    "splitting.SplitClass.mul.self_ms": "ms",
    "splitting.SplitClass.mul.term_pairs": "count",
    "splitting.eval_expr.calls": "count",
    "splitting.eval_expr.self_ms": "ms",
    "splitting.eval_expr.cache_hit_ratio": "ratio",
    "splitting.theta_class.self_ms": "ms",
    "splitting.tau_of_class.self_ms": "ms",
    "splitting.binomial_identity_check.self_ms": "ms",
    "splitting.truncated_eval.calls": "count",
    "splitting.truncated_eval.self_ms": "ms",
    "splitting.truncated_eval.cache_hit_ratio": "ratio",
    "picard.det_rf_atom.calls": "count",
    "picard.det_rf_atom.self_ms": "ms",
    "picard.Morphism.truncated.self_ms": "ms",
    "picard.chi_grade.self_ms": "ms",
    "picard.normalize.calls": "count",
    "picard.normalize.self_ms": "ms",
    "picard.argument_is_trivial.calls": "count",
    "picard.pairing_to_det.self_ms": "ms",
    "picard.GradedLine.render.self_ms": "ms",
    "chow.chern_character.self_ms": "ms",
    "chow.todd.self_ms": "ms",
    "chow.c1_det_rf.calls": "count",
    **{f"rewrite.step{k}_ms": "ms" for k in range(1, 10)},
    "rewrite.verify_arr_identity.total_ms": "ms",
    "rewrite.Geometry.init_ms": "ms",
    "rewrite.verify_base_change.self_ms": "ms",
    "rewrite.knudsen_mumford_expansion.self_ms": "ms",
    "rewrite.emit_trace.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.load_declarations.self_ms": "ms",
    "bench.untraced_ops_per_s": "1/s",
    "bench.traced_ops_per_s": "1/s",
    "bench.trace_overhead_pct": "%",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Package:
    """The adamsrr submodules, imported fresh from `src/`."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for short in SUBMODULES:
            setattr(self, short, importlib.import_module(f"{PACKAGE}.{short}"))
        origin = Path(self.expr.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"{PACKAGE} was loaded from {origin}, not from {SRC}")

    def modules(self) -> dict:
        return {short: getattr(self, short) for short in SUBMODULES}


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, input generation and warm-up, repeated; returns the median time."""
    times, meter = [], Speedometer()
    for _ in range(SETUP_REPEATS):
        meter.samples += [kernel() for _ in range(3)]
        t0 = time.perf_counter()
        workload = workload_cls(Package(), seed, workdir)
        workload.warm()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * meter.scale(), workload


class Pass:
    """Whole rounds of a workload's operations until `seconds` have elapsed.

    With `rounds` given, exactly that many rounds instead.  Operation times
    are wall-clock times multiplied by the speed factor measured around them
    (see speed.py).  Every round holds the same operations, so each one's
    median over the rounds is its time, steady against a slow moment.
    """

    def __init__(self, workload, seconds: float = 0.0, rounds: int | None = None):
        # flat arrays of 8-byte numbers, so that the bookkeeping of a fast run
        # does not show in its peak RSS
        raw, sample_of, positions = array("d"), array("q"), array("q")
        case_of: dict[int, str] = {}  # an operation's place in its round names it
        self.attempted = self.failed = self.rounds = 0
        self.unexpected: list[str] = []
        meter = Speedometer()
        clock = time.perf_counter
        if workload.collect_between_ops:
            # the collection after each operation then walks what the program
            # allocated since, not the modules and inputs set up before
            gc.collect()
            gc.freeze()
        start = clock()
        while True:
            for position, op in enumerate(workload.round()):
                sample_of.append(meter.maybe_sample())
                t0 = clock()
                try:
                    problem = op.run()
                except Exception as ex:  # an escaped error is a failed operation
                    problem = f"{type(ex).__name__}: {str(ex)[:160]}"
                if workload.collect_between_ops:
                    gc.collect()  # frees what the operation left; its cost is the operation's
                raw.append(clock() - t0)
                positions.append(position)
                case_of.setdefault(position, op.case)
                self.attempted += 1
                if problem is not None:
                    self.failed += 1
                    if op.fault is None:
                        self.unexpected.append(f"{op.case}: {problem}")
            self.rounds += 1
            if (self.rounds >= rounds) if rounds else (clock() - start >= seconds):
                break
        gc.unfreeze()
        self.raw_s = sum(raw)
        self.speed_factor = meter.scale()
        scales = meter.local_scales()
        self.times = array("d", (t * scales[i] for t, i in zip(raw, sample_of)))
        by_op: dict[int, array] = {}
        for position, t in zip(positions, self.times):
            by_op.setdefault(position, array("d")).append(t)
        self.op_medians = [statistics.median(t) for t in by_op.values()]
        self.by_case: dict[str, array] = {}
        for position, t in zip(positions, self.times):
            self.by_case.setdefault(case_of[position], array("d")).append(t)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.times)

    @property
    def raw_ops_per_s(self) -> float:
        return self.attempted / self.raw_s


def end_to_end(setup_s: float, run: Pass) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": run.ops_per_s,
        "op_p50_ms": percentile(run.op_medians, 50) * 1e3,
        "op_p90_ms": percentile(run.op_medians, 90) * 1e3,
        "heaviest_case_s": max(statistics.median(t) for t in run.by_case.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, seconds: float, stem: str) -> tuple[Pass, dict[str, float]]:
    """An untraced pass, then a traced one of a few rounds; layer figures are per round."""
    plain = Pass(workload, seconds)
    tracer = Tracer(workload.pkg.modules())
    tracer.install()
    try:
        traced = Pass(workload, rounds=TRACED_ROUNDS)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / f"{stem}-spans.tsv")
    layers = tracer.layer_metrics(traced.rounds)
    for name in layers:  # stated at nominal machine speed, like the end-to-end times
        if name.endswith("_ms"):
            layers[name] *= traced.speed_factor
    # speed-scaled rates, so that drift between the two passes does not count
    layers["bench.untraced_ops_per_s"] = plain.ops_per_s
    layers["bench.traced_ops_per_s"] = traced.ops_per_s
    layers["bench.trace_overhead_pct"] = 100 * (1 - traced.ops_per_s / plain.ops_per_s)
    traced.unexpected += plain.unexpected
    return traced, {name: layers.get(name, 0.0) for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, workload = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            run, metrics = per_layer(workload, args.seconds, stem)
            units = PER_LAYER
        else:
            run = Pass(workload, args.seconds)
            metrics, units = end_to_end(setup_s, run), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.unexpected[:10]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=run.rounds,
                  speed_factor=run.speed_factor, raw_ops_per_s=run.raw_ops_per_s,
                  case_median_s={case: statistics.median(t)
                                 for case, t in sorted(run.by_case.items())})
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
