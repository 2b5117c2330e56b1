"""Run one injcolor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload degenerate --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a source checkout; it imports injcolor from the
checkout's src/.  The workload's commands go through injcolor.cli.run_command
in a closed loop, one at a time, as DIMACS or JSON text in and rendered
stdout out.  Every output is checked.  Passes over the full command list
repeat until --seconds is used up, with at least two so that every stdout
can be compared between passes.  Each metric is printed as "name value unit";
the last line is a JSON summary.  --trace 0 reports the end-to-end metrics;
--trace 1 runs untraced and then traced passes and reports the per-layer
metrics.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # keep numpy single-threaded

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402
from tracing import Tracer, layer_metrics, scaling_exponent  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-run"  # fixtures while running, span files after
SETUP_REPEATS = 5   # at least this many set-ups, and
SETUP_MIN_S = 2.0   # at least this long in total, for the median
MIN_PASSES = 2      # the determinism check compares passes
LATEST_END_S = 110  # no pass starts that would end later, so a run ends well within 180 s
MAX_PROBLEMS_SHOWN = 20


class Run:
    """Expected stdout hashes, check memo and failure counts of one run."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.hashes: dict[str, str] = {}
        self.memo: dict = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, pkg, commands, tracer: Tracer | None = None) -> dict:
        """One pass over the commands; returns its measurements."""
        result = {"wall_s": 0.0, "colors_total": 0, "routes": {}, "roots": {}}
        for cmd in commands:
            if tracer is not None:
                result["roots"][len(tracer.spans)] = (cmd.m, cmd.sweep)
            start = time.perf_counter()
            code, out = pkg.cli.run_command(cmd.argv, lambda text=cmd.stdin: text)
            elapsed = time.perf_counter() - start
            metric = spec.COMMAND_METRICS[cmd.name]
            result[metric] = result.get(metric, 0.0) + elapsed
            result["wall_s"] += elapsed
            with tracer.paused() if tracer is not None else nullcontext():
                problems, obj = self.check(cmd, code, out)
            self.attempted += 1
            if problems:
                self.failed += 1
                if self.failed <= MAX_PROBLEMS_SHOWN:
                    print(f"FAIL {cmd.label}: {'; '.join(problems)}", file=sys.stderr)
            if isinstance(obj, dict) and isinstance(obj.get("colors"), int):
                result["colors_total"] += obj["colors"]
            if cmd.name == "oriented-2dipath" and isinstance(obj, dict):
                route = obj.get("report", {}).get("stats", {}).get("route")
                result["routes"][route] = result["routes"].get(route, 0) + 1
        return result

    def check(self, cmd, code: int, out: str) -> tuple[list, object]:
        problems = []
        stdout_hash = digest(out)
        if self.hashes.setdefault(cmd.label, stdout_hash) != stdout_hash:
            problems.append("stdout differs from the first pass")
        try:
            obj = json.loads(out) if out.startswith("{") else None
        except ValueError:
            return problems + ["stdout starts like JSON but does not parse"], None
        if code != cmd.expect_code:
            detail = obj.get("error", "") if isinstance(obj, dict) else ""
            return problems + [f"exit {code}, expected {cmd.expect_code} {detail}"], obj
        subject = out if obj is None else obj
        try:
            if isinstance(obj, dict):
                if "valid" in obj and obj["valid"] is not (cmd.expect_code == 0):
                    problems.append(f"valid is {obj['valid']}")
                report = obj.get("report", {})
                checks = report.get("checks", {}) if isinstance(report, dict) else {}
                problems += [f"report check {k} is false" for k, v in checks.items() if not v]
            for check in cmd.checks:
                problems += check(subject)
            if cmd.after is not None:
                problems += cmd.after(subject)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems, obj


def set_up(workload: str, seed: int, work: Path, memo: dict):
    """Import injcolor afresh and build the workload; returns (seconds, package, commands)."""
    for name in [n for n in sys.modules if n == "injcolor" or n.startswith("injcolor.")]:
        del sys.modules[name]
    start = time.perf_counter()
    pkg = importlib.import_module("injcolor")
    importlib.import_module("injcolor.cli")
    commands = WORKLOADS[workload](pkg, seed, work, memo)
    return time.perf_counter() - start, pkg, commands


def run_passes(run: Run, pkg, budget_s: float, min_passes: int, commands=None,
               rebuild=None, tracer: Tracer | None = None) -> list:
    """Whole passes until the next one would end past budget_s, at least
    min_passes.  rebuild, when given, makes each pass's commands (so a traced
    pass includes instance generation)."""
    results = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        first_span = len(tracer.spans) if tracer is not None else 0
        if rebuild is not None:
            commands = rebuild()
        result = run.execute(pkg, commands, tracer)
        if tracer is not None:
            result["spans"] = first_span, len(tracer.spans)
            result["counts"] = dict(tracer.counts)
            tracer.counts.clear()
        results.append(result)
        now = time.perf_counter()
        duration = now - pass_start
        if len(results) >= min_passes and now - start + duration > budget_s:
            return results
        if now - run.started + duration > LATEST_END_S:
            return results


def median_of(results: list, key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in results)


def end_to_end(run: Run, args, work: Path) -> dict:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        seconds, pkg, commands = set_up(args.workload, args.seed, work, run.memo)
        setup_times.append(seconds)
    gc.collect()  # leave no garbage from earlier set-ups to the timed passes
    results = run_passes(run, pkg, args.seconds, MIN_PASSES, commands=commands)
    for metric in spec.COMMAND_METRICS.values():
        if metric in results[0]:
            print(f"{metric} {median_of(results, metric)!r} s")
    print(f"passes {len(results)} count")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_of(results, "wall_s"),
        "colors_total": median_of(results, "colors_total"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, args, work: Path) -> dict:
    _, pkg, commands = set_up(args.workload, args.seed, work, run.memo)
    untraced = run_passes(run, pkg, args.seconds / 2, 1, commands=commands)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(
            run, pkg, args.seconds - (time.perf_counter() - run.started), 1,
            rebuild=lambda: WORKLOADS[args.workload](pkg, args.seed, work, run.memo),
            tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    timeout = pkg.OracleBudget().timeout
    layers, inclusive = [], []
    for result in traced:
        metrics, incl = layer_metrics(tracer.spans, *result["spans"], result["roots"], timeout)
        layers.append(metrics)
        inclusive.append(incl)

    values = {metric: median_of(untraced, metric) for metric in spec.COMMAND_METRICS.values()}
    values["fail_ratio"] = run.failed / run.attempted
    for key in layers[0]:
        values[key] = statistics.median(layer[key] for layer in layers)
    for module, names in spec.COUNTED.items():
        for name in names:
            values[f"{module}.{name}.calls"] = statistics.median(
                r["counts"].get(f"{module}.{name}", 0) for r in traced)
    for route in spec.ROUTES:
        values[f"genus.route.{route}.count"] = statistics.median(
            r["routes"].get(route, 0) for r in traced)
    for layer in spec.SCALING:
        sizes = sorted({m for incl in inclusive for name, m in incl if name == layer})
        points = [(m, statistics.median(incl.get((layer, m), 0.0) for incl in inclusive))
                  for m in sizes]
        values[f"{layer}.scaling_exp"] = scaling_exponent(points)
    values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(tracer.spans)} spans")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "injcolor" / "__init__.py").is_file():
        print(f"perfbench: no injcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  imported once so that each set-up pays only for injcolor

    OUT_DIR.mkdir(exist_ok=True)
    run = Run()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            values = per_layer(run, args, Path(tmp))
            units = {name: unit for name, unit, _ in spec.per_layer()}
        else:
            values = end_to_end(run, args, Path(tmp))
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted} commands)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
