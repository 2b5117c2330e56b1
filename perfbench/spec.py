"""Names, units and bounds of every benchmark metric, and the workload list.

BENCHMARK.json at the repository root is generated from this module:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 50

WORKLOADS = {
    "degenerate": "Random 3-degenerate graphs, n=2000/4000/8000, through inj-degenerate, "
                  "oriented-from-inj and verify (valid and planted): randomized arc coloring, "
                  "shade graphs, quadratic verifier.",
    "genus-oracle": "g=4 inj/oriented/2dipath on a 64x64 grid (70% edges) and a 2-degenerate "
                    "n=4000 graph, gen n=2000; exact on 14 frozen n=24-30 graphs; path/cycle "
                    "n<=1000 (cycle 12000 times out).",
}

# (name, unit, better, bound): untraced metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("colors_total", "colors", "lower", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

# CLI command -> metric holding the summed time of its calls in one pass.
COMMAND_METRICS = {
    "inj-degenerate": "inj_degenerate_s",
    "oriented-from-inj": "oriented_from_inj_s",
    "verify": "verify_s",
    "inj-genus": "inj_genus_s",
    "oriented-genus": "oriented_genus_s",
    "oriented-2dipath": "oriented_2dipath_s",
    "gen": "gen_s",
    "exact": "exact_s",
}

# Public functions that get a span in the traced run, by defining module.
SPANNED = {
    "graphs": ("degeneracy_order", "greedy_color", "is_induced_star_forest"),
    "injective": ("verify_injective", "color_arcs_randomized", "injective_color_degenerate",
                  "color_arcs_deterministic"),
    "hypergraphs": ("neighborhood_hypergraph", "peel_color_clique_graph"),
    "separating": ("build_separating_family", "verify_separating_family"),
    "oriented": ("oriented_from_injective", "verify_oriented_coloring", "add_unique_colors",
                 "build_full_graph", "verify_full", "greedy_2dipath", "homomorphism_to_full",
                 "verify_2dipath"),
    "genus": ("injective_color_genus", "oriented_color_genus",
              "oriented_color_genus_via_2dipath"),
    "oracles": ("exact_injective_coloring", "exact_oriented_coloring",
                "exact_chromatic_coloring", "exact_2dipath_number"),
    "dimacs": ("parse_graph", "emit_graph", "coloring_to_obj", "coloring_from_obj"),
    "cli": ("run_command",),
    "generators": ("random_degenerate_graph", "random_orientation", "random_genus_lowerbound"),
}

# Called millions of times per pass by the quadratic verifier, so these are
# counted instead of getting a span each.
COUNTED = {"graphs": ("edges_conflict",)}

# (ratio metric, build function, verify function called once per attempt)
ATTEMPT_RATIOS = [
    ("separating.attempts_per_build", "separating.build_separating_family",
     "separating.verify_separating_family"),
    ("oriented.full_graph.attempts_per_build", "oriented.build_full_graph",
     "oriented.verify_full"),
]

# Values of report.stats.route in oriented-2dipath output.
ROUTES = ("edgeless", "exact_oracle", "certified_full_graph", "uncertified_full_graph")

# Layers whose inclusive time is fitted against the instance's edge count.
SCALING = ("injective.verify_injective", "injective.color_arcs_randomized",
           "injective.injective_color_degenerate", "oriented.oriented_from_injective",
           "graphs.degeneracy_order", "dimacs.parse_graph", "oracles.exact_injective_coloring")

ORACLES = tuple(f"oracles.{name}" for name in SPANNED["oracles"])


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    metrics = [(name, "s", "lower") for name in COMMAND_METRICS.values()]
    metrics.append(("fail_ratio", "ratio", "lower"))
    for module, names in SPANNED.items():
        for name in names:
            metrics.append((f"{module}.{name}.calls", "count", "lower"))
            metrics.append((f"{module}.{name}.self_s", "s", "lower"))
    for module, names in COUNTED.items():
        metrics.extend((f"{module}.{name}.calls", "count", "lower") for name in names)
    metrics.extend((ratio, "ratio", "lower") for ratio, _, _ in ATTEMPT_RATIOS)
    metrics.extend((f"genus.route.{route}.count", "count", "lower") for route in ROUTES)
    metrics.append(("oracles.timeout_headroom", "ratio", "higher"))
    metrics.extend((f"{layer}.scaling_exp", "exponent", "lower") for layer in SCALING)
    metrics.append(("trace.overhead_s", "s", "lower"))
    return metrics


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
