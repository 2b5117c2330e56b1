"""Seeded workloads: instances, the CLI commands of one pass, and output checks.

Each workload function takes the freshly imported ``injcolor`` package, the
run seed, a work directory and the run's check memo.  It generates the
instances with the library's generators, writes them as DIMACS text (the
program only ever sees that text), and returns the commands of one pass in
the order they run.  Every command
carries the checks its output must pass; a failed check counts the command
as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED_ORACLE = HERE / "oracle_expected.json"

GENUS = "4"
DEGENERATE_SIZES = (2000, 4000, 8000)
SWEEP_SIZES = (250, 500, 1000)
ORACLE_POOL = 14

# check(output) -> list of problems; output is the parsed JSON or, for
# commands that print DIMACS, the raw text.
Check = Callable[[object], list]


@dataclass
class Command:
    label: str                 # unique within a pass; keys the determinism check
    argv: list
    stdin: str = ""
    expect_code: int = 0
    m: int = 0                 # edges of the input instance
    sweep: bool = False        # a point of the scaling fits
    checks: tuple = ()
    after: Check | None = None  # consumes the output before the next command runs

    @property
    def name(self) -> str:
        return self.argv[0]


def dimacs(graph) -> str:
    """The DIMACS text the CLI reads, written without the library's emitter."""
    if hasattr(graph, "arcs"):
        kind, tag, pairs = "arc", "a", graph.arcs()
    else:
        kind, tag, pairs = "edge", "e", graph.edges()
    body = "".join(f"{tag} {u + 1} {v + 1}\n" for u, v in pairs)
    return f"p {kind} {graph.n} {len(pairs)}\n{body}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def degenerate_color_bound(d: int, max_degree: int) -> int:
    """ceil(4e d ln D)(2d+1)(d+1), the count injective_color_degenerate guarantees."""
    return math.ceil(4 * math.e * d * math.log(max_degree)) * (2 * d + 1) * (d + 1)


def colors_at_most(bound: int) -> Check:
    return lambda out: [] if out["colors"] <= bound else [f"{out['colors']} colors > {bound}"]


def colors_equal(expected: int) -> Check:
    return lambda out: [] if out["colors"] == expected else [
        f"{out['colors']} colors, frozen table says {expected}"]


def _seeds(rng: random.Random) -> int:
    return rng.randrange(2**31)


# --- degenerate ---------------------------------------------------------------

def plant_conflict(G, assign: list, rng: random.Random) -> tuple[list, str]:
    """Copy of a 1-indexed edge assignment with edge e recolored to the color of
    an edge f that a third edge g joins to it.  The entries of that color move
    to the end of the list, so a verifier that stops early or checks only a
    prefix misses the conflict.  Returns the copy and a problem string, empty
    when the construction holds."""
    color = {(u, v): c for u, v, c in assign}
    u, v = rng.choice(sorted(color))
    w = rng.choice(sorted(x + 1 for x in G.neighbors(v - 1) if x != u - 1))   # g = vw
    x = rng.choice(sorted(y + 1 for y in G.neighbors(w - 1) if y != v - 1))   # f = wx
    e, g, f = (u, v), tuple(sorted((v, w))), tuple(sorted((w, x)))
    if len({e, g, f}) != 3 or not all(p in color for p in (e, g, f)):
        return assign, f"could not plant a conflict at {e}, {g}, {f}"
    color[e] = color[f]
    planted = [[a, b, c] for (a, b), c in color.items()]
    planted.sort(key=lambda entry: entry[2] == color[f])  # stable: edge order otherwise kept
    return planted, ""


def degenerate(pkg, seed: int, work: Path, memo: dict) -> list:
    rng = random.Random(seed)
    commands = []
    for n in DEGENERATE_SIZES:
        G = pkg.random_degenerate_graph(n, 3, _seeds(rng))
        D = pkg.random_orientation(G, _seeds(rng))
        plant_seed = _seeds(rng)
        graph_file = work / f"deg{n}.gr"
        graph_file.write_text(dimacs(G))
        coloring_file = work / f"deg{n}.coloring.json"
        planted_file = work / f"deg{n}.planted.json"
        # Every vertex has degree >= 3 and at most 3 earlier neighbors, so d = 3.
        bound = degenerate_color_bound(3, G.max_degree)

        def keep_coloring(out, G=G, n=n, coloring_file=coloring_file,
                          planted_file=planted_file, plant_seed=plant_seed):
            obj = out["coloring"]
            memo["k", n] = obj["k"]
            coloring_file.write_text(json.dumps(obj))
            planted, problem = plant_conflict(G, obj["assign"], random.Random(plant_seed))
            planted_text = json.dumps(dict(obj, assign=planted))
            planted_file.write_text(planted_text)
            key = "planted", digest(planted_text)
            if key not in memo:
                # The library verifier must reject the plant too, so that exit 2
                # from the CLI shows detection and not an early return.
                coloring = pkg.EdgeColoring({(a - 1, b - 1): c for a, b, c in planted})
                if not problem and pkg.verify_injective(G, coloring):
                    problem = "the library verifier accepts the planted coloring"
                memo[key] = [problem] if problem else []
            return memo[key]

        def within_4_pow_k(out, n=n):
            k = memo.get(("k", n))
            if k is None or out["report"].get("injective_colors") != k:
                return [f"injective_colors {out['report'].get('injective_colors')} != {k}"]
            return [] if out["colors"] <= 4**k else [f"{out['colors']} colors > 4^{k}"]

        text, arcs = dimacs(G), dimacs(D)
        commands += [
            Command(f"deg{n}/inj-degenerate", ["inj-degenerate", "--seed", str(_seeds(rng))],
                    text, m=G.m, sweep=True, checks=(colors_at_most(bound),),
                    after=keep_coloring),
            Command(f"deg{n}/oriented-from-inj",
                    ["oriented-from-inj", "--coloring", str(coloring_file)], arcs,
                    m=G.m, sweep=True, checks=(within_4_pow_k,)),
            Command(f"deg{n}/verify-valid",
                    ["verify", "--kind", "inj", str(coloring_file), str(graph_file)],
                    m=G.m, sweep=True),
            Command(f"deg{n}/verify-planted",
                    ["verify", "--kind", "inj", str(planted_file), str(graph_file)],
                    expect_code=2, m=G.m, sweep=True),
        ]
    return commands


# --- genus --------------------------------------------------------------------

def gen_edge_count(text: str) -> list:
    """The header's edge count lies within 4 sigma of its binomial mean and
    matches the problem line."""
    header, problem_line = text.split("\n", 2)[:2]
    fields = dict(f.split("=", 1) for f in header.split()[2:])
    n, edges, p = int(fields["n"]), int(fields["edges"]), float(fields["p"])
    pairs = n * (n - 1) / 2
    mean, sigma = p * pairs, math.sqrt(pairs * p * (1 - p))
    problems = []
    if abs(edges - mean) > 4 * sigma:
        problems.append(f"{edges} edges, {(edges - mean) / sigma:+.1f} sigma from {mean:.0f}")
    if problem_line.split()[-1] != str(edges):
        problems.append(f"problem line {problem_line!r} disagrees with edges={edges}")
    return problems


def genus(pkg, seed: int, work: Path, memo: dict) -> list:
    rng = random.Random(seed)
    grid = pkg.grid_graph(64, 64)
    keep = random.Random(_seeds(rng))
    planar = pkg.UndirectedGraph(grid.n, [e for e in grid.edges() if keep.random() < 0.7])
    sparse = pkg.random_degenerate_graph(4000, 2, _seeds(rng))
    commands = []
    for tag, G in (("grid", planar), ("deg2", sparse)):
        D = pkg.random_orientation(G, _seeds(rng))
        text, arcs = dimacs(G), dimacs(D)
        for command, stdin in (("inj-genus", text), ("oriented-genus", arcs),
                               ("oriented-2dipath", arcs)):
            commands.append(Command(f"{tag}/{command}",
                                    [command, "--g", GENUS, "--seed", str(_seeds(rng))],
                                    stdin, m=G.m))
    commands.append(Command("gen", ["gen", "--family", "random-genus-lb", "--n", "2000",
                                    "--seed", str(_seeds(rng))], checks=(gen_edge_count,)))
    return commands


# --- oracle -------------------------------------------------------------------

def pool_instance(pkg, i: int):
    """Instance i of the frozen oracle pool: a 3-degenerate graph on 24-30
    vertices and a random orientation of it."""
    G = pkg.random_degenerate_graph(24 + i % 7, 3, 1000 + i)
    return G, pkg.random_orientation(G, 2000 + i)


def sweep_graphs(pkg):
    for n in SWEEP_SIZES:
        for family in ("path", "cycle"):
            yield f"{family}-{n}", getattr(pkg, family)(n)


def oracle(pkg, seed: int, work: Path, memo: dict) -> list:
    table = json.loads(EXPECTED_ORACLE.read_text())
    rng = random.Random(seed)
    order = list(range(ORACLE_POOL))
    rng.shuffle(order)
    commands = []
    for i in order:
        G, D = pool_instance(pkg, i)
        entry = table["pool"][i]
        budget = ["--budget-n", str(G.n), "--budget-m", str(G.m)]
        text, arcs = dimacs(G), dimacs(D)
        for param, stdin, sha in (("inj", text, entry["edge_sha"]),
                                  ("chromatic", text, entry["edge_sha"]),
                                  ("oriented", arcs, entry["arc_sha"]),
                                  ("2dipath", arcs, entry["arc_sha"])):
            def frozen(out, want=entry[param], same_input=digest(stdin) == sha):
                if not same_input:
                    return ["input differs from the frozen table's instance"]
                return [] if out["value"] == want else [f"value {out['value']} != {want}"]

            commands.append(Command(f"pool{i}/exact-{param}",
                                    ["exact", "--param", param, *budget], stdin,
                                    m=G.m, checks=(frozen,)))
    run_seed = str(_seeds(rng))
    for name, G in sweep_graphs(pkg):
        d = 1 if name.startswith("path") else 2
        commands.append(Command(f"{name}/inj-degenerate", ["inj-degenerate", "--seed", run_seed],
                                dimacs(G), m=G.m, sweep=True,
                                checks=(colors_at_most(degenerate_color_bound(d, 2)),
                                        colors_equal(table["sweep"][name]))))
    return commands


def genus_oracle(pkg, seed: int, work: Path, memo: dict) -> list:
    """The genus commands, then the oracle commands, in one pass.  They share
    a workload so that each run times about twice as much work: on a shared
    host the genus commands alone spread too much from run to run."""
    return genus(pkg, seed, work, memo) + oracle(pkg, seed, work, memo)


WORKLOADS = {"degenerate": degenerate, "genus-oracle": genus_oracle}
