"""Regenerate perfbench/oracle_expected.json, the frozen table of exact values
that the oracle commands of the genus-oracle workload check their outputs
against.

    python3 perfbench/freeze_oracle.py

Run it only when the pool definition in workloads.py changes.  The table pins
each instance by the SHA-256 of its DIMACS text, so a changed generator shows
up as a failed check instead of silently new expectations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import injcolor as pkg  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_ORACLE,
    ORACLE_POOL,
    digest,
    dimacs,
    pool_instance,
    sweep_graphs,
)


def closed_form(name: str) -> int:
    """Injective chromatic index of a path or cycle (Cardoso et al., Filomat 2019)."""
    family, n = name.split("-")
    n = int(n)
    if family == "path":
        return 1 if n <= 3 else 2
    return 2 if n % 4 == 0 else 3


def main() -> int:
    pool = []
    for i in range(ORACLE_POOL):
        G, D = pool_instance(pkg, i)
        budget = pkg.OracleBudget(max_vertices=G.n, max_edges=G.m)
        pool.append({
            "i": i, "n": G.n, "m": G.m,
            "edge_sha": digest(dimacs(G)), "arc_sha": digest(dimacs(D)),
            "inj": pkg.exact_injective_index(G, budget),
            "chromatic": pkg.exact_chromatic_number(G, budget),
            "oriented": pkg.exact_oriented_number(D, budget),
            "2dipath": pkg.exact_2dipath_number(D, budget),
        })
    sweep = {}
    for name, G in sweep_graphs(pkg):
        sweep[name] = pkg.exact_injective_index(G, pkg.OracleBudget(G.n, G.m, 60.0))
        if sweep[name] != closed_form(name):
            print(f"{name}: oracle {sweep[name]} != closed form {closed_form(name)}",
                  file=sys.stderr)
            return 1
    EXPECTED_ORACLE.write_text(json.dumps({"pool": pool, "sweep": sweep}, indent=1) + "\n")
    print(f"wrote {EXPECTED_ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
