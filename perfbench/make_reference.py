"""Rebuild perfbench/reference.json from the library at the current commit.

    python3 perfbench/make_reference.py

The file fixes what the workloads draw from and what their outputs must be:
the stream workload's graph pools (seeded G(n, p) graphs and complements of
square-free graphs) and family members, each with the hits a one-line scan
reports; the kept hits of the exhaustive search, as exact canonical forms;
and the two R_k instances with their counts. Run it only to move the
reference on purpose; a run of the benchmark never rewrites it.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    bits,
    brute_canonical,
    complement,
    decode_graph6,
    encode_graph6,
    wl_invariant,
)
from frozencol import families  # noqa: E402
from frozencol.graph import complement as graph_complement  # noqa: E402
from frozencol.graph import cycle_graph  # noqa: E402
from frozencol.reconfig import reconfiguration_components  # noqa: E402
from frozencol.search import PredicateSpec, exhaustive_small, scan_stream  # noqa: E402

POOL_SEED = "perfbench-pool-1"
GNP_POOL = 1000
SQF_POOL = 400
STREAM_SPEC = PredicateSpec(max_k=12, two_k2_free="graph")
MEMBERS = [("ME", families.me_complement, range(2, 6)),
           ("ME*", families.me_star_complement, range(2, 6)),
           ("KM", families.km_complement, range(2, 6)),
           ("CHAIN", families.chain_complement, range(5, 11))]  # CHAIN4 is ME2


def gnp(rng: random.Random) -> str:
    n = rng.randint(9, 12)
    p = rng.random()
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return encode_graph6(n, rows)


def square_free_complement(rng: random.Random) -> str:
    """Complement of a random maximal-ish square-free graph on 9..14 vertices."""
    n = rng.randint(9, 14)
    keep = rng.uniform(0.5, 1.0)
    rows = [0] * n
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() > keep:
            continue
        # uv closes a 4-cycle iff u and v already share a neighbour pair
        # path u-a-b-v, or have two common neighbours
        if (rows[u] & rows[v]).bit_count() >= 2:
            continue
        if any(rows[a] & rows[v] & ~(1 << u) for a in bits(rows[u] & ~(1 << v))):
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return encode_graph6(n, complement(n, rows))


def hits_of(g6: str) -> list[list[int]]:
    report = scan_stream([g6], STREAM_SPEC)
    return sorted([h.chi, h.k] for h in report.hits)


def main() -> None:
    rng = random.Random(POOL_SEED)
    ref: dict = {"generator": POOL_SEED}

    spec = PredicateSpec()
    report = exhaustive_small(6, spec)
    ref["exhaustive"] = {
        "args": ["search", "--exhaustive", "6"],
        "hits": sorted(
            [brute_canonical(*decode_graph6(h.graph6)), h.chi, h.k] for h in report.hits),
        "graphs_scanned": report.graphs_scanned,
        "dedup_count": report.dedup_count,
    }

    fingerprints: dict[str, str] = {}
    members = {}
    for family, build, params in MEMBERS:
        for q in params:
            g = graph_complement(build(q).graph)
            g6 = encode_graph6(g.n, list(g.rows))
            fp = wl_invariant(g.n, list(g.rows))
            name = f"{family}{q}"
            assert fp not in fingerprints, f"{name} fingerprint collides"
            fingerprints[fp] = name
            members[name] = {"g6": g6, "hits": hits_of(g6), "fingerprint": fp}

    def pool(make, size):
        out = []
        while len(out) < size:
            g6 = make(rng)
            entry = {"g6": g6, "hits": hits_of(g6)}
            if entry["hits"]:
                fp = wl_invariant(*decode_graph6(g6))
                if fp in fingerprints:
                    continue  # keep hit sources pairwise non-isomorphic
                fingerprints[fp] = g6
                entry["fingerprint"] = fp
            out.append(entry)
        return out

    ref["stream"] = {"spec": STREAM_SPEC.to_json(), "members": members,
                     "gnp": pool(gnp, GNP_POOL), "sqf": pool(square_free_complement, SQF_POOL)}

    # Instances small enough for many calls per run: one call on C12 (k=4)
    # or on complement(KM q=3) (k=7) holds a dict of 200k-500k states, and
    # its time swings by a quarter with the load on a shared machine.
    sparse = cycle_graph(10)
    dense = graph_complement(families.chain_complement(5).graph)
    for name, g, k in (("reconfig_sparse", sparse, 4), ("reconfig_dense", dense, 6)):
        r = reconfiguration_components(g, k)
        ref[name] = {"g6": encode_graph6(g.n, list(g.rows)), "k": k,
                     "states": r.colouring_count, "components": r.component_count,
                     "frozen": len(r.frozen_colourings)}
    # closed form for proper k-colourings of a cycle
    assert ref["reconfig_sparse"]["states"] == 3 ** 10 + 3

    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    hitting = sum(1 for p in ("gnp", "sqf") for e in ref["stream"][p] if e["hits"])
    print(f"wrote reference.json: {hitting} pool graphs with hits")


if __name__ == "__main__":
    main()
