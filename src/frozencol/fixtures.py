"""Reference drawings and parameter tables as regenerable JSON fixtures.

Each drawing fixture is one panel of a worked example: a graph presented in
its published circular or grid layout, together with the depicted partition,
numbered exactly as in the source illustration (block c holds the vertices
labelled c+1). Left panels carry a minimum clique partition, right panels a
frozen clique partition. The parameter tables hold the expected invariants
of the four graph families over their tabulated range.
"""

from __future__ import annotations

import json
from pathlib import Path

from .families import ke_complement, km_complement, me_complement
from .graph import Graph, complement, encode_graph6, graph_from_edges
from .partitions import BlockPartition


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


# name -> (n, edges, left panel labels, right panel labels); vertex i is the
# i-th node of the drawing, labels are the printed clique numbers 1..k
_FIGURES: dict[str, tuple[int, list[tuple[int, int]], list[int], list[int]]] = {
    "me2": (
        10,
        _cycle_edges(10) + [(0, 2), (1, 7), (3, 5), (4, 8)],
        [2, 2, 2, 1, 1, 1, 4, 4, 3, 3],
        [4, 2, 3, 3, 1, 5, 5, 2, 1, 4],
    ),
    "me3": (
        14,
        _cycle_edges(14) + [(0, 9), (1, 13), (2, 4), (3, 10), (5, 7), (6, 11)],
        [3, 3, 2, 2, 2, 1, 1, 1, 6, 5, 5, 4, 4, 3],
        [3, 5, 5, 2, 4, 4, 1, 7, 7, 3, 2, 1, 6, 6],
    ),
    "km2": (
        10,
        _path_edges(10) + [(0, 6), (2, 4), (3, 9), (5, 7)],
        [3, 3, 2, 2, 2, 1, 1, 1, 4, 4],
        [1, 4, 4, 2, 3, 3, 1, 5, 5, 2],
    ),
    "km3": (
        14,
        _path_edges(13) + [(0, 9), (2, 4), (3, 12), (8, 10), (5, 7), (6, 13)],
        [4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 6, 6, 5],
        [1, 6, 6, 3, 5, 5, 2, 4, 4, 1, 7, 7, 3, 2],
    ),
    "ke2": (
        12,
        _cycle_edges(12) + [(0, 6), (1, 11), (2, 4), (3, 9), (5, 7), (8, 10)],
        [3, 3, 2, 2, 2, 1, 1, 1, 4, 4, 4, 3],
        [1, 4, 4, 2, 3, 3, 1, 6, 6, 2, 5, 5],
    ),
    "ke3": (
        18,
        _cycle_edges(18)
        + [(0, 9), (1, 17), (2, 4), (3, 12), (5, 7), (6, 15), (8, 10), (11, 13), (14, 16)],
        [4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1, 6, 6, 6, 5, 5, 5, 4],
        [1, 6, 6, 3, 5, 5, 2, 4, 4, 1, 9, 9, 3, 8, 8, 2, 7, 7],
    ),
    "chain5": (
        12,
        _cycle_edges(12) + [(0, 2), (1, 7), (3, 5), (4, 10)],
        [2, 2, 2, 1, 1, 1, 5, 5, 4, 4, 3, 3],
        [4, 2, 3, 3, 1, 6, 6, 2, 5, 5, 1, 4],
    ),
    "chain7": (
        16,
        _cycle_edges(16) + [(0, 2), (1, 7), (3, 5), (4, 14)],
        [2, 2, 2, 1, 1, 1, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3],
        [4, 2, 3, 3, 1, 8, 8, 2, 7, 7, 6, 6, 5, 5, 1, 4],
    ),
    "h3": (
        10,
        [(0, 1), (0, 2), (0, 6), (1, 2), (1, 8), (2, 4), (3, 4), (3, 5), (3, 7),
         (4, 5), (5, 9), (6, 7), (8, 9)],
        [1, 1, 1, 2, 2, 2, 3, 3, 4, 4],
        [1, 2, 3, 4, 3, 5, 1, 4, 2, 5],
    ),
    "h4": (
        14,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 13), (2, 3), (2, 5),
         (3, 6), (4, 7), (5, 8), (6, 9), (7, 12), (8, 10), (9, 11), (10, 11),
         (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)],
        [1, 1, 1, 1, 3, 4, 5, 3, 4, 5, 2, 2, 2, 2],
        [1, 4, 2, 3, 1, 2, 3, 5, 6, 7, 6, 7, 5, 4],
    ),
    # an open 15-vertex arc 4-3-2-1-0-15-14-13-12-11-10-9-8-7-6 with six chords;
    # vertex 5 hangs off chord (5,12) only
    "subdiv16": (
        16,
        [(0, 1), (0, 2), (0, 15), (1, 2), (1, 6), (2, 3), (3, 4), (4, 9), (5, 12),
         (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (10, 11), (11, 12), (11, 13),
         (12, 13), (13, 14), (14, 15)],
        [3, 3, 3, 7, 7, 6, 1, 1, 4, 4, 4, 2, 2, 2, 5, 5],
        [5, 3, 8, 8, 6, 7, 3, 1, 1, 6, 4, 4, 7, 2, 2, 5],
    ),
}

FIGURE_NAMES = tuple(_FIGURES)
PANELS = ("left", "right")


def figure_graph(name: str) -> Graph:
    """The drawn graph of a named figure."""
    n, edges, _, _ = _FIGURES[name]
    return graph_from_edges(n, edges)


def figure_partition(name: str, panel: str) -> BlockPartition:
    """The depicted partition of one panel, blocks in printed number order."""
    n, _, left, right = _FIGURES[name]
    labels = {"left": left, "right": right}[panel]
    blocks: list[list[int]] = [[] for _ in range(max(labels))]
    for v, c in enumerate(labels):
        blocks[c - 1].append(v)
    return BlockPartition(blocks)


def figure_panel_payload(name: str, panel: str) -> dict:
    """JSON payload for one figure panel: the graph plus its partition."""
    g = figure_graph(name)
    part = figure_partition(name, panel)
    return {
        "name": name,
        "panel": panel,
        "kind": "clique-partition" if panel == "left" else "frozen-clique-partition",
        "n": g.n,
        "graph6": encode_graph6(g),
        "edges": [[u, v] for u, v in g.edges()],
        "k": part.k,
        "blocks": [sorted(b) for b in part.blocks],
        "colours": part.to_colour_line(),
    }


# table -> (builder, parameter range, whether rows describe the complement of
# the built graph, name of the tabulated cover number theta = chi of the complement)
_TABLES = {
    "me_complement": (me_complement, range(2, 9), False, "theta"),
    "me": (me_complement, range(2, 9), True, "chi"),
    "km": (km_complement, range(2, 9), True, "chi"),
    "ke": (ke_complement, range(1, 9), True, "chi"),
}
TABLE_NAMES = tuple(_TABLES)


def table_payload(table: str) -> dict:
    """Expected-invariant rows for one family parameter table."""
    build, params, flip, key = _TABLES[table]
    rows = []
    for q in params:
        inst = build(q)
        g = complement(inst.graph) if flip else inst.graph
        degrees = [g.degree(v) for v in range(g.n)]
        theta = inst.expected.theta
        rows.append({
            "q": q,
            "n": g.n,
            "min_degree": min(degrees),
            "max_degree": max(degrees),
            "edges": g.edge_count,
            key: theta,
            "frozen_blocks": inst.frozen.k,
            "gap": inst.frozen.k - theta,
        })
    return {"table": table, "rows": rows}


def fixture_payloads() -> dict[str, dict]:
    """All fixture payloads keyed by relative file path."""
    out: dict[str, dict] = {}
    for name in FIGURE_NAMES:
        for panel in PANELS:
            out[f"figures/{name}.{panel}.json"] = figure_panel_payload(name, panel)
    for table in TABLE_NAMES:
        out[f"tables/{table}.json"] = table_payload(table)
    return out


def regenerate_fixtures(root: str | Path) -> list[Path]:
    """Write every fixture file under root; returns the written paths."""
    root = Path(root)
    written = []
    for rel, payload in sorted(fixture_payloads().items()):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written
