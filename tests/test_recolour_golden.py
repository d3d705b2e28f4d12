"""Walk identity: recolouring walks match the digests in tests/golden/recolour.json.

A seeded panel of about 300 `path_between` and 100 `rename_moves` calls on
2K2-free graphs with chromatic number at most 3 (n from 4 to 14, ell from 3
to 6), plus 4-chromatic, 2K2-containing and improper inputs. Each call is
recorded as the sha256 of its moves, or of its ValueError text. A change
that keeps every walk byte-identical passes unchanged.

Running this file as a script prints the panel's digests as JSON, which is
how the golden file was captured.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from frozencol.graph import Graph, complete_graph, cycle_graph, path_graph
from frozencol.partitions import BlockPartition
from frozencol.recolour import path_between, rename_moves
from frozencol.solvers import chromatic_number

GOLDEN = Path(__file__).resolve().parent / "golden" / "recolour.json"


def _rows(n, edges):
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


def _has_2k2(n, rows):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rows[a] >> b & 1]
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not (rows[a] | rows[b]) & (1 << c | 1 << d):
            return True
    return False


def _chain(rng, n):
    """Bipartite with nested neighbourhoods, so 2K2-free."""
    left = rng.randrange(1, n)
    cut = sorted((rng.randint(0, n - left) for _ in range(left)), reverse=True)
    return _rows(n, [(i, left + j) for i, t in enumerate(cut) for j in range(t)])


def _tripartite(rng, n):
    """3-partite with a planted triangle, redrawn until 2K2-free."""
    while True:
        part = [v if v < 3 else rng.randrange(3) for v in range(n)]
        p = rng.uniform(0.5, 0.9)
        edges = [(a, b) for a, b in itertools.combinations(range(n), 2)
                 if part[a] != part[b] and (b < 3 or rng.random() < p)]
        rows = _rows(n, edges)
        if not _has_2k2(n, rows):
            return rows


def _relabel(rng, n, rows):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v, row in enumerate(rows):
        for u in range(n):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def _colouring(rng, g, ell, spare=0):
    """A proper ell-colouring that leaves `spare` colours unused: a permuted
    minimum colouring, then 2n random moves."""
    chi, witness = chromatic_number(g)
    palette = rng.sample(range(ell), max(ell - spare, chi))
    cols = [palette[c] for c in witness.to_colours()]
    for _ in range(2 * g.n):
        v = rng.randrange(g.n)
        taken = {cols[u] for u in range(g.n) if g.rows[v] >> u & 1}
        cols[v] = rng.choice([c for c in palette if c not in taken])
    return BlockPartition.from_colours(cols, ell)


def _digest(call, *args):
    try:
        text = repr(call(*args).moves)
    except ValueError as exc:
        text = f"ValueError: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def _extra_graphs():
    """Inputs outside the theorem: 4-chromatic, or with an induced 2K2."""
    wheel = cycle_graph(5).rows + (0b11111,)
    return {
        "k4": complete_graph(4),
        "w5": Graph(6, [row | 1 << 5 for row in wheel[:5]] + [wheel[5]]),
        "2k2": Graph(4, _rows(4, [(0, 1), (2, 3)])),
        "p5": path_graph(5),
        "c6": cycle_graph(6),
        "c7": cycle_graph(7),
    }


def panel() -> dict[str, str]:
    rng = random.Random("recolour-golden")
    out = {}
    for j in range(60):
        n = 4 + j % 11
        if j % 4 == 3:
            rows = _chain(rng, n)
        elif j % 10 == 5:
            rows = [0] * n  # edgeless: one colour class
        else:
            rows = _tripartite(rng, n)
        g = Graph(n, _relabel(rng, n, rows))
        chi, _ = chromatic_number(g)
        for i in range(5):
            ell = 3 + (i + j) % 4
            if ell == 3 and chi == 3 and j % 5:
                ell = 6  # most 3-chromatic walks get the colours they need
            beta, gamma = _colouring(rng, g, ell), _colouring(rng, g, ell)
            if i == 4 and j % 6 == 0:
                gamma = beta
            out[f"path/{j:02d}/{i}"] = _digest(path_between, g, beta, gamma, ell)
        for i in range(2 if j < 50 else 0):
            ell = 3 + (i + 2 * j) % 4
            spare = 1 if j % 8 else 0  # one rename in eight may find no spare colour
            ell = max(ell, chi + spare)
            beta = _colouring(rng, g, ell, spare)
            perm = rng.sample(range(ell), ell)
            gamma = BlockPartition.from_colours([perm[c] for c in beta.to_colours()], ell)
            if j % 10 == 7 and i == 1:
                gamma = _colouring(rng, g, ell)  # mostly a different partition
            out[f"rename/{j:02d}/{i}"] = _digest(rename_moves, g, beta, gamma, ell)
    for name, g in _extra_graphs().items():
        chi, _ = chromatic_number(g)
        for ell in (chi + 1, chi + 2):
            beta, gamma = _colouring(rng, g, ell), _colouring(rng, g, ell)
            out[f"extra/{name}/{ell}"] = _digest(path_between, g, beta, gamma, ell)
    improper = BlockPartition.from_colours([0, 0, 1, 2, 1], 4)
    proper = BlockPartition.from_colours([0, 1, 0, 1, 2], 4)
    out["extra/improper/path"] = _digest(path_between, cycle_graph(5), improper, proper, 4)
    out["extra/improper/rename"] = _digest(rename_moves, cycle_graph(5), proper, improper, 4)
    return out


def test_walks_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = panel()
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"{len(changed)} walks changed, first {changed[:5]}"


if __name__ == "__main__":
    print(json.dumps(panel(), indent=1, sort_keys=True))
