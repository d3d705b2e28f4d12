"""Search for graphs whose chromatic gap hides a frozen colouring.

A hit is a graph admitting a frozen (chi+gap)-colouring, optionally filtered
by forbidden induced subgraphs on the graph or its complement. Every hit's
frozen colouring is re-checked before it is reported, and reports are
deduplicated by graph isomorphism.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graph import (
    Graph,
    are_isomorphic,
    complement,
    decode_graph6,
    encode_graph6,
    find_induced,
)
from .partitions import BlockPartition
from .reconfig import find_frozen, frozen_k_bound
from .solvers import chromatic_number

_SIDES = (None, "graph", "complement")
EXHAUSTIVE_MAX = 7


@dataclass(frozen=True)
class PredicateSpec:
    """What to search for: a chromatic gap plus optional freeness filters.

    Each freeness flag is None (off), "graph", or "complement", naming the
    side on which the pattern must be absent. The search probes frozen
    k-colourings for k from chi+gap up to max_k (chi+gap when max_k unset).
    """

    gap: int = 1
    max_k: int | None = None
    two_k2_free: str | None = None
    p5_free: str | None = None
    c4_free: str | None = None

    def __post_init__(self):
        if self.gap < 1:
            raise ValueError("gap must be at least 1")
        if self.max_k is not None and self.max_k < 2:
            raise ValueError("max_k must be at least 2")
        for name in ("two_k2_free", "p5_free", "c4_free"):
            if getattr(self, name) not in _SIDES:
                raise ValueError(f"{name} must be None, 'graph', or 'complement'")

    def filters(self) -> list[tuple[str, str]]:
        """(pattern, side) pairs for the active freeness flags."""
        out = []
        for name, pattern in (
            ("two_k2_free", "2K2"),
            ("p5_free", "P5"),
            ("c4_free", "C4"),
        ):
            side = getattr(self, name)
            if side is not None:
                out.append((pattern, side))
        return out

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "max_k": self.max_k,
            "two_k2_free": self.two_k2_free,
            "p5_free": self.p5_free,
            "c4_free": self.c4_free,
        }


@dataclass(frozen=True)
class Hit:
    """A verified find: the graph, its chromatic number, and the witness."""

    graph6: str
    chi: int
    k: int
    colours: str

    def to_json(self) -> dict:
        return {"graph6": self.graph6, "chi": self.chi, "k": self.k, "colours": self.colours}


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a scan: counts, verified hits, and dropped duplicates."""

    graphs_scanned: int
    hits: tuple
    dedup_count: int
    skipped: int
    runtime: float

    def to_json(self, include_runtime: bool = False) -> dict:
        out = {
            "graphs_scanned": self.graphs_scanned,
            "hits": [h.to_json() for h in self.hits],
            "dedup_count": self.dedup_count,
            "skipped": self.skipped,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def _passes_filters(g: Graph, spec: PredicateSpec) -> bool:
    comp = None
    for pattern, side in spec.filters():
        if side == "graph":
            target = g
        else:
            if comp is None:
                comp = complement(g)
            target = comp
        if find_induced(target, pattern) is not None:
            return False
    return True


def _has_greedy_clique(g: Graph, size: int) -> bool:
    """True if a greedy pass finds `size` pairwise adjacent vertices.

    From each start vertex, repeatedly add the lowest common neighbour of the
    vertices taken so far. A True answer proves omega(g) >= size.
    """
    if size <= 0:
        return True
    rows = g.rows
    for v in range(g.n):
        common, taken = rows[v], 1
        while common and taken < size:
            low = common & -common
            common &= rows[low.bit_length() - 1]
            taken += 1
        if taken >= size:
            return True
    return False


def _frozen_above_chi(
    g: Graph, gap: int, max_k: int | None
) -> tuple[int | None, list[tuple[int, BlockPartition]]]:
    """chi(g) and the verified frozen k-colourings for k from chi+gap to max_k.

    max_k None means chi+gap alone. k stops at cap, the smaller of max_k and
    `frozen_k_bound(g)`, above which no frozen k-colouring exists. A greedy
    clique of cap-gap+1 vertices puts chi+gap above cap, so no k is left to
    probe: chi is then not computed and comes back as None, with no
    colourings.
    """
    cap = frozen_k_bound(g)
    if max_k is not None:
        cap = min(cap, max_k)
    if _has_greedy_clique(g, cap - gap + 1):
        return None, []
    chi, _ = chromatic_number(g)
    low = chi + gap
    top = cap if max_k is not None else min(cap, low)
    found = []
    for k in range(low, top + 1):
        witness = find_frozen(g, k)  # find_frozen re-checks its witness
        if witness is not None:
            found.append((k, witness))
    return chi, found


def _deduplicate(found: list[tuple[Hit, Graph]]) -> tuple[list[Hit], int]:
    """Keep one hit per (isomorphism class, k), in (n, graph6, k) order."""
    found.sort(key=lambda pair: (pair[1].n, pair[0].graph6, pair[0].k))
    kept: list[tuple[Hit, Graph]] = []
    for hit, g in found:
        if not any(other.k == hit.k and are_isomorphic(g, h) is not None
                   for other, h in kept):
            kept.append((hit, g))
    return [hit for hit, _ in kept], len(found) - len(kept)


def _scan(graphs, spec: PredicateSpec) -> SearchReport:
    """Filter, probe and deduplicate graphs; a None graph counts as skipped."""
    start = time.perf_counter()
    scanned = 0
    skipped = 0
    found: list[tuple[Hit, Graph]] = []
    for g in graphs:
        if g is None:
            skipped += 1
            continue
        scanned += 1
        if _passes_filters(g, spec):
            chi, colourings = _frozen_above_chi(g, spec.gap, spec.max_k)
            for k, w in colourings:
                found.append((Hit(encode_graph6(g), chi, k, w.to_colour_line()), g))
    kept, dropped = _deduplicate(found)
    return SearchReport(scanned, tuple(kept), dropped, skipped, time.perf_counter() - start)


def _decoded(line: str) -> Graph | None:
    try:
        return decode_graph6(line)
    except ValueError:
        return None


def scan_stream(lines, spec: PredicateSpec) -> SearchReport:
    """Scan a graph6 stream; malformed lines are counted and skipped."""
    stripped = (line.strip() for line in lines)
    return _scan((_decoded(line) for line in stripped if line), spec)


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        for u, v in pairs:
            if m & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            m >>= 1
        yield Graph(n, rows)


def exhaustive_small(n_max: int, spec: PredicateSpec) -> SearchReport:
    """Scan every labelled graph on 1..n_max vertices (n_max capped at 7)."""
    if not 1 <= n_max <= EXHAUSTIVE_MAX:
        raise ValueError(f"n_max must be between 1 and {EXHAUSTIVE_MAX}")
    return _scan((g for n in range(1, n_max + 1) for g in _all_graphs(n)), spec)

