"""Edge subdivision that transports clique-partition certificates.

Subdividing an edge xy into a path x-u-v-y turns a k-clique-partition plus a
frozen (k+1)-clique-partition into a (k+1)- plus a frozen (k+2)-partition.
The frozen blocks move in one of two ways: if x and y lie in different frozen
blocks, {u,v} simply becomes a new block (case 1); if {x,y} itself is a
frozen block, it is replaced by {x,u} and {v,y} (case 2). The colouring-side
operation on a non-edge is the exact complement of the same construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph import Graph, complement, find_induced, is_diamond_middle_edge, require
from .partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
    is_frozen_colouring,
    is_proper_colouring,
)
from .solvers import clique_cover_number


@dataclass(frozen=True)
class TransformResult:
    graph_out: Graph
    q_out: BlockPartition
    f_out: BlockPartition
    case_used: int
    c4_preserved: bool
    theta_incremented: bool | None = None


def subdivide_edge(h: Graph, x: int, y: int) -> Graph:
    """Replace edge xy by the path x, u, v, y with u = n and v = n+1."""
    if not (0 <= x < h.n and 0 <= y < h.n) or not h.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    n = h.n
    u, v = n, n + 1
    rows = list(h.rows) + [0, 0]
    rows[x] &= ~(1 << y)
    rows[y] &= ~(1 << x)
    rows[x] |= 1 << u
    rows[u] = 1 << x | 1 << v
    rows[v] = 1 << u | 1 << y
    rows[y] |= 1 << v
    labels = h.labels if h.labels is not None else tuple(str(i) for i in range(n))
    return Graph(n + 2, rows, labels + (f"u@{n}", f"v@{n}"))


def _detect_case(f: BlockPartition, x: int, y: int, force: int | None) -> int:
    fx, fy = f.block_of(x), f.block_of(y)
    if fx == fy:
        if f.blocks[fx] != frozenset((x, y)):
            raise ValueError(
                f"x and y share frozen block {sorted(f.blocks[fx])}; neither case applies"
            )
        case = 2
    else:
        case = 1
    if force is not None and force != case:
        raise ValueError(f"case {force} requested but input admits only case {case}")
    return case


def subdivide_with_certificates(
    h: Graph,
    q: BlockPartition,
    f: BlockPartition,
    x: int,
    y: int,
    strict_c4: bool = True,
    case: int | None = None,
) -> TransformResult:
    """Subdivide xy and transport both certificates, re-verified on output.

    With strict_c4 (the default), refuses a case-1 edge that is the middle
    edge of a diamond, the one situation where deleting xy can create a C4;
    with it off the transform still runs and the c4_preserved flag reports
    what happened.
    """
    if not (0 <= x < h.n and 0 <= y < h.n) or not h.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    if not is_clique_partition(h, q):
        raise ValueError("q is not a clique partition")
    if q.block_of(x) == q.block_of(y):
        raise ValueError("x and y share a block of q")
    if not is_frozen_clique_partition(h, f):
        raise ValueError("f is not a frozen clique partition")
    case_used = _detect_case(f, x, y, case)
    if strict_c4 and case_used == 1 and is_diamond_middle_edge(h, x, y):
        raise ValueError(f"({x}, {y}) is the middle edge of a diamond")

    out = subdivide_edge(h, x, y)
    u, v = h.n, h.n + 1
    q_out = BlockPartition(list(q.blocks) + [{u, v}])
    if case_used == 1:
        f_out = BlockPartition(list(f.blocks) + [{u, v}])
    else:
        kept = [b for b in f.blocks if b != frozenset((x, y))]
        f_out = BlockPartition(kept + [{x, u}, {v, y}])
    require(q_out.k == q.k + 1 and f_out.k == f.k + 1, "transport did not add one block")
    require(is_clique_partition(out, q_out), "transported q certificate failed verification")
    require(is_frozen_clique_partition(out, f_out),
            "transported f certificate failed verification")

    if find_induced(h, "C4") is None:
        c4_preserved = find_induced(out, "C4") is None
    else:
        c4_preserved = True  # nothing to preserve
    return TransformResult(out, q_out, f_out, case_used, c4_preserved)


def theta_increment_check(result: TransformResult, h: Graph, k: int) -> bool:
    """Exact-solver confirmation that the cover number rose from k to k+1."""
    theta_in, _ = clique_cover_number(h)
    theta_out, _ = clique_cover_number(result.graph_out)
    return theta_in == k and theta_out == k + 1


def with_theta_check(result: TransformResult, h: Graph, k: int) -> TransformResult:
    """Copy of result with the theta_incremented flag filled in."""
    return replace(result, theta_incremented=theta_increment_check(result, h, k))


def expand_nonedge(
    g: Graph,
    x: int,
    y: int,
    beta: BlockPartition,
    gamma: BlockPartition,
    strict_2k2: bool = True,
    case: int | None = None,
) -> TransformResult:
    """Colouring-side twin of the subdivision: expand a non-edge xy.

    Adds u, v with edges vx, xy, yu and joins u, v to everything else. This
    is the complement of subdividing xy in the complement graph, so the
    certificates transport identically; beta gains the class {u,v} and gamma
    moves by the same two cases. c4_preserved here reports 2K2-freeness
    preservation of the colouring side (the same bit, read in complement).
    """
    if not (0 <= x < g.n and 0 <= y < g.n) or g.has_edge(x, y) or x == y:
        raise ValueError(f"({x}, {y}) is not a non-edge")
    if not is_proper_colouring(g, beta):
        raise ValueError("beta is not a proper colouring")
    if beta.block_of(x) == beta.block_of(y):
        raise ValueError("x and y share a colour class of beta")
    if not is_frozen_colouring(g, gamma):
        raise ValueError("gamma is not a frozen colouring")
    co = complement(g)
    result = subdivide_with_certificates(
        co, beta, gamma, x, y, strict_c4=strict_2k2, case=case
    )
    out = complement(result.graph_out)
    require(is_proper_colouring(out, result.q_out), "transported beta is not proper")
    require(is_frozen_colouring(out, result.f_out), "transported gamma is not frozen")
    return replace(result, graph_out=out)
