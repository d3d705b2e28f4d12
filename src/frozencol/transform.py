"""Edge subdivision that transports clique-partition certificates.

Subdividing an edge xy into a path x-u-v-y turns a k-clique-partition plus a
frozen (k+1)-clique-partition into a (k+1)- plus a frozen (k+2)-partition.
The frozen blocks move in one of two ways: if x and y lie in different frozen
blocks, {u,v} simply becomes a new block (case 1); if {x,y} itself is a
frozen block, it is replaced by {x,u} and {v,y} (case 2). The colouring-side
operation, expanding a non-edge xy of G, is this construction read in the
complement: complement G, subdivide xy with the same certificates, complement
the result. The blocks then read as colour classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph import Graph, bits, find_induced, is_diamond_middle_edge, require
from .partitions import BlockPartition, is_clique_partition, is_frozen_clique_partition
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


def _detect_case(f: BlockPartition, x: int, y: int) -> int:
    fx, fy = f.block_of(x), f.block_of(y)
    if fx == fy:
        block = f.block_masks()[fx]
        if block != 1 << x | 1 << y:
            raise ValueError(
                f"x and y share frozen block {list(bits(block))}; neither case applies"
            )
        return 2
    return 1


def subdivide_with_certificates(
    h: Graph,
    q: BlockPartition,
    f: BlockPartition,
    x: int,
    y: int,
    strict_c4: bool = True,
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
    case_used = _detect_case(f, x, y)
    if strict_c4 and case_used == 1 and is_diamond_middle_edge(h, x, y):
        raise ValueError(f"({x}, {y}) is the middle edge of a diamond")

    out = subdivide_edge(h, x, y)
    u, v = h.n, h.n + 1
    q_out = BlockPartition(list(q.blocks) + [{u, v}])
    if case_used == 1:
        f_out = BlockPartition(list(f.blocks) + [{u, v}])
    else:
        kept = [bits(b) for b in f.block_masks() if b != 1 << x | 1 << y]
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
