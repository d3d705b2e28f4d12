"""Edge subdivision that transports clique-partition certificates.

Subdividing an edge xy into a path x-u-v-y turns a k-clique-partition plus a
frozen (k+1)-clique-partition into a (k+1)- plus a frozen (k+2)-partition.
The frozen blocks move in one of two ways: if x and y lie in different frozen
blocks, {u,v} simply becomes a new block (case 1); if {x,y} itself is a
frozen block, it is replaced by {x,u} and {v,y} (case 2). The colouring-side
operation, expanding a non-edge xy of G, is this construction read in the
complement: complement G, subdivide xy with the same certificates, complement
the result. The blocks then read as colour classes.

`_split` is the one place that rewires edges and moves blocks, in place on
packed state; `_built` builds the graph and both partitions once, checked.
`subdivide_with_certificates` wraps one split in checks of inputs and outputs.
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
    rows = list(h.rows)
    _split(rows, [], [], [(x, y)])  # no certificates to carry
    return _built(h, rows, [], [])[0]


def _built(h: Graph, rows: list[int], q: list[int], f: list[int],
           labels: tuple[str, ...] | None = None
           ) -> tuple[Graph, BlockPartition, BlockPartition]:
    """The graph h grew into on rows, and certificates on masks q and f, each
    built checked; by default the split at order n labels u, v as u@n, v@n."""
    if labels is None:
        labels = h.labels if h.labels is not None else tuple(map(str, range(h.n)))
        labels += tuple(f"{s}@{n}" for n in range(h.n, len(rows), 2) for s in "uv")
    return (Graph(len(rows), rows, labels),
            BlockPartition(map(bits, q)), BlockPartition(map(bits, f)))


def _split(rows: list[int], q: list[int], f: list[int],
           splits: list[tuple[int, int]]) -> list[int]:
    """Subdivide each edge xy of splits in turn, in place: the case of each.

    rows are adjacency rows, q and f the block masks of the two certificates.
    With u = n and v = n+1, xy becomes the path x-u-v-y, {u,v} a new block
    of q, and f gains {u,v} (case 1) or trades its block {x,y} for {x,u} and
    {v,y} (case 2). Only a non-edge or a larger shared f block is refused.
    """
    cases = []
    for x, y in splits:
        u, v = len(rows), len(rows) + 1
        if not (0 <= x < u and 0 <= y < u) or not rows[x] >> y & 1:
            raise ValueError(f"({x}, {y}) is not an edge")
        pair = 1 << x | 1 << y
        shared = next((b for b in f if b & pair == pair), 0)
        if shared and shared != pair:
            raise ValueError(f"x and y share frozen block {[*bits(shared)]}; neither case applies")
        rows[x] ^= 1 << y | 1 << u
        rows[y] ^= 1 << x | 1 << v
        rows += [1 << x | 1 << v, 1 << u | 1 << y]
        q.append(1 << u | 1 << v)
        if shared:  # case 2
            f.remove(pair)
        f += [1 << x | 1 << u, 1 << v | 1 << y] if shared else [1 << u | 1 << v]
        cases.append(2 if shared else 1)
    return cases


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
    rows, q_masks, f_masks = list(h.rows), q.block_masks(), f.block_masks()
    [case_used] = _split(rows, q_masks, f_masks, [(x, y)])
    if strict_c4 and case_used == 1 and is_diamond_middle_edge(h, x, y):
        raise ValueError(f"({x}, {y}) is the middle edge of a diamond")
    out, q_out, f_out = _built(h, rows, q_masks, f_masks)
    require(q_out.k == q.k + 1 and f_out.k == f.k + 1, "transport did not add one block")
    require(is_clique_partition(out, q_out), "transported q certificate failed verification")
    require(is_frozen_clique_partition(out, f_out),
            "transported f certificate failed verification")

    if find_induced(h, "C4") is None:
        c4_preserved = find_induced(out, "C4") is None
    else:
        c4_preserved = True  # nothing to preserve
    return TransformResult(out, q_out, f_out, case_used, c4_preserved)


def with_theta_check(result: TransformResult, h: Graph, k: int) -> TransformResult:
    """Copy of result whose theta_incremented flag says, by the exact solver,
    whether the cover number rose from k on h to k+1 on the output."""
    theta_in, _ = clique_cover_number(h)
    theta_out, _ = clique_cover_number(result.graph_out)
    return replace(result, theta_incremented=theta_in == k and theta_out == k + 1)
