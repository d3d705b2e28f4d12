"""Block partitions, frozen-ness checkers, and frozen colourings of joins."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from frozencol.graph import (
    complement,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    join,
)
from frozencol.partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
    is_frozen_colouring,
    is_proper_colouring,
)


@st.composite
def graph_and_partition(draw, max_n=8, max_k=5):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    k = draw(st.integers(1, max_k))
    colours = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return graph_from_edges(n, edges), BlockPartition.from_colours(colours, k)


def moves_exist(g, p):
    """Reference oracle: some single-vertex recolouring stays proper."""
    colours = p.to_colours()
    for v in range(g.n):
        for d in range(p.k):
            if d == colours[v]:
                continue
            alt = colours.copy()
            alt[v] = d
            if is_proper_colouring(g, BlockPartition.from_colours(alt, p.k)):
                return True
    return False


# -- the partition type --------------------------------------------------------


def test_blocks_validate():
    p = BlockPartition([{0, 3}, {1, 4}, {2, 5}])
    assert p.k == 3 and p.ground == 6
    assert p.block_of(4) == 1
    with pytest.raises(ValueError):
        BlockPartition([{0, 1}, {1, 2}])  # overlap
    with pytest.raises(ValueError):
        BlockPartition([{0, 2}])  # gap
    with pytest.raises(ValueError):
        BlockPartition([{-1, 0}])
    with pytest.raises(ValueError, match="contiguous range"):
        BlockPartition([{0, 1}, {9999999999999999999}])  # refused before the shift


def test_empty_blocks_and_order():
    p = BlockPartition([{0, 1}, set(), {2}])
    assert p.k == 3 and p.ground == 3
    assert p != BlockPartition([{0, 1}, {2}, set()])  # order significant
    assert p.to_colours() == [0, 0, 2]


def test_colour_roundtrips():
    p = BlockPartition.from_colours([0, 1, 0, 2], k=4)
    assert p.k == 4 and p.blocks[3] == frozenset()
    assert p.to_colour_line() == "0 1 0 2"
    assert BlockPartition.from_colour_line("0 1 0 2", k=4) == p
    assert BlockPartition.from_colour_line("0 1 0 2").k == 3
    with pytest.raises(ValueError):
        BlockPartition.from_colours([0, 5], k=2)


@given(st.lists(st.integers(0, 4), max_size=9), st.integers(0, 2))
def test_both_constructors_store_the_same_partition(colours, spare):
    n, k = len(colours), max(colours, default=-1) + 1 + spare
    blocks = [[v for v in range(n) if colours[v] == c] for c in range(k)]
    a, b = BlockPartition(blocks), BlockPartition.from_colours(colours, k)
    assert a == b and hash(a) == hash(b)
    assert a.blocks == b.blocks == tuple(map(frozenset, blocks))
    assert a.to_json() == b.to_json() == {"k": k, "blocks": blocks}
    assert a.to_colour_line() == b.to_colour_line() == " ".join(map(str, colours))
    assert a.block_masks() == b.block_masks() == [sum(1 << v for v in blk) for blk in blocks]
    assert [a.block_of(v) for v in range(n)] == [b.block_of(v) for v in range(n)] == colours
    for p in (a, b):
        for v in (-1, n):
            with pytest.raises(ValueError):
                p.block_of(v)


def test_json_roundtrip():
    p = BlockPartition([{0, 2}, set(), {1}])
    data = p.to_json()
    assert data == {"k": 3, "blocks": [[0, 2], [], [1]]}
    assert BlockPartition.from_json(data) == p
    with pytest.raises(ValueError):
        BlockPartition.from_json({"k": 2, "blocks": [[0]]})


# -- validity checkers -----------------------------------------------------------


def test_proper_colouring_examples():
    c6 = cycle_graph(6)
    assert is_proper_colouring(c6, BlockPartition([{0, 3}, {1, 4}, {2, 5}]))
    assert not is_proper_colouring(complete_graph(3), BlockPartition([{0, 1, 2}]))
    with pytest.raises(ValueError):
        is_proper_colouring(c6, BlockPartition([{0, 1}]))  # ground mismatch


def test_clique_partition_examples():
    c4 = cycle_graph(4)
    assert not is_clique_partition(c4, BlockPartition([{0, 2}, {1, 3}]))
    assert is_clique_partition(c4, BlockPartition([{0, 1}, {2, 3}]))
    assert is_clique_partition(c4, BlockPartition([{0}, {1}, {2}, {3}]))


@given(graph_and_partition())
def test_clique_partition_is_complement_proper(gp):
    g, p = gp
    assert is_clique_partition(g, p) == is_proper_colouring(complement(g), p)


# -- frozen-ness -----------------------------------------------------------------


def test_frozen_colouring_examples():
    c6 = cycle_graph(6)
    assert is_frozen_colouring(c6, BlockPartition([{0, 3}, {1, 4}, {2, 5}]))
    k3 = complete_graph(3)
    assert is_frozen_colouring(k3, BlockPartition([{0}, {1}, {2}]))
    with pytest.raises(ValueError):
        is_frozen_colouring(k3, BlockPartition([{0, 1}, {2}]))


def test_no_proper_3_colouring_of_c5_is_frozen():
    c5 = cycle_graph(5)
    hits = 0
    for colours in itertools.product(range(3), repeat=5):
        p = BlockPartition.from_colours(colours, k=3)
        if is_proper_colouring(c5, p):
            hits += 1
            assert not is_frozen_colouring(c5, p)
    assert hits == 30  # sanity: C5 has 30 proper 3-colourings


def test_empty_block_is_never_frozen():
    k3 = complete_graph(3)
    p = BlockPartition.from_colours([0, 1, 2], k=4)
    assert not is_frozen_colouring(k3, p)


def test_frozen_clique_partition_examples():
    # Two triangles plus a perfect matching; the matching pairs freeze it.
    b3 = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    pairs = BlockPartition([{0, 3}, {1, 4}, {2, 5}])
    assert is_frozen_clique_partition(b3, pairs)
    # The triangle partition is frozen too: each vertex misses two vertices
    # of the far triangle (dually, the unique 2-colouring of C6 is frozen).
    triangle_blocks = BlockPartition([{0, 1, 2}, {3, 4, 5}])
    assert is_frozen_clique_partition(b3, triangle_blocks)
    # P3 with blocks {0,1},{2}: the middle vertex is complete to {2}.
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert not is_frozen_clique_partition(p3, BlockPartition([{0, 1}, {2}]))
    with pytest.raises(ValueError):
        is_frozen_clique_partition(b3, BlockPartition([{0, 4}, {1, 2, 3}, {5}]))


@given(graph_and_partition())
def test_frozen_checker_matches_move_oracle(gp):
    g, p = gp
    if is_proper_colouring(g, p):
        assert is_frozen_colouring(g, p) == (not moves_exist(g, p))


@given(graph_and_partition())
def test_frozen_duality(gp):
    g, p = gp
    if is_clique_partition(g, p):
        assert is_frozen_clique_partition(g, p) == is_frozen_colouring(complement(g), p)
    else:
        with pytest.raises(ValueError):
            is_frozen_clique_partition(g, p)


def _two_pass_frozen(g, p, noun):
    """Reference: properness by is_proper_colouring, then frozen-ness from fresh masks."""
    if not is_proper_colouring(g, p):
        raise ValueError(f"not a {noun}")
    masks = p.block_masks()
    if any(m == 0 for m in masks):
        return False
    for c, mask in enumerate(masks):
        for v in range(g.n):
            if mask >> v & 1:
                for d, other in enumerate(masks):
                    if d != c and not g.rows[v] & other:
                        return False
    return True


def _verdict(check, g, p, *noun):
    try:
        return check(g, p, *noun)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def maybe_multipartite(draw):
    """A random graph and partition, often with every edge between blocks added.

    The added edges make the partition frozen when no block is empty, so true
    verdicts are drawn as well as false ones and improper partitions.
    """
    g, p = draw(graph_and_partition(max_k=6))
    if draw(st.booleans()):
        colours = p.to_colours()
        cross = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if colours[u] != colours[v]]
        g = graph_from_edges(g.n, set(g.edges()) | set(cross))
    return g, p


@given(maybe_multipartite())
@settings(max_examples=400, deadline=None)
def test_frozen_checkers_match_two_pass_reference(gp):
    g, p = gp
    assert _verdict(is_frozen_colouring, g, p) == _verdict(_two_pass_frozen, g, p,
                                                           "proper colouring")
    assert _verdict(is_frozen_clique_partition, g, p) == _verdict(
        _two_pass_frozen, complement(g), p, "clique partition")


def _per_vertex_frozen(g, p, noun):
    """Reference: the per-vertex, per-block loop the checker ran before it
    compared each block's reach with the vertex set."""
    if not is_proper_colouring(g, p):
        raise ValueError(f"not a {noun}")
    masks = p.block_masks()
    if not all(masks):
        return False
    for row, c in zip(g.rows, p.to_colours()):
        for d, mask in enumerate(masks):
            if d != c and not row & mask:
                return False
    return True


@given(maybe_multipartite())
@settings(max_examples=400, deadline=None)
def test_frozen_checkers_match_per_vertex_reference(gp):
    g, p = gp  # n <= 8; improper partitions and empty blocks are drawn too
    assert _verdict(is_frozen_colouring, g, p) == _verdict(_per_vertex_frozen, g, p,
                                                           "proper colouring")
    assert _verdict(is_frozen_clique_partition, g, p) == _verdict(
        _per_vertex_frozen, complement(g), p, "clique partition")


def test_frozen_partition_has_no_bad_singleton():
    # A frozen partition with k >= 2 cannot put a non-isolated vertex alone:
    # its block would sit inside some neighbourhood on the clique side.
    b3 = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    p = BlockPartition([{0}, {1, 2}, {3, 4, 5}])
    assert is_clique_partition(b3, p)
    assert not is_frozen_clique_partition(b3, p)


# -- the triangle criterion -------------------------------------------------------


def frozen_by_triangles(g, p):
    """A partition of g into edges is frozen iff every triangle meets three
    blocks: a triangle inside two blocks puts one block's edge in a third
    vertex's neighbourhood, which is the only way a move can open up."""
    idx = [p.block_of(v) for v in range(g.n)]
    return all(len({idx[u], idx[v], idx[w]}) == 3
               for u, v, w in itertools.combinations(range(g.n), 3)
               if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w))


def test_frozen_by_triangles_agrees_with_checker():
    rng = random.Random(99)
    for trial in range(150):
        n = rng.choice([4, 6, 8, 10])
        perm = list(range(n))
        rng.shuffle(perm)
        matching = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
        extra = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = graph_from_edges(n, matching + extra)
        p = BlockPartition(
            sorted([set(e) for e in matching], key=min)
        )
        assert frozen_by_triangles(g, p) == is_frozen_clique_partition(g, p)


# -- joins ---------------------------------------------------------------------------
# Frozen colourings of g and h, the second shifted past g's vertices, make a
# frozen colouring of their join: old moves stay blocked, and every vertex is
# adjacent to the entire far side, so no vertex can enter a far block.


def join_colourings(p_g, p_h):
    shift = p_g.ground
    return BlockPartition(list(p_g.blocks) + [{v + shift for v in b} for b in p_h.blocks])


def test_join_of_frozen_is_frozen():
    c6 = cycle_graph(6)
    p = BlockPartition([{0, 3}, {1, 4}, {2, 5}])
    assert is_frozen_colouring(c6, p)
    big = join(c6, c6)
    out = join_colourings(p, p)
    assert out.k == 6
    assert is_frozen_colouring(big, out)


def test_k1_join_k1():
    one = complete_graph(1)
    p = BlockPartition([{0}])
    out = join_colourings(p, p)
    assert out.blocks == (frozenset({0}), frozenset({1}))
    assert is_frozen_colouring(join(one, one), out)
