"""Edge subdivision, certificate transport, and the colouring-side twin."""

import random

import pytest

from frozencol.families import chain_complement, me_complement
from frozencol.graph import (
    are_isomorphic,
    complement,
    cycle_graph,
    find_induced,
    graph_from_edges,
    is_diamond_middle_edge,
    path_graph,
)
from frozencol.partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
    is_frozen_colouring,
    is_proper_colouring,
)
from frozencol.solvers import chromatic_number
from frozencol.transform import (
    subdivide_edge,
    subdivide_with_certificates,
    with_theta_check,
)

# ME_2 complement-side indices: u0..u3 = 0..3, v11..v23 = 4..9.
U0, U1, U2, U3, V11, V12, V13, V21, V22, V23 = range(10)


def diamond_middle_example():
    """A graph with a frozen 2-partition whose case-1 edge (0,1) is a
    diamond middle: 0 and 1 share the non-adjacent neighbours 2 and 3."""
    g = graph_from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (3, 4), (0, 5), (2, 5)]
    )
    q = BlockPartition([{0, 2, 5}, {1, 3, 4}])
    f = BlockPartition([{0, 2, 5}, {1, 3, 4}])
    assert is_clique_partition(g, q)
    assert is_frozen_clique_partition(g, f)
    assert find_induced(g, "C4") is None
    assert is_diamond_middle_edge(g, 0, 1)
    return g, q, f


# -- plain subdivision ---------------------------------------------------------


def test_subdivide_k2_gives_p4():
    g = graph_from_edges(2, [(0, 1)])
    out = subdivide_edge(g, 0, 1)
    assert out.n == 4 and out.edges() == [(0, 2), (1, 3), (2, 3)]
    assert are_isomorphic(out, path_graph(4)) is not None
    assert out.labels[2] == "u@2" and out.labels[3] == "v@2"


def test_subdivide_c4_gives_c6():
    out = subdivide_edge(cycle_graph(4), 0, 1)
    assert are_isomorphic(out, cycle_graph(6)) is not None
    assert find_induced(out, "C4") is None


def test_subdivide_requires_an_edge():
    with pytest.raises(ValueError):
        subdivide_edge(cycle_graph(4), 0, 2)
    with pytest.raises(ValueError):
        subdivide_edge(cycle_graph(4), 0, 9)


# -- certificate transport -------------------------------------------------------


def test_case_1_on_the_spine():
    me = me_complement(2)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, U2)
    assert res.case_used == 1
    assert res.graph_out.n == 12
    assert res.q_out.k == 5 and res.f_out.k == 6
    assert res.c4_preserved
    assert is_clique_partition(res.graph_out, res.q_out)
    assert is_frozen_clique_partition(res.graph_out, res.f_out)
    assert res.q_out.blocks[-1] == frozenset({10, 11})
    assert find_induced(res.graph_out, "C4") is None


def test_case_2_on_a_frozen_block():
    me = me_complement(2)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, V12)
    assert res.case_used == 2
    assert res.f_out.k == 6
    # {u1, v12} is gone; {u1, u} and {v, v12} arrived at the end.
    assert frozenset({U1, V12}) not in res.f_out.blocks
    assert res.f_out.blocks[-2] == frozenset({U1, 10})
    assert res.f_out.blocks[-1] == frozenset({11, V12})
    assert is_frozen_clique_partition(res.graph_out, res.f_out)
    assert res.c4_preserved


def test_same_q_block_rejected():
    me = me_complement(2)
    with pytest.raises(ValueError, match="share a block of q"):
        subdivide_with_certificates(me.graph, me.canonical, me.frozen, V11, V12)


def test_larger_shared_frozen_block_rejected():
    g, _, f = diamond_middle_example()
    q = BlockPartition([{0, 5}, {2}, {1, 3, 4}])
    assert is_clique_partition(g, q)
    with pytest.raises(ValueError, match="neither case applies"):
        subdivide_with_certificates(g, q, f, 0, 2)


def test_diamond_middle_blocked_when_strict():
    g, q, f = diamond_middle_example()
    with pytest.raises(ValueError, match="middle edge of a diamond"):
        subdivide_with_certificates(g, q, f, 0, 1)


def test_diamond_middle_allowed_when_relaxed():
    g, q, f = diamond_middle_example()
    res = subdivide_with_certificates(g, q, f, 0, 1, strict_c4=False)
    assert res.case_used == 1
    assert not res.c4_preserved  # removing the middle edge opened a C4
    assert find_induced(res.graph_out, "C4") is not None
    assert is_clique_partition(res.graph_out, res.q_out)
    assert is_frozen_clique_partition(res.graph_out, res.f_out)


def test_invalid_certificates_rejected():
    me = me_complement(2)
    not_cliques = BlockPartition([{U0, U2}, {U1, U3}, set(range(4, 10))])
    with pytest.raises(ValueError, match="not a clique partition"):
        subdivide_with_certificates(me.graph, not_cliques, me.frozen, U1, U2)
    # all-singletons is a clique partition but never frozen once an edge exists
    singletons = BlockPartition([{v} for v in range(10)])
    with pytest.raises(ValueError, match="not a frozen clique partition"):
        subdivide_with_certificates(me.graph, me.canonical, singletons, U1, U2)


def test_theta_increment():
    me = me_complement(2)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, U2)
    assert with_theta_check(res, me.graph, 4).theta_incremented is True
    assert with_theta_check(res, me.graph, 3).theta_incremented is False
    assert res.theta_incremented is None


# -- iterated chain --------------------------------------------------------------


def test_iterated_subdivision_matches_chain_builder():
    me = me_complement(2)
    g, q, f = me.graph, me.canonical, me.frozen
    y = U2
    for t in range(5, 9):
        res = subdivide_with_certificates(g, q, f, U1, y)
        assert res.case_used == 1
        assert with_theta_check(res, g, t - 1).theta_incremented
        g, q, f = res.graph_out, res.q_out, res.f_out
        y = g.n - 2  # next step reuses the vertex u just added
        direct = chain_complement(t)
        assert are_isomorphic(g, direct.graph) is not None
        assert q.k == direct.canonical.k and f.k == direct.frozen.k
        assert find_induced(g, "C4") is None


# -- randomized preservation sweep -------------------------------------------------


def rand_frozen_c4_free(rng, pairs):
    """Random C4-free graph on 2*pairs vertices with a frozen matching
    partition, grown by rejection: an extra edge stays only if the matching
    stays a frozen clique partition and no induced C4 appears."""
    n = 2 * pairs
    perm = list(range(n))
    rng.shuffle(perm)
    matching = [(perm[2 * i], perm[2 * i + 1]) for i in range(pairs)]
    g = graph_from_edges(n, matching)
    blocks = sorted([set(e) for e in matching], key=min)
    f = BlockPartition(blocks)
    for a in range(n):
        for b in range(a + 1, n):
            if g.has_edge(a, b) or rng.random() > 0.3:
                continue
            rows = list(g.rows)
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            candidate = graph_from_edges(n, g.edges() + [(a, b)])
            if find_induced(candidate, "C4") is not None:
                continue
            if not is_frozen_clique_partition(candidate, f):
                continue
            g = candidate
    return g, f


def test_c4_preservation_over_random_certified_inputs():
    rng = random.Random(424242)
    runs = 0
    cases = {1: 0, 2: 0}
    while runs < 300:
        g, f = rand_frozen_c4_free(rng, rng.choice([3, 4, 5]))
        singletons = BlockPartition([{v} for v in range(g.n)])
        edges = g.edges()
        rng.shuffle(edges)
        for x, y in edges[:4]:
            if is_diamond_middle_edge(g, x, y):
                continue
            res = subdivide_with_certificates(g, singletons, f, x, y)
            assert res.c4_preserved
            assert find_induced(res.graph_out, "C4") is None
            assert is_frozen_clique_partition(res.graph_out, res.f_out)
            cases[res.case_used] += 1
            runs += 1
    assert cases[1] > 0 and cases[2] > 0


# -- colouring side -----------------------------------------------------------------
# me.graph is the complement of the 2K2-free ME_2; expanding a non-edge xy of
# ME_2 is subdividing the edge xy of me.graph, read in the complement.


def test_expand_nonedge_case_1():
    me = me_complement(2)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, U2)
    out = complement(res.graph_out)
    assert res.case_used == 1
    assert out.n == 12
    assert find_induced(out, "2K2") is None
    assert res.c4_preserved  # C4-free in the complement: 2K2-free here
    assert is_proper_colouring(out, res.q_out) and res.q_out.k == 5
    assert is_frozen_colouring(out, res.f_out) and res.f_out.k == 6
    assert chromatic_number(out)[0] == 5
    # the added vertices: u misses x and v; v misses y and u
    u, v = 10, 11
    assert not out.has_edge(u, U1) and not out.has_edge(u, v)
    assert not out.has_edge(v, U2)
    assert out.has_edge(U1, U2)  # the expanded non-edge becomes an edge


def test_expand_nonedge_case_2():
    me = me_complement(2)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, V12)
    assert res.case_used == 2
    assert res.f_out.k == 6
    assert is_frozen_colouring(complement(res.graph_out), res.f_out)


def test_expand_nonedge_rejects_an_edge():
    me = me_complement(2)
    assert complement(me.graph).has_edge(U0, U2)
    with pytest.raises(ValueError, match="not an edge"):
        subdivide_with_certificates(me.graph, me.canonical, me.frozen, U0, U2)


def test_expand_matches_complemented_subdivision():
    # xy becomes an edge; u joins every old vertex but x, v every old vertex but y
    me = me_complement(2)
    g = complement(me.graph)
    res = subdivide_with_certificates(me.graph, me.canonical, me.frozen, U1, U2)
    u, v = g.n, g.n + 1
    edges = g.edges() + [(U1, U2)]
    edges += [(w, u) for w in range(g.n) if w != U1]
    edges += [(w, v) for w in range(g.n) if w != U2]
    assert complement(res.graph_out) == graph_from_edges(g.n + 2, edges)
