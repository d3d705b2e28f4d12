"""End-to-end acceptance sweep: one test per headline guarantee.

Each test certifies a behaviour of the whole package at desk scale, with
independent re-verification of every certificate it touches. The two
exhaustive sweeps take a few minutes each; everything else is seconds.
"""

import itertools
import random
import time

import pytest

from frozencol.families import (
    chain_complement,
    h_t_complement,
    ke_complement,
    km_complement,
    me_complement,
    me_star_complement,
)
from frozencol.fixtures import figure_graph, figure_partition
from frozencol.graph import (
    Graph,
    are_isomorphic,
    complement,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    find_induced,
    graph_from_edges,
)
from frozencol.partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
    is_frozen_colouring,
    is_proper_colouring,
)
from frozencol.recolour import path_between, rename_moves, verify_moves
from frozencol.reconfig import reconfiguration_components
from frozencol.search import PredicateSpec, exhaustive_small, scan_stream
from frozencol.solvers import (
    chromatic_number,
    clique_cover_number,
    clique_number,
    independence_number,
)
from frozencol.transform import subdivide_with_certificates, theta_increment_check

SEED = 20260816

# Block counts (canonical, frozen) stated alongside each drawing.
PANEL_COUNTS = {
    "me2": (4, 5),
    "me3": (6, 7),
    "km2": (4, 5),
    "km3": (6, 7),
    "ke2": (4, 6),
    "ke3": (6, 9),
    "chain5": (5, 6),
    "chain7": (7, 8),
    "h3": (4, 5),
    "h4": (5, 7),
    "subdiv16": (7, 8),
}


def random_proper(g: Graph, ell: int, rng: random.Random) -> BlockPartition:
    """Uniform proper ell-colouring by rejection."""
    while True:
        cols = [rng.randrange(ell) for _ in range(g.n)]
        masks = [0] * ell
        ok = True
        for v, c in enumerate(cols):
            if masks[c] & g.rows[v]:
                ok = False
                break
            masks[c] |= 1 << v
        if ok:
            return BlockPartition.from_colours(cols, ell)


# -- 1: necklace family tables ----------------------------------------------------


def test_01_necklace_family_tables():
    t0 = time.perf_counter()
    for q in range(2, 9):
        inst = me_complement(q)
        g = inst.graph
        assert g.n == 4 * q + 2
        assert g.edge_count == 6 * q + 2
        assert inst.frozen.k == 2 * q + 1
        assert is_frozen_clique_partition(g, inst.frozen)
        if q <= 4:
            want = (3 * q + 2) // 2 if q % 2 == 0 else (3 * q + 3) // 2
            theta, cover = clique_cover_number(g)
            alpha, ind = independence_number(g)
            assert theta == alpha == want
            assert is_clique_partition(g, cover)
            assert len(ind) == alpha
            assert all(not g.has_edge(a, b)
                       for a, b in itertools.combinations(sorted(ind), 2))
    assert time.perf_counter() - t0 < 10.0


# -- 2: forbidden-subgraph freeness -------------------------------------------------


def test_02_forbidden_subgraph_freeness():
    t0 = time.perf_counter()
    members = (
        [me_complement(q) for q in range(2, 9)]
        + [me_star_complement(q) for q in range(3, 9)]
        + [km_complement(q) for q in range(2, 9)]
        + [ke_complement(q) for q in range(2, 9)]
        + [chain_complement(t) for t in range(4, 9)]
        + [h_t_complement(t) for t in range(3, 7)]
    )
    for inst in members:
        assert find_induced(inst.graph, "C4") is None, inst.family
        assert find_induced(complement(inst.graph), "2K2") is None, inst.family
    star2 = me_star_complement(2)
    witness = find_induced(complement(star2.graph), "2K2")
    assert witness is not None
    assert sorted(star2.graph.labels[v] for v in witness) == ["u0", "u1", "u2", "u3"]
    # The first member of the triple-block family degenerates to the
    # six-cycle, whose presentation is the prism: squares on one side, a
    # disjoint edge pair on the other.
    ke1 = ke_complement(1)
    assert are_isomorphic(complement(ke1.graph), cycle_graph(6)) is not None
    assert find_induced(ke1.graph, "C4") is not None
    assert find_induced(complement(ke1.graph), "2K2") is not None
    assert time.perf_counter() - t0 < 5.0


# -- 3: drawing fixtures ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PANEL_COUNTS))
def test_03_drawing_panels_certify(name):
    g = figure_graph(name)
    left = figure_partition(name, "left")
    right = figure_partition(name, "right")
    assert left.k == PANEL_COUNTS[name][0]
    assert is_clique_partition(g, left)
    assert right.k == PANEL_COUNTS[name][1]
    assert is_frozen_clique_partition(g, right)


# -- 4: large-gap family ------------------------------------------------------------


def test_04_large_gap_family():
    for q in range(1, 6):
        inst = ke_complement(q)
        chi, wit = chromatic_number(complement(inst.graph))
        assert chi == 2 * q
        assert is_proper_colouring(complement(inst.graph), wit)
        assert inst.frozen.k == 3 * q
        assert is_frozen_clique_partition(inst.graph, inst.frozen)


# -- 5: iterated subdivision chain ---------------------------------------------------


def test_05_subdivision_chain_raises_cover_number():
    t0 = time.perf_counter()
    me = me_complement(2)
    g, q, f = me.graph, me.canonical, me.frozen
    assert clique_cover_number(g)[0] == 4
    assert f.k == 5
    assert find_induced(g, "C4") is None
    x, y = 1, 2
    for t in range(5, 9):
        res = subdivide_with_certificates(g, q, f, x, y)
        assert theta_increment_check(res, g, t - 1)
        g, q, f = res.graph_out, res.q_out, res.f_out
        assert clique_cover_number(g)[0] == t
        assert f.k == t + 1
        assert is_frozen_clique_partition(g, f)
        assert is_clique_partition(g, q)
        assert find_induced(g, "C4") is None
        y = g.n - 2  # continue through the vertex the split just added
    assert time.perf_counter() - t0 < 60.0


# -- 6: two presentations of one graph -----------------------------------------------


def test_06_grid_and_necklace_presentations_isomorphic():
    a = h_t_complement(3).graph
    b = km_complement(2).graph
    mapping = are_isomorphic(a, b)
    assert mapping is not None
    assert sorted(mapping) == list(range(a.n))
    for u, v in itertools.combinations(range(a.n), 2):
        assert a.has_edge(u, v) == b.has_edge(mapping[u], mapping[v])


# -- 7: move-graph ground truth ------------------------------------------------------


def test_07_move_graph_ground_truth():
    t0 = time.perf_counter()

    triangle = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    rep = reconfiguration_components(triangle, 3)
    assert rep.colouring_count == 6
    assert rep.component_count == 6
    assert all(size == 1 for size in rep.component_sizes)
    assert len(rep.frozen_colourings) == 6

    rep = reconfiguration_components(cycle_graph(6), 3)
    assert len(rep.frozen_colourings) == 6
    assert 1 in rep.component_sizes

    drawn = figure_graph("me2")
    target = {frozenset(b) for b in figure_partition("me2", "right").blocks}
    rep = reconfiguration_components(complement(drawn), 5, colouring_cap=10**5)
    frozen = rep.frozen_colourings
    assert frozen, "no isolated state found"
    for p in frozen:
        assert {frozenset(b) for b in p.blocks if b} == target

    rep = reconfiguration_components(cycle_graph(5), 3)
    assert rep.frozen_colourings == ()

    assert time.perf_counter() - t0 < 120.0


# -- 8: recolouring walk bounds ------------------------------------------------------


def iso_classes_up_to(n_max: int) -> dict[int, list[Graph]]:
    """Every isomorphism class on up to n_max vertices, by vertex extension."""

    def key(g: Graph):
        degs = sorted(bin(r).count("1") for r in g.rows)
        tri = sum(
            bin(g.rows[u] & g.rows[v]).count("1")
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if g.rows[u] >> v & 1
        )
        return (sum(degs) // 2, tuple(degs), tri)

    classes = {1: [Graph(1, [0])]}
    for n in range(2, n_max + 1):
        buckets: dict[tuple, list[Graph]] = {}
        for base in classes[n - 1]:
            for mask in range(1 << (n - 1)):
                rows = [r | ((mask >> v & 1) << (n - 1)) for v, r in enumerate(base.rows)]
                rows.append(mask)
                g = Graph(n, rows)
                bucket = buckets.setdefault(key(g), [])
                if not any(are_isomorphic(g, h) is not None for h in bucket):
                    bucket.append(g)
        classes[n] = [g for b in buckets.values() for g in b]
    return classes


def seeded_triangle_graph(rng: random.Random, n: int) -> Graph:
    """Random 3-partite graph with a planted triangle, rejected until it
    has no induced pair of disjoint edges."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        part_of = [0] * n
        for i, v in enumerate(order):
            part_of[v] = i if i < 3 else rng.randrange(3)
        p_edge = rng.uniform(0.55, 0.9)
        edges = set()
        for a, b in itertools.combinations(range(n), 2):
            if part_of[a] != part_of[b] and rng.random() < p_edge:
                edges.add((a, b))
        for i in range(3):
            a, b = order[i], order[(i + 1) % 3]
            edges.add((min(a, b), max(a, b)))
        g = graph_from_edges(n, sorted(edges))
        if find_induced(g, "2K2") is None:
            assert chromatic_number(g)[0] == 3
            return g


def walk_and_check(g: Graph, beta: BlockPartition, gamma: BlockPartition,
                   ell: int, bound: int) -> None:
    seq = path_between(g, beta, gamma, ell)
    stats = verify_moves(g, seq)
    assert stats.valid
    assert stats.end == gamma
    assert seq.max_per_vertex() <= bound
    assert len(seq.moves) <= bound * g.n


@pytest.mark.slow
def test_08_recolouring_walk_bounds():
    t0 = time.perf_counter()
    rng = random.Random(SEED)

    classes = iso_classes_up_to(7)
    assert [len(classes[n]) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    flat = [g for lst in classes.values() for g in lst]
    two_k2_free = [g for g in flat if find_induced(g, "2K2") is None]
    three_chromatic = [g for g in two_k2_free if chromatic_number(g)[0] == 3]
    bipartite = [g for g in two_k2_free if chromatic_number(g)[0] == 2]
    assert len(three_chromatic) > 100
    assert len(bipartite) > 20

    seeded = [seeded_triangle_graph(rng, rng.randrange(8, 13)) for _ in range(500)]

    # 20 seeded endpoint pairs per graph, alternating the colour budget.
    for g in three_chromatic + seeded:
        for i in range(20):
            ell = 4 if i % 2 == 0 else 5
            beta = random_proper(g, ell, rng)
            gamma = random_proper(g, ell, rng)
            walk_and_check(g, beta, gamma, ell, bound=14)

    # Bipartite inputs take the short pipeline: at most 4 moves per vertex.
    for g in bipartite:
        for i in range(20):
            ell = 4 if i % 2 == 0 else 5
            beta = random_proper(g, ell, rng)
            gamma = random_proper(g, ell, rng)
            walk_and_check(g, beta, gamma, ell, bound=4)

    # Pure colour renaming costs at most 2 moves per vertex.
    for g in three_chromatic[::10] + seeded[::25]:
        ell = 5
        base, wit = chromatic_number(g)
        blocks = list(wit.blocks) + [set()] * (ell - wit.k)
        beta = BlockPartition(blocks)
        perm = list(range(ell))
        rng.shuffle(perm)
        gamma = BlockPartition([blocks[perm[i]] for i in range(ell)])
        seq = rename_moves(g, beta, gamma, ell)
        stats = verify_moves(g, seq)
        assert stats.valid and stats.end == gamma
        assert seq.max_per_vertex() <= 2

    assert time.perf_counter() - t0 < 900.0


# -- 9: frozen states are exactly the isolated states --------------------------------


@pytest.mark.slow
def test_09_frozen_equals_isolated_exhaustive():
    # Every labelled graph on up to 6 vertices, every colour budget up to 4:
    # a state is frozen iff no single-vertex change stays proper. Runs in a
    # few minutes; the move relation is rebuilt here from scratch.
    mismatches = []
    states = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            m = mask
            for i, (a, b) in enumerate(pairs):
                if m == 0:
                    break
                if m >> i & 1:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
                    m &= ~(1 << i)
            g = Graph(n, rows)
            buckets: tuple[list, ...] = ([], [], [], [])
            cols = [0] * n
            cmasks = [0, 0, 0, 0]

            def enumerate_colourings(v: int, maxc: int) -> None:
                if v == n:
                    buckets[maxc].append((tuple(cols), tuple(cmasks)))
                    return
                row = rows[v]
                for c in range(4):
                    if cmasks[c] & row:
                        continue
                    cols[v] = c
                    cmasks[c] |= 1 << v
                    enumerate_colourings(v + 1, maxc if c <= maxc else c)
                    cmasks[c] &= ~(1 << v)

            enumerate_colourings(0, 0)
            for k in range(1, 5):
                for mc in range(k):
                    for state, masks in buckets[mc]:
                        states += 1
                        isolated = True
                        for v in range(n):
                            row = rows[v]
                            cv = state[v]
                            for c in range(k):
                                if c != cv and not (masks[c] & row):
                                    isolated = False
                                    break
                            if not isolated:
                                break
                        lib = is_frozen_colouring(
                            g, BlockPartition.from_colours(state, k))
                        if lib != isolated:
                            mismatches.append((n, mask, k, state))
    assert states > 10**7
    assert mismatches == []


# -- 10: search replication -----------------------------------------------------------


def test_10_search_replication():
    report = exhaustive_small(6, PredicateSpec(gap=1, two_k2_free="graph"))
    assert report.graphs_scanned == 33867
    assert report.hits == ()

    stream = [
        encode_graph6(complement(me_complement(2).graph)),
        encode_graph6(complement(km_complement(2).graph)),
    ]
    report = scan_stream(stream, PredicateSpec(gap=1))
    assert len(report.hits) == 2
    for hit in report.hits:
        assert hit.chi == 4
        assert hit.k == 5
        g = decode_graph6(hit.graph6)
        witness = BlockPartition.from_colour_line(hit.colours, hit.k)
        assert is_frozen_colouring(g, witness)


# -- 11: complement duality ------------------------------------------------------------


def test_11_complement_duality():
    rng = random.Random(SEED)
    for _ in range(1000):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = graph_from_edges(n, edges)
        co = complement(g)

        chi, colouring = chromatic_number(g)
        theta, cover = clique_cover_number(co)
        assert chi == theta
        assert is_proper_colouring(g, colouring)
        assert is_clique_partition(co, cover)

        alpha, ind = independence_number(g)
        omega, clq = clique_number(co)
        assert alpha == omega
        assert len(set(ind)) == alpha
        assert len(set(clq)) == omega
        assert all(not g.has_edge(a, b)
                   for a, b in itertools.combinations(sorted(ind), 2))
        assert all(co.has_edge(a, b)
                   for a, b in itertools.combinations(sorted(clq), 2))
