"""Recolouring state space: enumeration, components, frozen search, diameter."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozencol.families import b_t, ke_complement, me_complement
from frozencol.graph import (
    complement,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
)
from frozencol.partitions import BlockPartition, is_frozen_colouring, is_proper_colouring
from frozencol.reconfig import (
    CapExceeded,
    colouring_degree,
    enumerate_colourings,
    find_frozen,
    is_k_mixing,
    proper_colour_vectors,
    recolourable_up_to,
    recolouring_diameter,
    reconfiguration_components,
    reconfiguration_dot,
)


GOLDEN = json.loads((Path(__file__).parent / "golden" / "reconfig.json").read_text())


def brute_vectors(g, k):
    """All proper colour vectors by filtering the full product."""
    out = []
    for vec in itertools.product(range(k), repeat=g.n):
        if all(vec[u] != vec[v] for u, v in g.edges()):
            out.append(vec)
    return out


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


# -- enumeration -----------------------------------------------------------------


def test_known_counts():
    assert len(list(enumerate_colourings(complete_graph(3), 3))) == 6
    assert len(list(enumerate_colourings(cycle_graph(4), 2))) == 2
    assert len(list(enumerate_colourings(path_graph(3), 3))) == 12


def test_complete_graph_counts_are_falling_factorials():
    for k in range(1, 6):
        for n in range(1, k + 1):
            got = len(list(proper_colour_vectors(complete_graph(n), k)))
            assert got == math.factorial(k) // math.factorial(k - n)


def test_lexicographic_order_and_properness():
    g = cycle_graph(5)
    vecs = list(proper_colour_vectors(g, 3))
    assert vecs == sorted(vecs)
    assert vecs == brute_vectors(g, 3)
    for p in enumerate_colourings(g, 3):
        assert p.k == 3 and is_proper_colouring(g, p)


def test_degenerate_sizes():
    no_vertices = graph_from_edges(0, [])
    assert list(proper_colour_vectors(no_vertices, 3)) == [()]
    assert list(proper_colour_vectors(complete_graph(2), 0)) == []
    assert list(proper_colour_vectors(complete_graph(2), 1)) == []
    with pytest.raises(ValueError):
        list(proper_colour_vectors(complete_graph(2), -1))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(proper_colour_vectors(cycle_graph(4), 3, cap=5))


@given(st.integers(0, 2**15 - 1), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(mask, k):
    edges = [e for i, e in enumerate(itertools.combinations(range(6), 2)) if mask >> i & 1]
    g = graph_from_edges(6, edges)
    assert list(proper_colour_vectors(g, k)) == brute_vectors(g, k)


# -- components and frozen states ---------------------------------------------------


def test_complete_graph_is_fully_frozen():
    rep = reconfiguration_components(complete_graph(3), 3)
    assert rep.colouring_count == 6
    assert rep.component_count == 6
    assert rep.component_sizes == (1,) * 6
    assert len(rep.frozen_colourings) == 6
    for p in rep.frozen_colourings:
        assert is_frozen_colouring(complete_graph(3), p)


def test_c6_has_exactly_the_six_antipodal_frozen_states():
    rep = reconfiguration_components(cycle_graph(6), 3)
    assert len(rep.frozen_colourings) == 6
    antipodal = {frozenset({frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})})}
    assert {frozenset(p.blocks) for p in rep.frozen_colourings} == antipodal
    assert rep.component_count > 1
    assert sum(rep.component_sizes) == rep.colouring_count


def test_path_is_mixing():
    rep = reconfiguration_components(path_graph(3), 3)
    assert rep.component_count == 1
    assert rep.frozen_colourings == ()
    assert is_k_mixing(path_graph(3), 3)


def test_mixing_examples():
    assert not is_k_mixing(complete_graph(3), 3)
    me_original = complement(me_complement(2).graph)
    assert not is_k_mixing(me_original, 5)


def test_vacuous_mixing_warns():
    with pytest.warns(UserWarning, match="vacuously"):
        assert is_k_mixing(cycle_graph(5), 2)


def test_truncation_flag_and_cap():
    with pytest.raises(CapExceeded):
        reconfiguration_components(cycle_graph(4), 3, colouring_cap=5)
    rep = reconfiguration_components(cycle_graph(4), 3, colouring_cap=5, truncate=True)
    assert rep.truncated and rep.colouring_count == 5


def test_union_cap_counts_each_edge_once():
    # R_3(C_4) has 18 states and 24 edges
    assert reconfiguration_components(cycle_graph(4), 3, union_cap=24).component_count == 1
    with pytest.raises(CapExceeded, match="union"):
        reconfiguration_components(cycle_graph(4), 3, union_cap=23)


def test_union_cap_truncation_is_a_consistent_prefix():
    g = cycle_graph(4)
    rep = reconfiguration_components(g, 3, union_cap=10, truncate=True)
    assert rep.truncated
    m = rep.colouring_count
    vecs = brute_vectors(g, 3)
    assert 0 < m < len(vecs)
    assert sum(rep.component_sizes) == m
    assert list(rep.component_sizes) == oracle_components(g, 3, vecs[:m])
    # the first m states span at most 10 edges; one more state crosses the cap
    assert edge_count(g, 3, vecs[:m]) <= 10 < edge_count(g, 3, vecs[: m + 1])


def test_report_json_shape():
    rep = reconfiguration_components(complete_graph(3), 3)
    data = rep.to_json()
    assert data["k"] == 3 and data["component_count"] == 6
    assert len(data["frozen_colourings"]) == 6
    assert data["truncated"] is False


def explicit_moves(g, k, vec):
    """Move targets of one state, the slow way."""
    out = set()
    for v in range(g.n):
        for c in range(k):
            if c == vec[v]:
                continue
            if all(vec[u] != c for u in g.neighbour_list(v)):
                out.add(vec[:v] + (c,) + vec[v + 1 :])
    return out


def oracle_components(g, k, states):
    """Sorted component sizes of the move relation restricted to states, by BFS."""
    inside = set(states)
    seen = set()
    sizes = []
    for s in states:
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        size = 0
        while queue:
            x = queue.pop()
            size += 1
            for y in explicit_moves(g, k, x):
                if y in inside and y not in seen:
                    seen.add(y)
                    queue.append(y)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def edge_count(g, k, states):
    inside = set(states)
    return sum(len(explicit_moves(g, k, s) & inside) for s in states) // 2


@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_components_match_bfs_oracle(seed, n, k):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    vecs = brute_vectors(g, k)
    rep = reconfiguration_components(g, k)
    sizes = oracle_components(g, k, vecs)
    assert rep.colouring_count == len(vecs)
    assert rep.component_count == len(sizes)
    assert list(rep.component_sizes) == sizes
    frozen = [v for v in vecs if not explicit_moves(g, k, v) and len(set(v)) == k]
    assert [tuple(p.to_colours()) for p in rep.frozen_colourings] == frozen
    for v in vecs[:: max(1, len(vecs) // 7)]:
        p = BlockPartition.from_colours(v, k)
        assert colouring_degree(g, p) == len(explicit_moves(g, k, v))
    # truncation keeps exactly the first c states in lex order
    c = rng.randint(1, len(vecs)) if vecs else 1
    part = reconfiguration_components(g, k, colouring_cap=c, truncate=True)
    assert part.truncated == (c < len(vecs))
    assert part.colouring_count == min(c, len(vecs))
    sizes = oracle_components(g, k, vecs[:c])
    assert (part.component_count, list(part.component_sizes)) == (len(sizes), sizes)
    assert [tuple(p.to_colours()) for p in part.frozen_colourings] == [
        v for v in frozen if v in set(vecs[:c])]


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_move_relation_is_symmetric(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 5), 0.5)
    for vec in proper_colour_vectors(g, k):
        for other in explicit_moves(g, k, vec):
            assert vec in explicit_moves(g, k, other)


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_frozen_report_matches_checker_by_brute_force(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 6), 0.5)
    rep = reconfiguration_components(g, k)
    expect = set()
    for vec in proper_colour_vectors(g, k):
        p = BlockPartition.from_colours(vec, k)
        try:
            frozen = is_frozen_colouring(g, p)
        except ValueError:
            frozen = False
        if frozen:
            expect.add(p)
    assert set(rep.frozen_colourings) == expect


# -- diameter ------------------------------------------------------------------


def test_k2_three_colour_diameter():
    d = recolouring_diameter(complete_graph(2), 3)
    assert d == 3  # R_3(K_2) is a 6-cycle
    assert d <= 4 * 2


def test_star_diameter_within_bound():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d = recolouring_diameter(star, 3)
    assert isinstance(d, int) and d <= 16


def test_c5_four_colours_diameter_within_bound():
    d = recolouring_diameter(cycle_graph(5), 4)
    assert isinstance(d, int) and d <= 14 * 5


def test_diameters_match_goldens():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    graphs = {"k2_k3": (complete_graph(2), 3), "star_k3": (star, 3),
              "c5_k4": (cycle_graph(5), 4), "p4_k3": (path_graph(4), 3),
              "k3_k3": (complete_graph(3), 3), "c6_k3": (cycle_graph(6), 3),
              "c4_k3": (cycle_graph(4), 3)}
    for name, (g, k) in graphs.items():
        d = recolouring_diameter(g, k)
        want = GOLDEN["diameter"][name]
        assert d == (tuple(want) if isinstance(want, list) else want), name


def test_disconnected_diameters_and_bfs_cap():
    d = recolouring_diameter(complete_graph(3), 3)
    assert d == (0,) * 6
    with pytest.raises(CapExceeded):
        recolouring_diameter(cycle_graph(5), 4, bfs_cap=10)
    with pytest.raises(ValueError):
        recolouring_diameter(cycle_graph(5), 2)


# -- frozen search ----------------------------------------------------------------


def test_find_frozen_on_cycles():
    assert find_frozen(cycle_graph(6), 3) is not None
    assert find_frozen(cycle_graph(8), 3) is None
    assert find_frozen(cycle_graph(5), 3) is None
    p = find_frozen(cycle_graph(9), 3)
    assert p is not None and is_frozen_colouring(cycle_graph(9), p)


def test_find_frozen_on_family_instances():
    me_original = complement(me_complement(2).graph)
    p = find_frozen(me_original, 5)
    assert p is not None and is_frozen_colouring(me_original, p)
    assert find_frozen(complete_graph(4), 4) is not None
    assert find_frozen(complete_graph(4), 5) is None  # k exceeds n


@given(st.integers(0, 10**9), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_find_frozen_agrees_with_explicit_search(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.5, 0.7]))
    rep = reconfiguration_components(g, k)
    found = find_frozen(g, k)
    assert (found is not None) == (len(rep.frozen_colourings) > 0)
    if found is not None:
        assert is_frozen_colouring(g, found)


def _reference_find_frozen(g, k):
    """The plain frozen-colouring DFS: properness, growth and count prunes only."""
    n = g.n
    if k == 0:
        return BlockPartition([]) if n == 0 else None
    if n == 0 or k > n:
        return None
    if any(g.degree(v) < k - 1 for v in range(n)):
        return None
    full = (1 << k) - 1
    nbrs = [g.neighbour_list(v) for v in range(n)]
    cols = [-1] * n
    seen = [0] * n  # colours among assigned neighbours, as a bitmask
    cnt = [[0] * k for _ in range(n)]  # per-colour assigned-neighbour counts
    pending = [len(nbrs[v]) for v in range(n)]

    def feasible(v):
        missing = full & ~seen[v] & ~(1 << cols[v])
        return missing.bit_count() <= pending[v]

    def rec(v, used):
        if v == n:
            return BlockPartition.from_colours(cols, k)
        for c in range(min(k - 1, used) + 1):
            if seen[v] >> c & 1:
                continue
            now_used = used + (1 if c == used else 0)
            if k - now_used > n - v - 1:
                continue
            cols[v] = c
            bit = 1 << c
            ok = True
            for u in nbrs[v]:
                pending[u] -= 1
                cnt[u][c] += 1
                seen[u] |= bit
            if not feasible(v):
                ok = False
            else:
                for u in nbrs[v]:
                    if cols[u] >= 0:
                        if not feasible(u):
                            ok = False
                            break
                    elif seen[u] == full:
                        ok = False
                        break
            if ok:
                found = rec(v + 1, now_used)
                if found is not None:
                    return found
            for u in nbrs[v]:
                pending[u] += 1
                cnt[u][c] -= 1
                if cnt[u][c] == 0:
                    seen[u] &= ~bit
            cols[v] = -1
        return None

    return rec(0, 0)


def _graphs_up_to(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
            lambda mask: graph_from_edges(n, [
                e for i, e in enumerate(itertools.combinations(range(n), 2)) if mask >> i & 1
            ])
        )
    )


@given(_graphs_up_to(8))
@settings(max_examples=300, deadline=None)
def test_find_frozen_returns_the_reference_witness(g):
    for k in range(g.n + 2):
        found, expected = find_frozen(g, k), _reference_find_frozen(g, k)
        assert (found and found.to_colour_line()) == (expected and expected.to_colour_line())


@given(_graphs_up_to(9), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_witness_classes_are_maximal_independent_sets(g, k):
    found = find_frozen(g, k)
    if found is None:
        return
    everyone = (1 << g.n) - 1
    for mask in found.block_masks():
        assert mask and not any(g.rows[v] & mask for v in range(g.n) if mask >> v & 1)
        dominated = mask
        for v in range(g.n):
            if mask >> v & 1:
                dominated |= g.rows[v]
        assert dominated == everyone


def test_find_frozen_on_disjoint_triangles():
    g = graph_from_edges(30, [(3 * i + a, 3 * i + b) for i in range(10)
                              for a, b in ((0, 1), (0, 2), (1, 2))])
    assert find_frozen(g, 2) is None
    assert find_frozen(g, 3).to_colour_line() == " ".join(["0 1 2"] * 10)


def test_find_frozen_on_long_cycles():
    assert find_frozen(cycle_graph(30), 3).to_colour_line() == " ".join(["0 1 2"] * 10)
    assert find_frozen(cycle_graph(31), 3) is None


def test_find_frozen_on_complete_multipartite():
    part = [0, 1, 2, 1, 2, 2, 0, 1, 2]  # K_{2,3,4}: the parts are the only frozen classes
    g = graph_from_edges(9, [(u, v) for u, v in itertools.combinations(range(9), 2)
                             if part[u] != part[v]])
    assert find_frozen(g, 3).to_colours() == part
    assert find_frozen(g, 2) is None
    assert find_frozen(g, 4) is None


# -- bounded recolourability probe ---------------------------------------------------


def test_recolourable_probe():
    assert recolourable_up_to(cycle_graph(5), 5) == [(4, True), (5, True)]
    assert recolourable_up_to(path_graph(4), 4) == [(3, True), (4, True)]
    me_original = complement(me_complement(2).graph)
    assert (5, False) in recolourable_up_to(me_original, 5)


# -- degree helper and family certificates -------------------------------------------


def test_colouring_degree():
    g = cycle_graph(6)
    frozen = BlockPartition([{0, 3}, {1, 4}, {2, 5}])
    assert colouring_degree(g, frozen) == 0
    thawed = BlockPartition.from_colours([0, 1, 0, 1, 0, 1], 3)
    assert colouring_degree(g, thawed) > 0
    with pytest.raises(ValueError):
        colouring_degree(g, BlockPartition.from_colours([0, 0, 1, 1, 2, 2], 3))


@pytest.mark.parametrize("inst", [me_complement(2), ke_complement(1), b_t(3)])
def test_family_frozen_partitions_are_isolated(inst):
    original = complement(inst.graph)
    assert is_frozen_colouring(original, inst.frozen)
    assert colouring_degree(original, inst.frozen) == 0


# -- DOT export ------------------------------------------------------------------


def test_dot_export():
    dot = reconfiguration_dot(complete_graph(2), 3)
    assert dot.startswith("graph reconfig {")
    assert dot.count("[label=") == 6
    assert dot.count(" -- ") == 6  # a 6-cycle


def test_dot_export_is_byte_identical_to_golden():
    assert reconfiguration_dot(cycle_graph(4), 3) == GOLDEN["dot"]["c4_k3"]
    assert reconfiguration_dot(path_graph(3), 3) == GOLDEN["dot"]["p3_k3"]


def test_frozen_states_come_in_lexicographic_order():
    graphs = {"k4_k4": (complete_graph(4), 4), "c6_k3": (cycle_graph(6), 3),
              "c9_k3": (cycle_graph(9), 3),
              "me2bar_k5": (complement(me_complement(2).graph), 5)}
    for name, (g, k) in graphs.items():
        got = [p.to_colours() for p in reconfiguration_components(g, k).frozen_colourings]
        assert got == GOLDEN["frozen_order"][name] == sorted(got), name
