"""Recolouring state space: enumeration, components, frozen search."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozencol import reconfig
from frozencol.families import b_t, ke_complement, me_complement
from frozencol.graph import (
    complement,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    join,
    path_graph,
)
from frozencol.partitions import BlockPartition, is_frozen_colouring, is_proper_colouring
from frozencol.reconfig import (
    CapExceeded,
    _Packing,
    find_frozen,
    frozen_k_bound,
    proper_colour_vectors,
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
    assert len(list(proper_colour_vectors(complete_graph(3), 3))) == 6
    assert len(list(proper_colour_vectors(cycle_graph(4), 2))) == 2
    assert len(list(proper_colour_vectors(path_graph(3), 3))) == 12


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
    for vec in vecs:
        p = BlockPartition.from_colours(vec, 3)
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


def test_mixing_examples():
    assert reconfiguration_components(complete_graph(3), 3).component_count > 1
    me_original = complement(me_complement(2).graph)
    assert reconfiguration_components(me_original, 5).component_count > 1


def test_truncation_flag_and_cap():
    # R_3(C_4) has 18 states: a cap below that raises, never a partial report
    with pytest.raises(CapExceeded):
        reconfiguration_components(cycle_graph(4), 3, colouring_cap=17)
    assert reconfiguration_components(cycle_graph(4), 3, colouring_cap=18).colouring_count == 18


def test_union_cap_counts_each_edge_once(monkeypatch):
    # R_3(C_4) has 18 states and 24 edges
    monkeypatch.setattr(reconfig, "DEFAULT_UNION_CAP", 24)
    assert reconfiguration_components(cycle_graph(4), 3).component_count == 1
    monkeypatch.setattr(reconfig, "DEFAULT_UNION_CAP", 23)
    with pytest.raises(CapExceeded, match="more than 23 union"):
        reconfiguration_components(cycle_graph(4), 3)


def test_report_json_shape():
    rep = reconfiguration_components(complete_graph(3), 3)
    data = rep.to_json()
    assert data["k"] == 3 and data["component_count"] == 6
    assert len(data["frozen_colourings"]) == 6
    assert sorted(data) == ["colouring_count", "component_count", "component_sizes",
                            "frozen_colourings", "k"]


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
    # the packed move mask of every state counts its neighbours in R_k
    walked = [(tuple(cols), moves.bit_count()) for _, cols, moves, _ in _Packing(g, k).walk()]
    assert walked == [(v, len(explicit_moves(g, k, v))) for v in vecs]
    # a colouring cap raises exactly when it is below the state count
    c = rng.randint(1, len(vecs) + 1)
    if c < len(vecs):
        with pytest.raises(CapExceeded):
            reconfiguration_components(g, k, colouring_cap=c)
    else:
        assert reconfiguration_components(g, k, colouring_cap=c).colouring_count == len(vecs)


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


@given(_graphs_up_to(8))
@settings(max_examples=300, deadline=None)
def test_no_frozen_colouring_above_the_bound(g):
    bound = frozen_k_bound(g)
    assert 0 <= bound <= g.n
    for k in range(bound + 1, g.n + 1):
        assert _reference_find_frozen(g, k) is None


def _cocktail_party(m):
    """K_{2m} minus the perfect matching {2i, 2i+1}."""
    return graph_from_edges(2 * m, [(u, v) for u, v in itertools.combinations(range(2 * m), 2)
                                    if u // 2 != v // 2])


def test_frozen_k_bound_is_tight():
    for n in range(1, 7):
        assert frozen_k_bound(complete_graph(n)) == n
        assert find_frozen(complete_graph(n), n) is not None
    for m in range(1, 6):
        g = _cocktail_party(m)
        assert frozen_k_bound(g) == m
        assert find_frozen(g, m).to_colours() == [i // 2 for i in range(2 * m)]
        assert _reference_find_frozen(g, m + 1) is None
    # a universal vertex joined to the m = 3 graph: 1 + 6 // 2 = 4 < delta + 1 = 6 < n = 7
    hub = join(complete_graph(1), _cocktail_party(3))
    assert frozen_k_bound(hub) == 4
    assert find_frozen(hub, 4).to_colours() == [0, 1, 1, 2, 2, 3, 3]
    assert _reference_find_frozen(hub, 5) is None
    assert frozen_k_bound(graph_from_edges(0, [])) == 0
    assert frozen_k_bound(cycle_graph(5)) == 2


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


# -- connected recolouring graphs ----------------------------------------------------


def test_recolourable_probe():
    for g, ks in ((cycle_graph(5), (4, 5)), (path_graph(4), (3, 4))):
        assert [reconfiguration_components(g, k).component_count for k in ks] == [1, 1]


# -- family certificates -------------------------------------------------------------


@pytest.mark.parametrize("inst", [me_complement(2), ke_complement(1), b_t(3)])
def test_family_frozen_partitions_are_isolated(inst):
    original = complement(inst.graph)
    assert is_frozen_colouring(original, inst.frozen)
    assert explicit_moves(original, inst.frozen.k, tuple(inst.frozen.to_colours())) == set()


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
