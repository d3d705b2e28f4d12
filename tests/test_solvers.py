"""Exact invariant solvers against brute-force oracles and known values."""

import itertools
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import frozencol.solvers as S
from frozencol.graph import (
    bits,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_edges,
)
from frozencol.partitions import (
    BlockPartition,
    is_clique_partition,
    is_proper_colouring,
)
from frozencol.solvers import (
    InvariantReport,
    analyze,
    chromatic_number,
    clique_cover_number,
    clique_number,
    independence_number,
)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def brute_chi(g):
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colours in itertools.product(range(k), repeat=g.n):
            if all(colours[u] != colours[v] for u, v in g.edges()):
                return k
    raise AssertionError("unreachable")


def brute_alpha(g):
    best = 0
    for r in range(g.n, 0, -1):
        for vs in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
                return r
    return best


def petersen():
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b])
        for a, b in itertools.combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    return graph_from_edges(10, edges)


# -- known values ----------------------------------------------------------------


def test_chromatic_known_values():
    assert chromatic_number(cycle_graph(5))[0] == 3
    assert chromatic_number(cycle_graph(6))[0] == 2
    assert chromatic_number(complete_graph(4))[0] == 4
    assert chromatic_number(empty_graph(5))[0] == 1
    assert chromatic_number(empty_graph(0))[0] == 0
    assert chromatic_number(petersen())[0] == 3
    for n in (5, 7, 9):
        assert chromatic_number(cycle_graph(n))[0] == 3


def test_independence_and_clique_known_values():
    assert independence_number(complete_graph(5))[0] == 1
    assert clique_number(cycle_graph(5))[0] == 2
    assert independence_number(petersen())[0] == 4
    assert clique_number(complete_graph(6))[0] == 6
    size, witness = independence_number(cycle_graph(8))
    assert size == 4 and len(witness) == 4


def test_clique_cover_known_values():
    assert clique_cover_number(complete_graph(7))[0] == 1
    assert clique_cover_number(empty_graph(4))[0] == 4
    assert clique_cover_number(cycle_graph(6))[0] == 3


def test_size_limit(monkeypatch):
    assert chromatic_number(empty_graph(40))[0] == 1
    with pytest.raises(ValueError, match="order 41 exceeds exactness bound 40"):
        chromatic_number(empty_graph(41))
    with pytest.raises(ValueError):
        independence_number(empty_graph(50))
    monkeypatch.setattr(S, "DEFAULT_LIMIT", 41)
    assert chromatic_number(empty_graph(41))[0] == 1


# -- witnesses --------------------------------------------------------------------


def test_witnesses_verify():
    g = petersen()
    chi, colouring = chromatic_number(g)
    assert colouring.k == chi and is_proper_colouring(g, colouring)
    theta, cover = clique_cover_number(g)
    assert cover.k == theta and is_clique_partition(g, cover)
    alpha, ind = independence_number(g)
    assert len(ind) == alpha
    assert all(not g.has_edge(u, v) for u in ind for v in ind if u < v)
    omega, clique = clique_number(g)
    assert len(clique) == omega
    assert all(g.has_edge(u, v) for u in clique for v in clique if u < v)


def test_deterministic_witnesses():
    g = random_graph(random.Random(5), 9, 0.5)
    a = chromatic_number(g)
    b = chromatic_number(g)
    assert a[0] == b[0] and a[1] == b[1]


# -- oracle cross-checks ------------------------------------------------------------


def test_solver_matches_brute_force():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert chromatic_number(g)[0] == brute_chi(g)
        assert independence_number(g)[0] == brute_alpha(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 9))
def test_duality_against_oracle(seed, n):
    g = random_graph(random.Random(seed), n, 0.5)
    assert chromatic_number(g)[0] == clique_cover_number(complement(g))[0]
    assert clique_cover_number(g)[0] == brute_chi(complement(g))
    assert clique_number(g)[0] == brute_alpha(complement(g))


# -- DSATUR kernels against the list-scanning versions they replaced ---------------


def _reference_dsatur_pick(g, colours, nbr_colours):
    v_best, key_best = -1, None
    for v in range(g.n):
        if colours[v] != -1:
            continue
        sat = nbr_colours[v].bit_count()
        deg = sum(1 for u in bits(g.rows[v]) if colours[u] == -1)
        key = (-sat, -deg, v)
        if key_best is None or key < key_best:
            v_best, key_best = v, key
    return v_best


def _reference_dsatur_greedy(g):
    n = g.n
    colours = [-1] * n
    nbr_colours = [0] * n
    for _ in range(n):
        v_best = _reference_dsatur_pick(g, colours, nbr_colours)
        c = 0
        while nbr_colours[v_best] >> c & 1:
            c += 1
        colours[v_best] = c
        for u in bits(g.rows[v_best]):
            nbr_colours[u] |= 1 << c
    return colours


def _reference_try_colouring(g, k, seed):
    n = g.n
    if len(seed) > k:
        return None
    colours = [-1] * n
    nbr_colours = [0] * n

    def set_colour(v, c):
        colours[v] = c
        for u in bits(g.rows[v]):
            nbr_colours[u] |= 1 << c

    def recount(v):
        mask = 0
        for u in bits(g.rows[v]):
            if colours[u] != -1:
                mask |= 1 << colours[u]
        nbr_colours[v] = mask

    for i, v in enumerate(seed):
        if colours[v] != -1 or nbr_colours[v] >> i & 1:
            return None
        set_colour(v, i)

    def extend(done, max_used):
        if done == n:
            return True
        v = _reference_dsatur_pick(g, colours, nbr_colours)
        top = min(k - 1, max_used + 1)
        for c in range(top + 1):
            if nbr_colours[v] >> c & 1:
                continue
            set_colour(v, c)
            if extend(done + 1, max(max_used, c)):
                return True
            colours[v] = -1
            for u in bits(g.rows[v]):
                recount(u)
        return False

    if extend(len(seed), len(seed) - 1):
        return colours
    return None


def _reference_max_independent_mask(rows, n):
    best = [S._greedy_independent(rows, (1 << n) - 1)]

    def grow(pool, cur, cur_size):
        if cur_size + pool.bit_count() <= best[0].bit_count():
            return
        if not pool:
            best[0] = cur
            return
        pivot, pivot_deg = -1, -1
        for v in bits(pool):
            d = (rows[v] & pool).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        grow(pool & ~rows[pivot] & ~(1 << pivot), cur | 1 << pivot, cur_size + 1)
        grow(pool & ~(1 << pivot), cur, cur_size)

    grow((1 << n) - 1, 0, 0)
    return best[0]


def _reference_chromatic_number(g):
    """chromatic_number computing both lower bounds up front."""
    if g.n == 0:
        return 0, BlockPartition([])
    clique_size, clique = clique_number(g)
    alpha, _ = independence_number(g)
    lower = max(clique_size, -(-g.n // alpha))
    greedy = S._dsatur_greedy(g)
    upper = max(greedy) + 1
    best = greedy
    for k in range(lower, upper):
        attempt = S._try_colouring(g, k, sorted(clique))
        if attempt is not None:
            best = attempt
            break
    chi = max(best) + 1
    return chi, BlockPartition.from_colours(best, chi)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), st.floats(0, 1), st.integers(0, 2**30))
def test_dsatur_kernels_match_reference(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert S._dsatur_greedy(g) == _reference_dsatur_greedy(g)
    clique = sorted(clique_number(g)[1]) if n else []
    for k in range(1, n + 1):
        for pinned in ([], clique, clique[:1]):
            assert S._try_colouring(g, k, pinned) == _reference_try_colouring(g, k, pinned)
    for rows in (g.rows, complement(g).rows):
        assert S._max_independent_mask(rows, n) == _reference_max_independent_mask(rows, n)
    with patch.object(S, "_dsatur_greedy", _reference_dsatur_greedy), \
            patch.object(S, "_try_colouring", _reference_try_colouring), \
            patch.object(S, "_max_independent_mask", _reference_max_independent_mask):
        expected = _reference_chromatic_number(g)
    assert chromatic_number(g) == expected


def test_alpha_is_solved_only_when_the_clique_misses_the_greedy_bound():
    calls = []
    solve = S.independence_number

    def counted(g):
        calls.append(g)
        return solve(g)

    with patch.object(S, "independence_number", counted):
        assert chromatic_number(complete_graph(4))[0] == 4
        assert len(calls) == 1  # the clique search on the complement only
        assert chromatic_number(cycle_graph(5))[0] == 3
        assert len(calls) == 3  # omega = 2 < 3 = greedy: alpha bounds chi


def test_try_colouring_rejects_repeated_seed_vertex():
    g = cycle_graph(5)
    assert S._try_colouring(g, 3, [0, 0]) is None
    assert S._try_colouring(g, 1, [0, 1]) is None
    assert S._try_colouring(g, 3, [0, 1]) == _reference_try_colouring(g, 3, [0, 1])


# -- combined report -----------------------------------------------------------------


def test_analyze_c4():
    rep = analyze(cycle_graph(4))
    assert rep.chi == 2 and rep.alpha == 2 and rep.omega == 2 and rep.theta == 2
    assert rep.edge_count == 4
    assert not rep.c4_free
    assert rep.twok2_free and rep.p4_free and rep.p5_free
    data = rep.to_json()
    assert data["2k2_free"] is True and data["chi"] == 2
    assert data["witnesses"]["alpha"] == sorted(data["witnesses"]["alpha"])


def test_analyze_two_cliques_with_matching():
    # Two K4 blocks joined by a perfect matching: covered by the two cliques.
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i, j in edges[:]]
    edges += [(i, i + 4) for i in range(4)]
    g = graph_from_edges(8, edges)
    rep = analyze(g)
    assert rep.theta == 2 and rep.alpha == 2 and rep.omega == 4
    assert not rep.c4_free  # e.g. 0,1 with 4,5: 0-4, 1-5, 0-1, 4-5


def test_analyze_reports_p_flags():
    rep = analyze(cycle_graph(7))
    assert rep.chi == 3 and not rep.p5_free and not rep.p4_free
    assert rep.c4_free and rep.twok2_free is False
