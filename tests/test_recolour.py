"""Verified move sequences: renaming, canonicalisation, and bounded paths."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozencol.graph import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_induced,
    graph_from_edges,
    join,
    path_graph,
)
from frozencol.families import b_t
from frozencol.partitions import BlockPartition, is_proper_colouring
from frozencol.recolour import (
    CanonicalContext,
    MoveSequence,
    bipartite_canonical_moves,
    canonical_moves,
    complete_vertex,
    maximal_first_partition,
    path_between,
    rename_moves,
    single_colour_part_moves,
    verify_moves,
)
from frozencol.reconfig import proper_colour_vectors
from frozencol.solvers import chromatic_number


def colouring(cols, k):
    return BlockPartition.from_colours(list(cols), k)


def graph_from_mask(n, mask):
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if mask & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        mask >>= 1
    return Graph(n, rows)


# -- move sequences and replay -----------------------------------------------------


def test_empty_sequence_on_proper_start_is_valid():
    g = cycle_graph(5)
    seq = MoveSequence(colouring([0, 1, 0, 1, 2], 3), (), 3)
    stats = verify_moves(g, seq)
    assert stats.valid and stats.total == 0 and stats.max_per_vertex == 0
    assert stats.end == seq.start


def test_replay_tracks_counts_and_end():
    g = path_graph(3)
    seq = MoveSequence(colouring([0, 1, 0], 4), ((0, 2), (1, 3), (0, 1)), 4)
    stats = verify_moves(g, seq)
    assert stats.valid
    assert stats.per_vertex == (2, 1, 0)
    assert stats.max_per_vertex == 2 and stats.total == 3
    assert stats.end == colouring([1, 3, 0], 4)
    assert seq.end_colours() == [1, 3, 0]
    assert seq.to_json() == {
        "ell": 4,
        "start": "0 1 0",
        "moves": [[0, 2], [1, 3], [0, 1]],
        "total": 3,
        "per_vertex_max": 2,
    }


def test_replay_rejects_improper_start():
    g = path_graph(2)
    stats = verify_moves(g, MoveSequence(colouring([0, 0], 2), (), 2))
    assert not stats.valid and stats.failure_index == -1


def test_replay_rejects_conflicting_move():
    g = path_graph(3)
    seq = MoveSequence(colouring([0, 1, 0], 3), ((0, 2), (2, 2), (2, 1)), 3)
    stats = verify_moves(g, seq)
    assert not stats.valid and stats.failure_index == 2  # 2 -> 1 conflicts with 1


def test_replay_rejects_noops_and_out_of_range():
    g = path_graph(2)
    start = colouring([0, 1], 3)
    assert verify_moves(g, MoveSequence(start, ((0, 0),), 3)).failure_index == 0
    assert verify_moves(g, MoveSequence(start, ((0, 3),), 3)).failure_index == 0
    assert verify_moves(g, MoveSequence(start, ((5, 2),), 3)).failure_index == 0


# -- renaming ----------------------------------------------------------------------


def test_rename_identity_is_empty():
    g = cycle_graph(4)
    beta = colouring([0, 1, 0, 1], 3)
    assert rename_moves(g, beta, beta, 3).moves == ()


def test_rename_swap_on_one_edge_parks_a_class():
    g = complete_graph(2)
    seq = rename_moves(g, colouring([0, 1], 3), colouring([1, 0], 3), 3)
    assert seq.moves == ((1, 2), (0, 1), (1, 0))
    assert seq.max_per_vertex() == 2


def test_rename_shift_to_free_colour_is_one_move_each():
    g = cycle_graph(4)
    seq = rename_moves(g, colouring([0, 1, 0, 1], 3), colouring([0, 2, 0, 2], 3), 3)
    assert seq.per_vertex_counts() == [0, 1, 0, 1]


def test_rename_rejects_different_partitions():
    g = path_graph(3)
    with pytest.raises(ValueError, match="different partitions"):
        rename_moves(g, colouring([0, 1, 0], 3), colouring([0, 1, 2], 3), 3)


def test_rename_rejects_missing_spare():
    g = complete_graph(2)
    with pytest.raises(ValueError, match="spare"):
        rename_moves(g, colouring([0, 1], 2), colouring([1, 0], 2), 2)


@settings(max_examples=120, deadline=None)
@given(
    mask=st.integers(min_value=0, max_value=(1 << 15) - 1),
    seed=st.integers(min_value=0, max_value=999),
)
def test_rename_property_random_permutations(mask, seed):
    g = graph_from_mask(6, mask)
    chi, witness = chromatic_number(g)
    ell = chi + 1
    cols = witness.to_colours()
    beta = colouring(cols, ell)
    rng = random.Random(seed)
    perm = list(range(ell))
    rng.shuffle(perm)
    gamma = colouring([perm[c] for c in cols], ell)
    seq = rename_moves(g, beta, gamma, ell)
    assert seq.max_per_vertex() <= 2
    assert seq.end_partition() == gamma
    assert verify_moves(g, seq).valid


# -- contexts ----------------------------------------------------------------------


def test_maximal_first_partition_grows_first_part():
    ctx = maximal_first_partition(cycle_graph(5), 3)
    assert [sorted(p) for p in ctx.parts] == [[0, 2], [1, 3], [4]]
    assert (complete_vertex(ctx, 1), complete_vertex(ctx, 2)) == (2, 0)


def test_maximal_first_partition_star_centre_blocks_growth():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ctx = maximal_first_partition(star, 2)
    # the leaves fold into whichever side the solver lists first
    assert {frozenset(p) for p in ctx.parts} == {frozenset({0}), frozenset({1, 2, 3})}


def test_maximal_first_partition_rejects_high_chromatic():
    with pytest.raises(ValueError, match="exceeds"):
        maximal_first_partition(complete_graph(4), 3)
    with pytest.raises(ValueError, match="exceeds"):
        maximal_first_partition(cycle_graph(5), 2)


def test_maximal_first_partition_is_deterministic():
    a = maximal_first_partition(cycle_graph(6), 3)
    b = maximal_first_partition(cycle_graph(6), 3)
    assert a == b


def test_context_rejects_bad_shapes():
    with pytest.raises(ValueError, match="nonempty"):
        CanonicalContext(empty_graph(1), (frozenset(),))


@pytest.mark.parametrize("parts, message", [
    (({0, 2}, {1, 3, 4}), "part 1 is not independent"),
    (({0, 2}, {1, 3}, {2, 4}), "parts overlap"),
    (({0, 2}, {1, 3}), "parts do not cover the vertex set"),
    (({0}, {1, 3}, {2, 4}), "first part is not maximal: vertex 2 fits"),
    (((), {0, 2}, {1, 3, 4}), "first part must be nonempty"),
    (({0, 2}, {1, 3}, {4}, ()), "need two or three parts"),
])
def test_context_rejects_invalid_partitions(parts, message):
    with pytest.raises(ValueError, match=message):
        CanonicalContext(cycle_graph(5), tuple(frozenset(p) for p in parts))


def test_path_between_checks_its_context_once(monkeypatch):
    calls = []
    check = CanonicalContext.__post_init__

    def counted(ctx):
        calls.append(ctx)
        check(ctx)

    monkeypatch.setattr(CanonicalContext, "__post_init__", counted)
    g = cycle_graph(5)
    seq = path_between(g, colouring([0, 1, 0, 1, 2], 4), colouring([3, 2, 3, 0, 1], 4), 4)
    assert len(seq) > 0
    assert len(calls) == 1


def test_complete_vertex_on_complete_bipartite():
    g = join(empty_graph(2), empty_graph(3))
    ctx = maximal_first_partition(g, 2)
    x = complete_vertex(ctx, 1)
    assert all(g.has_edge(x, u) for u in ctx.parts[1])


def test_complete_vertex_vacuous_on_empty_part():
    g = path_graph(3)  # chi = 2, third part empty
    ctx = maximal_first_partition(g, 3)
    assert ctx.parts[2] == frozenset()
    assert complete_vertex(ctx, 2) in ctx.parts[0]


def test_complete_vertex_reports_2k2_witness():
    g = complement(b_t(3).graph)  # K_{3,3} minus a perfect matching contains 2K2
    ctx = CanonicalContext(g, (frozenset({0, 1, 2}), frozenset({3, 4, 5})))
    with pytest.raises(ValueError, match="2K2"):
        complete_vertex(ctx, 1)


# -- bipartite pipeline ------------------------------------------------------------


def test_bipartite_canonical_single_move_each():
    g = cycle_graph(4)
    ctx = maximal_first_partition(g, 2)
    beta = colouring([0, 1, 2, 1], 3)
    seq = bipartite_canonical_moves(ctx, beta, 3)
    assert seq.max_per_vertex() <= 1
    end = seq.end_colours()
    assert len({end[v] for v in ctx.parts[0]}) == 1
    assert len({end[v] for v in ctx.parts[1]}) == 1


def test_bipartite_exhaustive_families():
    for g in (cycle_graph(4), join(empty_graph(3), empty_graph(3)), path_graph(4)):
        ctx = maximal_first_partition(g, 2)
        for ell in (3, 4):
            for vec in proper_colour_vectors(g, ell):
                seq = bipartite_canonical_moves(ctx, colouring(vec, ell), ell)
                assert seq.max_per_vertex() <= 1


def test_bipartite_rejects_2k2_graph():
    g = path_graph(5)  # the two end edges form an induced 2K2
    ctx = maximal_first_partition(g, 2)
    with pytest.raises(ValueError, match="2K2"):
        bipartite_canonical_moves(ctx, colouring([0, 1, 0, 1, 0], 3), 3)


# -- monochromatic-part canonicalisation --------------------------------------------


def c5_ctx():
    return cycle_graph(5), maximal_first_partition(cycle_graph(5), 3)


def test_single_colour_part_reaches_two_smallest_colours():
    g, ctx = c5_ctx()  # parts ({0,2}, {1,3}, {4})
    psi = colouring([2, 0, 2, 3, 1], 4)  # part 0 monochromatic in colour 2
    seq = single_colour_part_moves(ctx, psi, 0, 4)
    assert seq.max_per_vertex() <= 4
    counts = seq.per_vertex_counts()
    assert counts[0] == 0 and counts[2] == 0
    end = seq.end_colours()
    assert end == [2, 0, 2, 0, 1]  # parts keep 2 and take the two smallest others


def test_single_colour_part_handles_stray_vertices():
    # colour of the monochromatic part also appears outside it: the strays
    # fold back into their own parts at the end
    g, ctx = c5_ctx()
    psi = colouring([0, 1, 2, 1, 2], 4)  # part 2 holds colour 2, vertex 2 too
    seq = single_colour_part_moves(ctx, psi, 2, 4)
    counts = seq.per_vertex_counts()
    assert counts[4] == 0
    assert counts[2] >= 1  # the stray moved back into its own part's colour
    assert seq.end_colours() == [0, 1, 0, 1, 2]


def test_single_colour_part_already_canonical_is_a_renaming():
    g, ctx = c5_ctx()
    psi = colouring([3, 0, 3, 0, 1], 4)  # canonical partition, part 0 on colour 3
    seq = single_colour_part_moves(ctx, psi, 0, 4)
    assert all(seq.per_vertex_counts()[v] == 0 for v in ctx.parts[0])
    assert seq.max_per_vertex() <= 2  # pure renaming of the other two parts
    assert seq.end_colours() == [3, 0, 3, 0, 1]


def test_single_colour_part_exact_target_is_empty():
    g, ctx = c5_ctx()
    psi = colouring([2, 0, 2, 0, 1], 4)
    assert single_colour_part_moves(ctx, psi, 0, 4).moves == ()


def test_single_colour_part_validates_input():
    g, ctx = c5_ctx()
    with pytest.raises(ValueError, match="at least 4"):
        single_colour_part_moves(ctx, colouring([2, 0, 2, 0, 1], 3), 0, 3)
    with pytest.raises(ValueError, match="need one"):
        single_colour_part_moves(ctx, colouring([2, 0, 3, 0, 1], 4), 0, 4)


def test_single_colour_part_exhaustive_c5():
    g, ctx = c5_ctx()
    hit = 0
    for vec in proper_colour_vectors(g, 4):
        for i in range(3):
            if len({vec[v] for v in ctx.parts[i]}) != 1:
                continue
            hit += 1
            seq = single_colour_part_moves(ctx, colouring(vec, 4), i, 4)
            counts = seq.per_vertex_counts()
            assert all(counts[v] == 0 for v in ctx.parts[i])
            assert seq.max_per_vertex() <= 4
            end = seq.end_colours()
            assert all(len({end[v] for v in part}) == 1 for part in ctx.parts if part)
    assert hit > 100


# -- full canonicalisation ---------------------------------------------------------


def assert_canonical_run(g, ctx, beta, ell):
    seq = canonical_moves(ctx, beta, ell)
    assert seq.max_per_vertex() <= 6
    end = seq.end_colours()
    for colour, part in enumerate(ctx.parts):
        assert all(end[v] == colour for v in part)
    return seq


def test_canonical_dominating_vertex_shortcut():
    # the paw: vertex 1 is adjacent to everything outside its part
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    ctx = maximal_first_partition(g, 3)
    assert_canonical_run(g, ctx, colouring([0, 1, 2, 3], 4), 4)


def test_canonical_equal_anchor_colours():
    # both complete vertices share a colour: the first part monochromes at once
    g = graph_from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    ctx = maximal_first_partition(g, 3)
    x2, x3 = complete_vertex(ctx, 1), complete_vertex(ctx, 2)
    assert x2 != x3
    beta = colouring([0, 1, 0, 1, 2], 4)
    assert beta.to_colours()[x2] == beta.to_colours()[x3]
    assert_canonical_run(g, ctx, beta, 4)


def test_canonical_case_staging_leaves_first_part_colour():
    # after staging, a first-part vertex keeps a colour no one else holds
    g = graph_from_edges(
        8,
        [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 7), (2, 5),
         (3, 4), (3, 5), (4, 5), (4, 7), (5, 7), (6, 7)],
    )
    assert find_induced(g, "2K2") is None
    ctx = maximal_first_partition(g, 3)
    assert_canonical_run(g, ctx, colouring([0, 2, 3, 3, 2, 1, 2, 0], 4), 4)


def test_canonical_case_colour_missing_from_a_part():
    g = graph_from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    ctx = maximal_first_partition(g, 3)
    assert_canonical_run(g, ctx, colouring([0, 0, 1, 2, 1], 4), 4)


def test_canonical_case_both_extras_on_both_parts():
    # neither extra colour is absent anywhere: the orientation step fires
    g = graph_from_edges(
        8,
        [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
         (1, 5), (1, 7), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (4, 7)],
    )
    assert find_induced(g, "2K2") is None
    ctx = maximal_first_partition(g, 3)
    assert_canonical_run(g, ctx, colouring([2, 3, 1, 0, 2, 0, 3, 1], 4), 4)


def test_canonical_rejects_wrong_chromatic_number():
    g = cycle_graph(4)
    ctx3 = CanonicalContext(g, (frozenset({0, 2}), frozenset({1, 3}), frozenset()))
    with pytest.raises(ValueError, match="3-chromatic"):
        canonical_moves(ctx3, colouring([0, 1, 0, 1], 4), 4)


def test_canonical_rejects_small_budget():
    g, ctx = c5_ctx()
    with pytest.raises(ValueError, match="at least 4"):
        canonical_moves(ctx, colouring([0, 1, 0, 1, 2], 3), 3)


def test_canonical_exhaustive_c5():
    g, ctx = c5_ctx()
    for vec in proper_colour_vectors(g, 4):
        assert_canonical_run(g, ctx, colouring(vec, 4), 4)


# -- end-to-end paths --------------------------------------------------------------


def test_path_between_equal_endpoints_is_empty():
    g = cycle_graph(5)
    beta = colouring([0, 1, 0, 1, 2], 4)
    assert path_between(g, beta, beta, 4).moves == ()


def test_path_between_bipartite_bound():
    g = join(empty_graph(3), empty_graph(3))
    vecs = list(proper_colour_vectors(g, 3))
    rng = random.Random(5)
    for _ in range(30):
        beta = colouring(rng.choice(vecs), 3)
        gamma = colouring(rng.choice(vecs), 3)
        seq = path_between(g, beta, gamma, 3)
        assert seq.max_per_vertex() <= 4
        assert seq.end_partition() == gamma


def test_path_between_three_chromatic_bound():
    g = cycle_graph(5)
    vecs = list(proper_colour_vectors(g, 4))
    rng = random.Random(6)
    for _ in range(40):
        beta = colouring(rng.choice(vecs), 4)
        gamma = colouring(rng.choice(vecs), 4)
        seq = path_between(g, beta, gamma, 4)
        assert seq.max_per_vertex() <= 14
        assert len(seq.moves) <= 14 * g.n
        assert seq.end_partition() == gamma


def test_path_between_rejects_high_chromatic():
    g = complete_graph(4)
    vec = colouring([0, 1, 2, 3], 5)
    other = colouring([1, 0, 2, 3], 5)
    with pytest.raises(ValueError, match="up to 3"):
        path_between(g, vec, other, 5)


def test_path_between_rejects_improper_endpoint():
    g = path_graph(2)
    with pytest.raises(ValueError, match="proper"):
        path_between(g, colouring([0, 0], 3), colouring([0, 1], 3), 3)


def test_path_walks_through_proper_states_only():
    g = cycle_graph(5)
    index = {vec: i for i, vec in enumerate(proper_colour_vectors(g, 4))}
    vecs = list(index)
    rng = random.Random(7)
    for _ in range(10):
        vb, vg = rng.choice(vecs), rng.choice(vecs)
        seq = path_between(g, colouring(vb, 4), colouring(vg, 4), 4)
        cols = list(vb)
        for v, c in seq.moves:
            old = cols[v]
            cols[v] = c
            assert tuple(cols) in index  # every intermediate state is proper
        assert tuple(cols) == vg


@settings(max_examples=60, deadline=None)
@given(
    mask=st.integers(min_value=0, max_value=(1 << 15) - 1),
    seed=st.integers(min_value=0, max_value=99),
)
def test_path_property_small_graphs(mask, seed):
    g = graph_from_mask(6, mask)
    if find_induced(g, "2K2") is not None:
        return
    chi, _ = chromatic_number(g)
    if chi > 3 or g.n == 0:
        return
    ell = 4
    rng = random.Random(seed)
    vecs = []
    for i, vec in enumerate(proper_colour_vectors(g, ell)):
        if i >= 4000:
            break
        vecs.append(vec)
    beta = colouring(rng.choice(vecs), ell)
    gamma = colouring(rng.choice(vecs), ell)
    seq = path_between(g, beta, gamma, ell)
    bound = 4 if chi <= 2 else 14
    assert seq.max_per_vertex() <= bound
    assert seq.end_partition() == gamma
    assert verify_moves(g, seq).valid
