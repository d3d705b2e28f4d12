"""Verified move sequences: renaming, canonicalisation, and bounded paths."""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozencol.graph import (
    Graph,
    bits,
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
import frozencol.recolour as recolour
from frozencol.recolour import (
    CanonicalContext,
    MoveSequence,
    bipartite_canonical_moves,
    canonical_moves,
    complete_vertex,
    maximal_first_partition,
    path_between,
    rename_moves,
    verify_moves,
)
from frozencol.reconfig import proper_colour_vectors
from frozencol.solvers import chromatic_number


def colouring(cols, k):
    return BlockPartition.from_colours(list(cols), k)


def masks(*parts):
    return tuple(sum(1 << v for v in part) for part in parts)


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


def reference_replay(g, seq):
    """The replay as a list scan over each moving vertex's neighbours."""
    counts = [0] * g.n

    def verdict(valid, index, end):
        return valid, index, tuple(counts), max(counts, default=0), end

    start = seq.start
    if start.ground != g.n or start.k != seq.ell or not is_proper_colouring(g, start):
        return verdict(False, -1, None)
    cols = start.to_colours()
    for i, (v, c) in enumerate(seq.moves):
        if not (0 <= v < g.n and 0 <= c < seq.ell) or cols[v] == c:
            return verdict(False, i, None)
        if any(cols[u] == c for u in g.neighbour_list(v)):
            return verdict(False, i, None)
        cols[v] = c
        counts[v] += 1
    return verdict(True, None, colouring(cols, seq.ell))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_replay_matches_list_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=8), label="n")
    g = graph_from_mask(n, data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1), label="edges"))
    ell = data.draw(st.integers(min_value=1, max_value=5), label="ell")
    cols = data.draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n), label="start")
    start = colouring(cols, ell)
    moves = []
    for _ in range(data.draw(st.integers(0, 24), label="length")):
        if data.draw(st.booleans(), label="proper"):
            # a proper move when one exists, so replays also run long
            free = [(v, c) for v in range(n) for c in range(ell)
                    if c != cols[v] and all(cols[u] != c for u in g.neighbour_list(v))]
            if free:
                moves.append(data.draw(st.sampled_from(free), label="move"))
                v, c = moves[-1]
                cols[v] = c
                continue
        # anything: no-ops, out-of-range vertices and colours, conflicts
        move = (data.draw(st.integers(-1, n), label="v"), data.draw(st.integers(-1, ell), label="c"))
        moves.append(move)
        if 0 <= move[0] < n and 0 <= move[1] < ell:
            cols[move[0]] = move[1]
    seq = MoveSequence(start, tuple(moves), ell)
    stats = verify_moves(g, seq)
    assert stats.total == len(moves)
    assert (stats.valid, stats.failure_index, stats.per_vertex, stats.max_per_vertex,
            stats.end) == reference_replay(g, seq)


# -- one replay per public call ----------------------------------------------------


@pytest.fixture
def replays(monkeypatch):
    """Every sequence recolour replays, in order."""
    seen = []
    replay = recolour.verify_moves

    def counted(g, seq):
        seen.append(seq)
        return replay(g, seq)

    monkeypatch.setattr(recolour, "verify_moves", counted)
    return seen


# a_i ~ b_j iff j <= i: nested neighbourhoods, so bipartite and 2K2-free
CHAIN = graph_from_edges(6, [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)])
# 3-chromatic and 2K2-free; this start goes through case 2(b) of canonical_moves
CASE_2B = graph_from_edges(
    8,
    [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
     (1, 5), (1, 7), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (4, 7)],
)


@pytest.mark.parametrize("g, beta, gamma, ell", [
    (CHAIN, [1, 1, 0, 2, 2, 1], [2, 2, 2, 1, 0, 1], 3),
    (cycle_graph(5), [0, 1, 0, 1, 2], [3, 2, 3, 0, 1], 4),
    (CASE_2B, [2, 3, 1, 0, 2, 0, 3, 1], [2, 2, 0, 1, 0, 3, 3, 3], 4),
    (cycle_graph(5), [0, 1, 0, 1, 2], [0, 1, 0, 1, 2], 4),
], ids=["chain", "C5", "case-2b", "equal-ends"])
def test_path_between_replays_once(replays, g, beta, gamma, ell):
    assert find_induced(g, "2K2") is None
    seq = path_between(g, colouring(beta, ell), colouring(gamma, ell), ell)
    assert replays == [seq]
    assert seq.end_colours() == gamma


def test_rename_replays_once(replays):
    seq = rename_moves(cycle_graph(5), colouring([0, 1, 0, 1, 2], 4), colouring([1, 2, 1, 2, 0], 4), 4)
    assert replays == [seq]
    assert seq.max_per_vertex() == 2  # a three-cycle of classes, so one class parks


def test_public_stages_each_seal_once(replays):
    g, ctx = c5_ctx()
    outs = [canonical_moves(ctx, colouring([3, 2, 3, 0, 1], 4), 4)]
    chain_ctx = maximal_first_partition(CHAIN)
    outs.append(bipartite_canonical_moves(chain_ctx, colouring([1, 1, 0, 2, 2, 1], 3), 3))
    assert all(len(seq) > 0 for seq in outs)
    assert replays == outs


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
    assert seq.end_colours() == gamma.to_colours()
    assert verify_moves(g, seq).valid


# -- contexts ----------------------------------------------------------------------


def test_maximal_first_partition_grows_first_part():
    ctx = maximal_first_partition(cycle_graph(5))
    assert ctx.masks == masks({0, 2}, {1, 3}, {4})
    assert (complete_vertex(ctx, 1), complete_vertex(ctx, 2)) == (2, 0)


def test_maximal_first_partition_star_centre_blocks_growth():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ctx = maximal_first_partition(star)
    # the leaves fold into whichever side the solver lists first
    assert set(ctx.masks[:2]) == set(masks({0}, {1, 2, 3}))
    assert ctx.masks[2] == 0


def test_maximal_first_partition_rejects_high_chromatic():
    with pytest.raises(ValueError, match="up to 3, got 4"):
        maximal_first_partition(complete_graph(4))


def test_maximal_first_partition_is_deterministic():
    a = maximal_first_partition(cycle_graph(6))
    b = maximal_first_partition(cycle_graph(6))
    assert a == b


def test_context_rejects_bad_shapes():
    with pytest.raises(ValueError, match="nonempty"):
        CanonicalContext(empty_graph(1), (0,))


@pytest.mark.parametrize("parts, message", [
    (({0, 2}, {1, 3, 4}, ()), "part 1 is not independent"),
    (({0, 2}, {1, 3}, {2, 4}), "parts overlap"),
    (({0, 2}, {1, 3}, ()), "parts do not cover the vertex set"),
    (({0}, {1, 3}, {2, 4}), "first part is not maximal: vertex 2 fits"),
    (((), {0, 2}, {1, 3, 4}), "first part must be nonempty"),
    (({0, 2}, {1, 3}, {4}, ()), "need three parts"),
    (({0, 2}, {1, 3, 4}), "need three parts"),
])
def test_context_rejects_invalid_partitions(parts, message):
    with pytest.raises(ValueError, match=message):
        CanonicalContext(cycle_graph(5), masks(*parts))


@pytest.mark.parametrize("parts, message", [
    ((-1, 0, 0), "part 0 is not a mask of the 5 vertices"),
    ((0b00101, 0b01010, 1 << 5), "part 2 is not a mask of the 5 vertices"),
])
def test_context_rejects_masks_outside_the_vertices(parts, message):
    # checked before any part is read bit by bit: bits(-1) never ends
    with pytest.raises(ValueError, match=message):
        CanonicalContext(cycle_graph(5), parts)


def test_path_between_checks_its_context_once(monkeypatch):
    calls = []
    check = CanonicalContext.__post_init__

    def counted(ctx):
        calls.append(ctx)
        check(ctx)

    monkeypatch.setattr(CanonicalContext, "__post_init__", counted)
    recolour._context.cache_clear()  # earlier tests may have walked these graphs
    g = cycle_graph(5)
    for gamma in ([3, 2, 3, 0, 1], [1, 0, 1, 2, 3]):
        assert len(path_between(g, colouring([0, 1, 0, 1, 2], 4), colouring(gamma, 4), 4)) > 0
    assert len(calls) == 1
    seq = path_between(CASE_2B, colouring([2, 3, 1, 0, 2, 0, 3, 1], 4),
                       colouring([2, 2, 0, 1, 0, 3, 3, 3], 4), 4)
    assert len(seq) > 0
    assert len(calls) == 2


def test_path_between_retains_a_bounded_cache():
    # one walk on each of 1,000 complete tripartite graphs: only the contexts
    # of the most recent graphs may stay alive, not every graph walked
    rng = random.Random(20)
    tracemalloc.start()
    try:
        for _ in range(1000):
            part = [i for i in range(3) for _ in range(rng.randint(1, 5))]
            rng.shuffle(part)
            n = len(part)
            rows = [sum(1 << u for u in range(n) if part[u] != part[v]) for v in range(n)]
            p, q = rng.sample(range(4), 3), rng.sample(range(4), 4)
            beta = colouring([p[t] for t in part], 4)
            gamma = colouring([rng.choice((q[0], q[3])) if t == 0 else q[t] for t in part], 4)
            path_between(Graph(n, rows), beta, gamma, 4)
        del rows, beta, gamma
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 512 * 1024


def test_complete_vertex_on_complete_bipartite():
    g = join(empty_graph(2), empty_graph(3))
    ctx = maximal_first_partition(g)
    x = complete_vertex(ctx, 1)
    assert all(g.has_edge(x, u) for u in bits(ctx.masks[1]))


def test_complete_vertex_vacuous_on_empty_part():
    g = path_graph(3)  # chi = 2, third part empty
    ctx = maximal_first_partition(g)
    assert ctx.masks[2] == 0
    assert ctx.masks[0] >> complete_vertex(ctx, 2) & 1


def test_complete_vertex_reports_2k2_witness():
    g = complement(b_t(3).graph)  # K_{3,3} minus a perfect matching contains 2K2
    ctx = CanonicalContext(g, masks({0, 1, 2}, {3, 4, 5}, ()))
    with pytest.raises(ValueError, match="2K2"):
        complete_vertex(ctx, 1)


# -- bipartite pipeline ------------------------------------------------------------


def test_bipartite_canonical_single_move_each():
    g = cycle_graph(4)
    ctx = maximal_first_partition(g)
    beta = colouring([0, 1, 2, 1], 3)
    seq = bipartite_canonical_moves(ctx, beta, 3)
    assert seq.max_per_vertex() <= 1
    end = seq.end_colours()
    assert len({end[v] for v in bits(ctx.masks[0])}) == 1
    assert len({end[v] for v in bits(ctx.masks[1])}) == 1


def test_bipartite_exhaustive_families():
    for g in (cycle_graph(4), join(empty_graph(3), empty_graph(3)), path_graph(4)):
        ctx = maximal_first_partition(g)
        for ell in (3, 4):
            for vec in proper_colour_vectors(g, ell):
                seq = bipartite_canonical_moves(ctx, colouring(vec, ell), ell)
                assert seq.max_per_vertex() <= 1


def test_bipartite_rejects_2k2_graph():
    g = path_graph(5)  # the two end edges form an induced 2K2
    ctx = maximal_first_partition(g)
    with pytest.raises(ValueError, match="2K2"):
        bipartite_canonical_moves(ctx, colouring([0, 1, 0, 1, 0], 3), 3)


def test_bipartite_rejects_three_part_context():
    g, ctx = c5_ctx()
    with pytest.raises(ValueError, match="need a two-part context"):
        bipartite_canonical_moves(ctx, colouring([0, 1, 0, 1, 2], 4), 4)


# -- monochromatic-part canonicalisation --------------------------------------------


def c5_ctx():
    return cycle_graph(5), maximal_first_partition(cycle_graph(5))


def single_colour_part(ctx, vec, i, ell=4):
    """Run the single-colour-part stage from vec on a recorder; returns the
    recorder and the colouring the stage ends on."""
    rec = recolour._Recorder(ctx.graph, colouring(vec, ell), ell)
    target = recolour._single_colour_part(ctx, rec, i)
    rec.check_stage(0, 4, target)
    return rec, target


def test_single_colour_part_reaches_two_smallest_colours():
    g, ctx = c5_ctx()  # parts ({0,2}, {1,3}, {4})
    rec, end = single_colour_part(ctx, [2, 0, 2, 3, 1], 0)  # part 0 monochromatic in colour 2
    counts = rec.counts()
    assert counts[0] == 0 and counts[2] == 0
    assert end == rec.cols == [2, 0, 2, 0, 1]  # parts keep 2 and take the two smallest others


def test_single_colour_part_handles_stray_vertices():
    # colour of the monochromatic part also appears outside it: the strays
    # fold back into their own parts at the end
    g, ctx = c5_ctx()
    rec, end = single_colour_part(ctx, [0, 1, 2, 1, 2], 2)  # part 2 holds colour 2, vertex 2 too
    counts = rec.counts()
    assert counts[4] == 0
    assert counts[2] >= 1  # the stray moved back into its own part's colour
    assert end == [0, 1, 0, 1, 2]


def test_single_colour_part_already_canonical_is_a_renaming():
    g, ctx = c5_ctx()
    rec, end = single_colour_part(ctx, [3, 0, 3, 0, 1], 0)  # canonical partition, part 0 on colour 3
    assert all(rec.counts()[v] == 0 for v in bits(ctx.masks[0]))
    assert max(rec.counts()) <= 2  # pure renaming of the other two parts
    assert end == [3, 0, 3, 0, 1]


def test_single_colour_part_exact_target_is_empty():
    g, ctx = c5_ctx()
    rec, _ = single_colour_part(ctx, [2, 0, 2, 0, 1], 0)
    assert rec.moves == []


def test_single_colour_part_validates_input():
    g, ctx = c5_ctx()
    with pytest.raises(ValueError, match="need one"):
        single_colour_part(ctx, [2, 0, 3, 0, 1], 0)


def test_single_colour_part_exhaustive_c5():
    g, ctx = c5_ctx()
    hit = 0
    for vec in proper_colour_vectors(g, 4):
        for i in range(3):
            if len({vec[v] for v in bits(ctx.masks[i])}) != 1:
                continue
            hit += 1
            rec, end = single_colour_part(ctx, vec, i)
            counts = rec.counts()
            assert all(counts[v] == 0 for v in bits(ctx.masks[i]))
            assert all(len({end[v] for v in bits(part)}) == 1 for part in ctx.masks if part)
            assert verify_moves(g, MoveSequence(colouring(vec, 4), tuple(rec.moves), 4)).valid
    assert hit > 100


# -- full canonicalisation ---------------------------------------------------------


def assert_canonical_run(g, ctx, beta, ell):
    seq = canonical_moves(ctx, beta, ell)
    assert seq.max_per_vertex() <= 6
    end = seq.end_colours()
    for colour, part in enumerate(ctx.masks):
        assert all(end[v] == colour for v in bits(part))
    return seq


def test_canonical_dominating_vertex_shortcut():
    # the paw: vertex 1 is adjacent to everything outside its part
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    ctx = maximal_first_partition(g)
    assert_canonical_run(g, ctx, colouring([0, 1, 2, 3], 4), 4)


def test_canonical_equal_anchor_colours():
    # both complete vertices share a colour: the first part monochromes at once
    g = graph_from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    ctx = maximal_first_partition(g)
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
    ctx = maximal_first_partition(g)
    assert_canonical_run(g, ctx, colouring([0, 2, 3, 3, 2, 1, 2, 0], 4), 4)


def test_canonical_case_colour_missing_from_a_part():
    g = graph_from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    ctx = maximal_first_partition(g)
    assert_canonical_run(g, ctx, colouring([0, 0, 1, 2, 1], 4), 4)


def test_canonical_case_both_extras_on_both_parts():
    # neither extra colour is absent anywhere: the orientation step fires
    g = graph_from_edges(
        8,
        [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
         (1, 5), (1, 7), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (4, 7)],
    )
    assert find_induced(g, "2K2") is None
    ctx = maximal_first_partition(g)
    assert_canonical_run(g, ctx, colouring([2, 3, 1, 0, 2, 0, 3, 1], 4), 4)


def test_canonical_rejects_wrong_chromatic_number():
    g = cycle_graph(4)  # three nonempty parts on a bipartite graph
    ctx3 = CanonicalContext(g, masks({0, 2}, {1}, {3}))
    with pytest.raises(ValueError, match="3-chromatic"):
        canonical_moves(ctx3, colouring([0, 1, 0, 1], 4), 4)


def test_canonical_rejects_bipartite_context():
    ctx = maximal_first_partition(cycle_graph(4))
    with pytest.raises(ValueError, match="need a three-part context"):
        canonical_moves(ctx, colouring([0, 1, 0, 1], 4), 4)


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
        assert seq.end_colours() == gamma.to_colours()


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
        assert seq.end_colours() == gamma.to_colours()


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
    assert seq.end_colours() == gamma.to_colours()
    assert verify_moves(g, seq).valid


def random_colouring(rng, g, ell):
    """A permuted minimum colouring followed by 2n random proper moves."""
    chi, witness = chromatic_number(g)
    palette = rng.sample(range(ell), chi)
    cols = [palette[c] for c in witness.to_colours()]
    for _ in range(2 * g.n):
        v = rng.randrange(g.n)
        cols[v] = rng.choice([c for c in range(ell)
                              if all(cols[u] != c for u in bits(g.rows[v]))])
    return colouring(cols, ell)


def test_stage_moves_are_never_noops(monkeypatch):
    # a stage paints only the vertices not yet on the colour, so every move the
    # recorder sees, in a stage or in the seal's replay, changes a colour
    noops = []
    step = recolour._Recorder.step

    def checked(rec, v, c):
        if rec.cols[v] == c:
            noops.append((v, c))
        return step(rec, v, c)

    monkeypatch.setattr(recolour._Recorder, "step", checked)
    rng = random.Random(21)
    graphs = [CHAIN, CASE_2B, cycle_graph(5), join(empty_graph(3), empty_graph(3))]
    while len(graphs) < 16:
        g = graph_from_mask(7, rng.getrandbits(21))
        if find_induced(g, "2K2") is None and chromatic_number(g)[0] <= 3:
            graphs.append(g)
    walks = 0
    for g in graphs:
        for ell in (4, 5):
            for _ in range(4):
                beta, gamma = random_colouring(rng, g, ell), random_colouring(rng, g, ell)
                walks += len(path_between(g, beta, gamma, ell)) > 0
                perm = rng.sample(range(ell), ell)
                start = random_colouring(rng, g, ell - 1).to_colours()  # leaves a spare colour
                rename_moves(g, colouring(start, ell), colouring([perm[c] for c in start], ell), ell)
    assert walks > 100
    assert noops == []
