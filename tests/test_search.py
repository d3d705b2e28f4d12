"""Tests for the frozen-colouring gap search."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozencol.search as search

from frozencol.families import ke_complement, km_complement, me_complement
from frozencol.graph import (
    Graph,
    are_isomorphic,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    find_induced,
    graph_from_edges,
    relabel,
)
from frozencol.partitions import BlockPartition, is_frozen_colouring
from frozencol.search import (
    PredicateSpec,
    SearchReport,
    exhaustive_small,
    scan_stream,
)
from frozencol.solvers import chromatic_number


def graph_from_mask(n, mask):
    rows = [0] * n
    bit = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> bit & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    return Graph(n, rows)


def reverify_hit(hit):
    g = decode_graph6(hit.graph6)
    chi, _ = chromatic_number(g)
    assert chi == hit.chi
    part = BlockPartition.from_colour_line(hit.colours, hit.k)
    assert part.k == hit.k
    assert is_frozen_colouring(g, part)
    return g


# --- PredicateSpec validation ---


def test_spec_rejects_bad_gap():
    with pytest.raises(ValueError, match="gap"):
        PredicateSpec(gap=0)


def test_spec_rejects_bad_side():
    with pytest.raises(ValueError, match="two_k2_free"):
        PredicateSpec(two_k2_free="both")


def test_spec_rejects_bad_max_k():
    with pytest.raises(ValueError, match="max_k"):
        PredicateSpec(max_k=1)


def test_spec_filters_list_active_flags_only():
    spec = PredicateSpec(two_k2_free="graph", c4_free="complement")
    assert spec.filters() == [("2K2", "graph"), ("C4", "complement")]
    assert PredicateSpec().filters() == []


# --- scan_stream ---


def test_stream_me2_km2_yields_two_verified_hits():
    me2 = complement(me_complement(2).graph)
    km2 = complement(km_complement(2).graph)
    spec = PredicateSpec(gap=1, two_k2_free="graph")
    report = scan_stream([encode_graph6(me2), encode_graph6(km2)], spec)
    assert report.graphs_scanned == 2
    assert report.skipped == 0
    assert len(report.hits) == 2
    assert report.dedup_count == 0
    for hit in report.hits:
        assert hit.chi == 4
        assert hit.k == 5
        reverify_hit(hit)


def test_stream_c6_has_gap_one_hit():
    report = scan_stream([encode_graph6(cycle_graph(6))], PredicateSpec(gap=1))
    assert len(report.hits) == 1
    hit = report.hits[0]
    assert (hit.chi, hit.k) == (2, 3)
    reverify_hit(hit)


def test_stream_c5_has_no_hit():
    report = scan_stream([encode_graph6(cycle_graph(5))], PredicateSpec(gap=1))
    assert report.graphs_scanned == 1
    assert report.hits == ()


def test_stream_skips_malformed_lines_with_count():
    lines = ["@@@not-a-graph\x01", encode_graph6(cycle_graph(6)), "", "  "]
    report = scan_stream(lines, PredicateSpec(gap=1))
    assert report.graphs_scanned == 1
    assert report.skipped == 1
    assert len(report.hits) == 1


def test_stream_dedup_merges_isomorphic_copies():
    c6 = cycle_graph(6)
    shuffled = relabel(c6, [3, 0, 4, 1, 5, 2])
    report = scan_stream([encode_graph6(c6), encode_graph6(shuffled)], PredicateSpec(gap=1))
    assert report.graphs_scanned == 2
    assert len(report.hits) == 1
    assert report.dedup_count == 1


def test_stream_decodes_each_line_once():
    me2 = complement(me_complement(2).graph)
    c6 = cycle_graph(6)
    lines = [encode_graph6(me2), "", encode_graph6(c6), "  ",
             encode_graph6(relabel(c6, [3, 0, 4, 1, 5, 2])), "@@@not-a-graph\x01"]
    decoded = []

    def counted(line):
        decoded.append(line)
        return decode_graph6(line)

    with patch.object(search, "decode_graph6", counted):
        report = scan_stream(lines, PredicateSpec(gap=1))
    assert [(h.chi, h.k) for h in report.hits] == [(2, 3), (4, 5)]
    assert report.dedup_count == 1
    assert decoded == [line.strip() for line in lines if line.strip()]


def test_stream_results_do_not_depend_on_line_order():
    me2 = complement(me_complement(2).graph)
    km2 = complement(km_complement(2).graph)
    spec = PredicateSpec(gap=1, two_k2_free="graph")
    lines = [encode_graph6(me2), encode_graph6(km2)]
    forward = scan_stream(lines, spec)
    backward = scan_stream(list(reversed(lines)), spec)
    assert [h.graph6 for h in forward.hits] == [h.graph6 for h in backward.hits]
    assert [h.k for h in forward.hits] == [h.k for h in backward.hits]


def test_stream_filter_side_matters():
    # C6 contains an induced 2K2, so the graph-side filter drops it,
    # while its complement is 2K2-free and the complement-side filter keeps it.
    line = encode_graph6(cycle_graph(6))
    assert find_induced(cycle_graph(6), "2K2") is not None
    dropped = scan_stream([line], PredicateSpec(gap=1, two_k2_free="graph"))
    kept = scan_stream([line], PredicateSpec(gap=1, two_k2_free="complement"))
    assert dropped.hits == ()
    assert len(kept.hits) == 1


def test_stream_max_k_extends_probe_range():
    ke2 = complement(ke_complement(2).graph)
    line = encode_graph6(ke2)
    narrow = scan_stream([line], PredicateSpec(gap=1))
    wide = scan_stream([line], PredicateSpec(gap=1, max_k=6))
    assert narrow.hits == ()  # KE_2 has chi=4 and no frozen 5-colouring
    assert [h.k for h in wide.hits] == [6]
    reverify_hit(wide.hits[0])


def test_report_json_round_trip_shape():
    report = scan_stream([encode_graph6(cycle_graph(6))], PredicateSpec(gap=1))
    data = report.to_json()
    assert data["graphs_scanned"] == 1
    assert data["skipped"] == 0
    assert data["dedup_count"] == 0
    assert data["hits"][0]["chi"] == 2
    assert data["hits"][0]["k"] == 3
    assert "runtime" not in data


# --- exhaustive_small ---


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError, match="n_max"):
        exhaustive_small(8, PredicateSpec(gap=1))


def test_exhaustive_tiny_graphs_have_no_gap():
    report = exhaustive_small(3, PredicateSpec(gap=1))
    assert report.graphs_scanned == 1 + 2 + 8
    assert report.hits == ()


def test_exhaustive_2k2_free_five_vertices_no_hits():
    report = exhaustive_small(5, PredicateSpec(gap=1, two_k2_free="graph"))
    assert report.hits == ()


def test_exhaustive_unfiltered_six_vertices_finds_c6():
    report = exhaustive_small(6, PredicateSpec(gap=1))
    assert report.graphs_scanned == 1 + 2 + 8 + 64 + 1024 + 32768
    c6 = cycle_graph(6)
    matches = [
        h
        for h in report.hits
        if h.k == 3 and are_isomorphic(decode_graph6(h.graph6), c6) is not None
    ]
    assert len(matches) == 1
    for hit in report.hits:
        reverify_hit(hit)


@pytest.mark.parametrize("spec", [
    PredicateSpec(gap=1),
    PredicateSpec(gap=1, max_k=4),
    PredicateSpec(gap=1, two_k2_free="complement"),
])
def test_exhaustive_matches_stream_of_same_graphs(spec):
    lines = [encode_graph6(graph_from_mask(n, mask))
             for n in range(1, 5) for mask in range(1 << (n * (n - 1) // 2))]
    assert exhaustive_small(4, spec).to_json() == scan_stream(lines, spec).to_json()


# --- frozen colourings above chi ---


def frozen_gap_finder(g, max_k):
    """Every k in chi+1..max_k with a frozen k-colouring, with its witness."""
    return search._frozen_above_chi(g, 1, max_k)[1]


def test_gap_finder_ke2_includes_six():
    g = complement(ke_complement(2).graph)
    found = frozen_gap_finder(g, 7)
    ks = [k for k, _ in found]
    assert 6 in ks
    for k, witness in found:
        assert witness.k == k
        assert is_frozen_colouring(g, witness)


def test_gap_finder_me2_includes_five():
    g = complement(me_complement(2).graph)
    assert 5 in [k for k, _ in frozen_gap_finder(g, 5)]


def test_gap_finder_complete_graph_is_empty():
    # K_4 has chi = 4; a frozen 5-colouring would need five used classes.
    assert frozen_gap_finder(complete_graph(4), 6) == []


def test_gap_finder_family_gaps():
    for q in (2, 3):
        me = complement(me_complement(q).graph)
        assert [k for k, _ in frozen_gap_finder(me, 2 * q + 1)] == [2 * q + 1]
        km = complement(km_complement(q).graph)
        chi_km, _ = chromatic_number(km)
        assert chi_km + 1 in [k for k, _ in frozen_gap_finder(km, chi_km + 1)]
    ke = complement(ke_complement(2).graph)
    chi_ke, _ = chromatic_number(ke)
    assert [k for k, _ in frozen_gap_finder(ke, 3 * 2)] == [chi_ke + 2]


# --- the clique gate before chi ---


def _gate_changes_nothing(g, gap, max_k):
    chi, found = search._frozen_above_chi(g, gap, max_k)
    with patch.object(search, "_has_greedy_clique", lambda g, size: False):
        chi_off, found_off = search._frozen_above_chi(g, gap, max_k)
    assert found == found_off
    assert chi in (None, chi_off)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.data(),
       st.integers(min_value=1, max_value=3), st.sampled_from([None, 4, 8]))
def test_clique_gate_keeps_every_result(n, data, gap, max_k):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    _gate_changes_nothing(graph_from_mask(n, mask), gap, max_k)


def test_clique_gate_keeps_family_hits():
    graphs = [Graph(0, []), cycle_graph(6), complement(me_complement(2).graph),
              complement(km_complement(2).graph), complement(ke_complement(2).graph)]
    for g in graphs:
        for gap in (1, 2, 3):
            for max_k in (None, 4, 8):
                _gate_changes_nothing(g, gap, max_k)
    assert search._frozen_above_chi(cycle_graph(6), 1, None)[1]


def _no_chi(g):
    raise AssertionError("chi was computed")


def test_clique_gate_fires_on_pendant_vertex():
    # delta = 1 caps k at 2, and any edge is a 2-clique: chi + 1 > 2
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    with patch.object(search, "chromatic_number", _no_chi):
        assert search._frozen_above_chi(g, 1, None) == (None, [])
        assert frozen_gap_finder(g, 6) == []


def test_clique_gate_fires_on_c5_passes_c7():
    # C5 has no universal vertex, so its cap is 0 + 5 // 2 = 2: any edge fires
    with patch.object(search, "chromatic_number", _no_chi):
        assert search._frozen_above_chi(cycle_graph(5), 1, None) == (None, [])
        assert search._frozen_above_chi(cycle_graph(5), 1, 5) == (None, [])
    # C7 is triangle-free, so the gate cannot rule out k = 3 = min(7 // 2, delta+1)
    assert search._frozen_above_chi(cycle_graph(7), 1, None) == (3, [])
    assert search._frozen_above_chi(cycle_graph(7), 1, 5) == (3, [])


# --- cross-checks ---


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_stream_agrees_with_gap_finder(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    g = graph_from_mask(n, mask)
    report = scan_stream([encode_graph6(g)], PredicateSpec(gap=1))
    chi, _ = chromatic_number(g)
    direct = [k for k, _ in frozen_gap_finder(g, chi + 1)]
    assert [h.k for h in report.hits] == direct
    for hit in report.hits:
        reverify_hit(hit)
