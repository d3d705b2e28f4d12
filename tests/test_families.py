"""Family builders: counts, certificates, solver cross-checks, special cases."""

import pytest

from frozencol.families import (
    b_t,
    chain_complement,
    h_t_complement,
    ke_complement,
    ke_custom,
    km_complement,
    me_complement,
    me_star_complement,
)
from frozencol.graph import (
    are_isomorphic,
    complement,
    cycle_graph,
    find_induced,
)
from frozencol.partitions import (
    is_clique_partition,
    is_frozen_clique_partition,
)
from frozencol.solvers import analyze, independence_number


def check_instance(inst):
    g = inst.graph
    assert is_clique_partition(g, inst.canonical)
    assert is_frozen_clique_partition(g, inst.frozen)
    assert g.n == inst.expected.n
    assert g.edge_count == inst.expected.edges
    assert inst.canonical.k == inst.expected.theta
    assert inst.frozen.k == inst.expected.frozen_blocks


# -- counts over the full parameter sweep -----------------------------------------


@pytest.mark.parametrize("q", range(2, 9))
def test_me_counts(q):
    inst = me_complement(q)
    check_instance(inst)
    assert inst.expected.n == 4 * q + 2
    assert inst.expected.edges == 6 * q + 2
    want_theta = (3 * q + 2) // 2 if q % 2 == 0 else (3 * q + 3) // 2
    assert inst.expected.theta == want_theta
    assert inst.expected.frozen_blocks == 2 * q + 1


@pytest.mark.parametrize("q", range(2, 9))
def test_me_star_counts(q):
    inst = me_star_complement(q)
    check_instance(inst)
    assert inst.expected.edges == 6 * q + 3
    assert inst.expected.theta == me_complement(q).expected.theta
    assert inst.expected.frozen_blocks == 2 * q + 1


@pytest.mark.parametrize("q", range(2, 9))
def test_km_counts(q):
    inst = km_complement(q)
    check_instance(inst)
    assert inst.expected.edges == 5 * q + 3
    assert inst.expected.theta == 2 * q
    assert inst.expected.frozen_blocks == 2 * q + 1


@pytest.mark.parametrize("q", range(1, 9))
def test_ke_counts(q):
    inst = ke_complement(q)
    check_instance(inst)
    assert inst.expected.n == 6 * q
    assert inst.expected.edges == 9 * q
    assert inst.expected.theta == 2 * q
    assert inst.expected.frozen_blocks == 3 * q


@pytest.mark.parametrize("t", range(2, 9))
def test_b_counts(t):
    inst = b_t(t)
    check_instance(inst)
    assert inst.expected.n == 2 * t and inst.expected.edges == t * t
    assert inst.expected.theta == 2 and inst.expected.frozen_blocks == t


@pytest.mark.parametrize("t", range(3, 7))
def test_h_counts(t):
    inst = h_t_complement(t)
    check_instance(inst)
    assert inst.expected.n == 4 * t - 2
    assert inst.expected.theta == t + 1
    assert inst.expected.frozen_blocks == 2 * t - 1


@pytest.mark.parametrize("t", range(4, 9))
def test_chain_counts(t):
    inst = chain_complement(t)
    check_instance(inst)
    assert inst.expected.n == 2 * t + 2 and inst.expected.edges == 2 * t + 6
    assert inst.expected.theta == t and inst.expected.frozen_blocks == t + 1


def test_parameter_validation():
    for bad_call in (
        lambda: me_complement(1),
        lambda: me_star_complement(1),
        lambda: km_complement(1),
        lambda: ke_complement(0),
        lambda: ke_custom(1),
        lambda: b_t(1),
        lambda: h_t_complement(2),
        lambda: chain_complement(3),
    ):
        with pytest.raises(ValueError):
            bad_call()


# -- freeness ----------------------------------------------------------------------


def test_c4_freeness_ranges():
    for inst in [me_complement(q) for q in range(2, 9)]:
        assert find_induced(inst.graph, "C4") is None
    for inst in [me_star_complement(q) for q in range(3, 9)]:
        assert find_induced(inst.graph, "C4") is None
    assert find_induced(me_star_complement(2).graph, "C4") is not None
    for inst in [km_complement(q) for q in range(2, 9)]:
        assert find_induced(inst.graph, "C4") is None
    for inst in [ke_complement(q) for q in range(2, 9)]:
        assert find_induced(inst.graph, "C4") is None
    assert find_induced(ke_complement(1).graph, "C4") is not None
    for inst in [chain_complement(t) for t in range(4, 9)]:
        assert find_induced(inst.graph, "C4") is None
    for inst in [h_t_complement(t) for t in range(3, 7)]:
        assert find_induced(inst.graph, "C4") is None
    assert find_induced(b_t(3).graph, "C4") is not None


def test_original_side_is_2k2_free():
    for inst in (me_complement(4), km_complement(3), ke_complement(2), chain_complement(6)):
        assert find_induced(complement(inst.graph), "2K2") is None


def test_me_star_2_has_the_spine_2k2():
    inst = me_star_complement(2)
    assert find_induced(complement(inst.graph), "2K2") == (0, 1, 2, 3)
    # but no induced P5 on the original side
    assert find_induced(complement(inst.graph), "P5") is None


# -- solver cross-checks -------------------------------------------------------------


@pytest.mark.parametrize(
    "inst",
    [me_complement(q) for q in (2, 3, 4)]
    + [me_star_complement(q) for q in (2, 3, 4)]
    + [km_complement(q) for q in (2, 3, 4)]
    + [ke_complement(q) for q in (1, 2, 3)]
    + [b_t(t) for t in (2, 3, 4)]
    + [h_t_complement(t) for t in (3, 4)]
    + [chain_complement(t) for t in (4, 5, 6)],
    ids=lambda inst: f"{inst.family}-{inst.param}",
)
def test_solver_agrees_with_expected(inst):
    rep = analyze(inst.graph)
    assert rep.theta == inst.expected.theta
    assert rep.alpha == inst.expected.alpha
    assert rep.edge_count == inst.expected.edges
    assert rep.c4_free == inst.expected.c4_free


def test_h5_theta_by_solver():
    inst = h_t_complement(5)
    assert analyze(inst.graph).theta == 6


def test_alpha_witnesses_are_independent():
    for inst in (
        me_complement(5),
        me_star_complement(5),
        km_complement(5),
        ke_complement(4),
        h_t_complement(5),
        chain_complement(7),
    ):
        w = inst.expected.alpha_witness
        assert len(w) == inst.expected.alpha
        assert len(set(w)) == len(w)
        for a in w:
            for b in w:
                if a < b:
                    assert not inst.graph.has_edge(a, b)


def test_me_star_odd_alpha_is_below_theta():
    for q in (3, 5):
        inst = me_star_complement(q)
        assert inst.expected.alpha == (3 * q + 1) // 2 == inst.expected.theta - 1
    assert independence_number(me_star_complement(3).graph)[0] == 5


# -- special identities ----------------------------------------------------------------


def test_ke_1_is_the_c6_complement():
    inst = ke_complement(1)
    assert are_isomorphic(inst.graph, complement(cycle_graph(6))) is not None


def test_b3_is_the_c6_complement_side():
    assert are_isomorphic(complement(b_t(3).graph), cycle_graph(6)) is not None


def test_h3_is_km2():
    mapping = are_isomorphic(h_t_complement(3).graph, km_complement(2).graph)
    assert mapping is not None


def test_chain_4_equals_me_2():
    chain = chain_complement(4)
    me = me_complement(2)
    assert chain.graph == me.graph
    assert chain.canonical == me.canonical
    assert chain.frozen == me.frozen


def test_ke_custom():
    assert ke_custom(2).graph == ke_complement(2).graph
    inst = ke_custom(4, [(1, 3), (2, 4), (5, 7), (6, 8)])
    assert inst.frozen.k == 12
    assert find_induced(inst.graph, "C4") is None
    with pytest.raises(ValueError):
        ke_custom(3, [(1, 2), (3, 5), (4, 6)])  # consecutive segments
    with pytest.raises(ValueError):
        ke_custom(3, [(1, 6), (2, 4), (3, 5)])  # 6 wraps around to 1
    with pytest.raises(ValueError):
        ke_custom(3, [(1, 3), (1, 4), (5, 2)])  # segment 1 used twice
    with pytest.raises(ValueError):
        ke_custom(3, [(1, 3), (2, 4)])  # incomplete cover
    with pytest.raises(ValueError):
        ke_custom(3, [(1, 3), (2, 4), (5, 9)])  # out of range


def test_labels_follow_the_layout():
    g = me_complement(3).graph
    assert g.labels[0] == "u0" and g.labels[4] == "u4"
    assert g.labels[5] == "v11" and g.labels[13] == "v33"
    assert g.labels.index("v12") == 6
    h = b_t(3).graph
    assert h.labels[0] == "a1" and h.labels[5] == "b3"
