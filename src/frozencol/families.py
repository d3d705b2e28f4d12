"""Builders for the square-free graph families and their certificates.

Each builder returns the complement-side graph (the one whose clique
partitions matter) together with a minimum clique partition, a frozen clique
partition, and the expected invariant values. Instances are verified at
construction time: partitions re-checked, counts and edge totals compared,
witness independent sets tested, C4 presence/absence confirmed.

Shared layout for the necklace-style families: spine vertices u_0..u_{q+1}
first, then triangle vertices v_11, v_12, v_13, ..., v_q3 in Hamiltonian
cycle order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, find_induced, graph_from_edges, require
from .partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
)
from .transform import subdivide_with_certificates


@dataclass(frozen=True)
class Expected:
    n: int
    edges: int
    theta: int
    alpha: int
    frozen_blocks: int
    c4_free: bool
    alpha_witness: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    param: int
    graph: Graph
    canonical: BlockPartition
    frozen: BlockPartition
    expected: Expected


def _verified(inst: FamilyInstance) -> FamilyInstance:
    g, exp = inst.graph, inst.expected
    require(g.n == exp.n, f"order {g.n} != expected {exp.n}")
    require(g.edge_count == exp.edges, f"edges {g.edge_count} != expected {exp.edges}")
    require(is_clique_partition(g, inst.canonical), "canonical partition invalid")
    require(is_frozen_clique_partition(g, inst.frozen), "frozen partition not frozen")
    require(inst.canonical.k == exp.theta, "canonical block count != expected theta")
    require(inst.frozen.k == exp.frozen_blocks, "frozen block count != expected")
    w = exp.alpha_witness
    require(len(w) == exp.alpha, "independent-set witness size != expected alpha")
    adjacent = [(a, b) for a in w for b in w if a < b and g.has_edge(a, b)]
    require(not adjacent, f"witness pairs {adjacent} adjacent")
    require((find_induced(g, "C4") is None) == exp.c4_free, "C4 presence != expected")
    return inst


# -- the necklace families (spine + triangles) --------------------------------


def _necklace_parts(q: int, extra_edge: bool):
    """Vertex indexing, labels, and edge list shared by the ME variants."""
    n = 4 * q + 2

    def u(i: int) -> int:
        return i

    def v(i: int, j: int) -> int:
        return (q + 2) + 3 * (i - 1) + (j - 1)

    labels = [f"u{i}" for i in range(q + 2)]
    labels += [f"v{i}{j}" for i in range(1, q + 1) for j in range(1, 4)]
    cycle = [u(i) for i in range(q + 2)]
    cycle += [v(i, j) for i in range(1, q + 1) for j in range(1, 4)]
    edges = [(cycle[s], cycle[(s + 1) % n]) for s in range(n)]
    edges += [(u(i), v(i, 2)) for i in range(1, q + 1)]
    edges += [(v(i, 1), v(i, 3)) for i in range(1, q + 1)]
    if extra_edge:
        edges.append((u(0), u(q + 1)))
    return n, u, v, labels, edges


def _necklace_canonical(q: int, u, v) -> BlockPartition:
    blocks = [{v(i, 1), v(i, 2), v(i, 3)} for i in range(1, q + 1)]
    if q % 2 == 0:
        blocks += [{u(2 * i), u(2 * i + 1)} for i in range(q // 2 + 1)]
    else:
        blocks += [{u(2 * i), u(2 * i + 1)} for i in range((q + 1) // 2)]
        blocks.append({u(q + 1)})
    return BlockPartition(blocks)


def _necklace_frozen(q: int, u, v) -> BlockPartition:
    blocks = [{u(i), v(i, 2)} for i in range(1, q + 1)]
    blocks += [{v(i, 3), v(i + 1, 1)} for i in range(1, q)]
    blocks.append({v(q, 3), u(0)})
    blocks.append({u(q + 1), v(1, 1)})
    return BlockPartition(blocks)


def _necklace_theta(q: int) -> int:
    return (3 * q + 2) // 2 if q % 2 == 0 else (3 * q + 3) // 2


def me_complement(q: int) -> FamilyInstance:
    """Hamiltonian cycle on 4q+2 vertices with q triangles hung on a spine."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    n, u, v, labels, edges = _necklace_parts(q, extra_edge=False)
    if q % 2 == 0:
        witness = tuple(u(i) for i in range(0, q + 1, 2))
    else:
        witness = tuple(u(i) for i in range(0, q + 2, 2))
    if q % 2 == 0:
        witness += tuple(v(i, 1) for i in range(1, q + 1))
    else:
        witness += (v(1, 2),) + tuple(v(i, 1) for i in range(2, q + 1))
    theta = _necklace_theta(q)
    return _verified(
        FamilyInstance(
            family="ME",
            param=q,
            graph=graph_from_edges(n, edges, labels),
            canonical=_necklace_canonical(q, u, v),
            frozen=_necklace_frozen(q, u, v),
            expected=Expected(
                n=n,
                edges=6 * q + 2,
                theta=theta,
                alpha=theta,
                frozen_blocks=2 * q + 1,
                c4_free=True,
                alpha_witness=witness,
            ),
        )
    )


def me_star_complement(q: int) -> FamilyInstance:
    """The necklace with the extra spine chord u_0 u_{q+1}."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    n, u, v, labels, edges = _necklace_parts(q, extra_edge=True)
    theta = _necklace_theta(q)
    if q % 2 == 0:
        alpha = theta
        witness = tuple(u(i) for i in range(0, q + 1, 2))
        witness += tuple(v(i, 1) for i in range(1, q + 1))
        note = "" if q > 2 else "contains an induced C4 on u0,u1,u2,u3"
    else:
        # The spine chord closes an odd hole through u_0 and u_{q+1}, so the
        # largest independent sets lose one vertex against theta.
        alpha = (3 * q + 1) // 2
        witness = tuple(u(i) for i in range(1, q + 1, 2))
        witness += tuple(v(i, 1) for i in range(1, q + 1))
        note = "alpha is (3q+1)/2, one below theta"
    return _verified(
        FamilyInstance(
            family="ME_STAR",
            param=q,
            graph=graph_from_edges(n, edges, labels),
            canonical=_necklace_canonical(q, u, v),
            frozen=_necklace_frozen(q, u, v),
            expected=Expected(
                n=n,
                edges=6 * q + 3,
                theta=theta,
                alpha=alpha,
                frozen_blocks=2 * q + 1,
                c4_free=q >= 3,
                alpha_witness=witness,
                note=note,
            ),
        )
    )


def km_complement(q: int) -> FamilyInstance:
    """The necklace with the interior spine path edges removed."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    n, u, v, labels, edges = _necklace_parts(q, extra_edge=False)
    dropped = {(u(i), u(i + 1)) for i in range(1, q)}
    edges = [e for e in edges if e not in dropped and (e[1], e[0]) not in dropped]
    blocks = [{v(i, 1), v(i, 2), v(i, 3)} for i in range(1, q + 1)]
    blocks += [{u(0), u(1)}, {u(q), u(q + 1)}]
    blocks += [{u(i)} for i in range(2, q)]
    witness = tuple(u(i) for i in range(1, q + 1))
    witness += tuple(v(i, 1) for i in range(1, q + 1))
    return _verified(
        FamilyInstance(
            family="KM",
            param=q,
            graph=graph_from_edges(n, edges, labels),
            canonical=BlockPartition(blocks),
            frozen=_necklace_frozen(q, u, v),
            expected=Expected(
                n=n,
                edges=5 * q + 3,
                theta=2 * q,
                alpha=2 * q,
                frozen_blocks=2 * q + 1,
                c4_free=True,
                alpha_witness=witness,
            ),
        )
    )


# -- the all-triangles necklace ------------------------------------------------


def _ke_instance(family: str, q: int, pairing: list[tuple[int, int]]) -> FamilyInstance:
    n = 6 * q

    def v(i: int, j: int) -> int:
        return 3 * (i - 1) + (j - 1)

    labels = [f"v{i}{j}" for i in range(1, 2 * q + 1) for j in range(1, 4)]
    cycle = [v(i, j) for i in range(1, 2 * q + 1) for j in range(1, 4)]
    edges = [(cycle[s], cycle[(s + 1) % n]) for s in range(n)]
    edges += [(v(i, 1), v(i, 3)) for i in range(1, 2 * q + 1)]
    edges += [(v(i, 2), v(j, 2)) for i, j in pairing]
    canonical = BlockPartition(
        [{v(i, 1), v(i, 2), v(i, 3)} for i in range(1, 2 * q + 1)]
    )
    frozen_blocks = [{v(i, 2), v(j, 2)} for i, j in pairing]
    frozen_blocks += [
        {v(i, 3), v(i % (2 * q) + 1, 1)} for i in range(1, 2 * q + 1)
    ]
    witness = tuple(v(i, 1) for i in range(1, 2 * q + 1))
    return _verified(
        FamilyInstance(
            family=family,
            param=q,
            graph=graph_from_edges(n, edges, labels),
            canonical=canonical,
            frozen=BlockPartition(frozen_blocks),
            expected=Expected(
                n=n,
                edges=9 * q,
                theta=2 * q,
                alpha=2 * q,
                frozen_blocks=3 * q,
                c4_free=q >= 2,
                alpha_witness=witness,
                note="triangle chords v_i1-v_i3 included for every segment; "
                "the 9q edge total and the 2q-triangle cover require them",
            ),
        )
    )


def ke_complement(q: int) -> FamilyInstance:
    """A cycle of 2q triangles with opposite middle vertices paired up."""
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    return _ke_instance("KE", q, [(i, i + q) for i in range(1, q + 1)])


def ke_custom(q: int, pairing: list[tuple[int, int]] | None = None) -> FamilyInstance:
    """The triangle necklace with a caller-chosen middle-vertex pairing.

    The pairing must be a perfect matching on segment indices 1..2q that
    never pairs cyclically consecutive segments; a consecutive pair would
    close an induced C4 through the two triangles it touches.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if pairing is None:
        pairing = [(i, i + q) for i in range(1, q + 1)]
    pairing = [tuple(p) for p in pairing]
    seen: set[int] = set()
    for i, j in pairing:
        if not (1 <= i <= 2 * q and 1 <= j <= 2 * q) or i == j:
            raise ValueError(f"pair ({i}, {j}) is not two distinct segments in 1..{2 * q}")
        if i in seen or j in seen:
            raise ValueError(f"segment paired twice in ({i}, {j})")
        seen |= {i, j}
        if j == i % (2 * q) + 1 or i == j % (2 * q) + 1:
            raise ValueError(f"pair ({i}, {j}) joins consecutive segments")
    if len(seen) != 2 * q:
        raise ValueError(f"pairing covers {len(seen)} of {2 * q} segments")
    return _ke_instance("KE_CUSTOM", q, pairing)


# -- two cliques plus a matching, and its subdivided descendants -----------------


def b_t(t: int) -> FamilyInstance:
    """Two complete graphs of order t joined by a perfect matching."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    labels = [f"a{i}" for i in range(1, t + 1)] + [f"b{i}" for i in range(1, t + 1)]
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edges += [(t + i, t + j) for i in range(t) for j in range(i + 1, t) if i < j]
    edges += [(i, t + i) for i in range(t)]
    return _verified(
        FamilyInstance(
            family="B",
            param=t,
            graph=graph_from_edges(2 * t, edges, labels),
            canonical=BlockPartition([set(range(t)), set(range(t, 2 * t))]),
            frozen=BlockPartition([{i, t + i} for i in range(t)]),
            expected=Expected(
                n=2 * t,
                edges=t * t,
                theta=2,
                alpha=2,
                frozen_blocks=t,
                c4_free=False,
                alpha_witness=(0, t + 1),
            ),
        )
    )


def h_t_complement(t: int) -> FamilyInstance:
    """b_t with every matching edge but the first subdivided.

    Each subdivision runs through the certificate transport (the matching
    pair {a_i, b_i} is a frozen block, so case 2 applies every time), which
    kills every C4 of the input and leaves t+1 cover blocks and 2t-1 frozen
    blocks on 4t-2 vertices.
    """
    if t < 3:
        raise ValueError(f"t must be at least 3, got {t}")
    base = b_t(t)
    g, q, f = base.graph, base.canonical, base.frozen
    for i in range(1, t):  # subdivide a_{i+1} b_{i+1}, keeping a_1 b_1
        result = subdivide_with_certificates(g, q, f, i, t + i, strict_c4=True)
        require(result.case_used == 2, "subdivision of a matching edge left case 2")
        g, q, f = result.graph_out, result.q_out, result.f_out
    witness = (0, t + 1) + tuple(2 * t + 2 * s for s in range(t - 1))
    return _verified(
        FamilyInstance(
            family="H",
            param=t,
            graph=g,
            canonical=q,
            frozen=f,
            expected=Expected(
                n=4 * t - 2,
                edges=t * t + 2 * (t - 1),
                theta=t + 1,
                alpha=t + 1,
                frozen_blocks=2 * t - 1,
                c4_free=True,
                alpha_witness=witness,
            ),
        )
    )


def chain_complement(t: int) -> FamilyInstance:
    """me_complement(2) with the spine edge u1 u2 subdivided 2(t-4) times."""
    if t < 4:
        raise ValueError(f"t must be at least 4, got {t}")
    base = me_complement(2)
    w_count = 2 * (t - 4)
    n = base.graph.n + w_count
    u1, u2 = 1, 2

    def w(k: int) -> int:  # k = 1..w_count
        return base.graph.n + k - 1

    edges = [e for e in base.graph.edges() if e != (u1, u2)]
    if w_count:
        path = [u1] + [w(k) for k in range(1, w_count + 1)] + [u2]
        edges += [(path[s], path[s + 1]) for s in range(len(path) - 1)]
    else:
        edges.append((u1, u2))
    labels = list(base.graph.labels) + [f"w{k}" for k in range(1, w_count + 1)]
    canonical = BlockPartition(
        list(base.canonical.blocks)
        + [{w(2 * i - 1), w(2 * i)} for i in range(1, t - 3)]
    )
    frozen = BlockPartition(
        list(base.frozen.blocks)
        + [{w(2 * i - 1), w(2 * i)} for i in range(1, t - 3)]
    )
    witness = tuple(base.expected.alpha_witness) + tuple(
        w(2 * i - 1) for i in range(1, t - 3)
    )
    return _verified(
        FamilyInstance(
            family="CHAIN",
            param=t,
            graph=graph_from_edges(n, edges, labels),
            canonical=canonical,
            frozen=frozen,
            expected=Expected(
                n=2 * t + 2,
                edges=2 * t + 6,
                theta=t,
                alpha=t,
                frozen_blocks=t + 1,
                c4_free=True,
                alpha_witness=witness,
            ),
        )
    )


def cycle_frozen_3(n: int) -> BlockPartition | None:
    """The repeating 3-colouring of the n-cycle, when it exists.

    A colouring of a cycle is frozen exactly when both neighbours of every
    vertex show both other colours, which forces the period-3 pattern, so a
    frozen 3-colouring exists iff n is divisible by 3.
    """
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    if n % 3:
        return None
    return BlockPartition.from_colours([i % 3 for i in range(n)], 3)


BUILDERS = {
    "ME": me_complement,
    "ME_STAR": me_star_complement,
    "KM": km_complement,
    "KE": ke_complement,
    "KE_CUSTOM": ke_custom,
    "B": b_t,
    "H": h_t_complement,
    "CHAIN": chain_complement,
}
