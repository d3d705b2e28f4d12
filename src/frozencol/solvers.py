"""Exact chromatic, clique-cover, independence, and clique numbers.

One branch-and-bound kernel per quantity: a max-independent-set search over
bitmasks, and a DSATUR-style exact colouring search seeded with a maximal
clique. The clique-side quantities route through the complement. Everything
is exact and deterministic (ties break on the lowest vertex index); past the
size bound the functions refuse instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, complement, find_induced, require
from .partitions import (
    BlockPartition,
    is_clique_partition,
    is_proper_colouring,
)

DEFAULT_LIMIT = 40


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise ValueError(f"graph order {g.n} exceeds exactness bound {limit}")


# -- independent sets ---------------------------------------------------------


def _greedy_independent(rows: tuple[int, ...], pool: int) -> int:
    out = 0
    while pool:
        v = (pool & -pool).bit_length() - 1
        out |= 1 << v
        pool &= ~rows[v] & ~(1 << v)
    return out


def _max_independent_mask(rows: tuple[int, ...], n: int) -> int:
    """Largest independent set as a bitmask, lowest-index witness preferred."""
    best = [_greedy_independent(rows, (1 << n) - 1)]

    def grow(pool: int, cur: int, cur_size: int) -> None:
        if cur_size + pool.bit_count() <= best[0].bit_count():
            return
        if not pool:
            best[0] = cur
            return
        # Branch on the busiest remaining vertex; taking it shrinks the pool most.
        pivot, pivot_deg = -1, -1
        for v in bits(pool):
            d = (rows[v] & pool).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        grow(pool & ~rows[pivot] & ~(1 << pivot), cur | 1 << pivot, cur_size + 1)
        grow(pool & ~(1 << pivot), cur, cur_size)

    grow((1 << n) - 1, 0, 0)
    return best[0]


def independence_number(g: Graph, limit: int = DEFAULT_LIMIT) -> tuple[int, set[int]]:
    """Exact independence number with a verified witness set."""
    _check_limit(g, limit)
    mask = _max_independent_mask(g.rows, g.n)
    witness = set(bits(mask))
    require(not any(g.rows[v] & mask for v in witness), "witness is not independent")
    return len(witness), witness


def clique_number(g: Graph, limit: int = DEFAULT_LIMIT) -> tuple[int, set[int]]:
    """Exact clique number: independence number of the complement."""
    size, witness = independence_number(complement(g), limit)
    require(all(g.has_edge(u, v) for u in witness for v in witness if u < v),
            "witness is not a clique")
    return size, witness


# -- exact colouring ----------------------------------------------------------


def _dsatur_pick(g: Graph, colours: list[int], nbr_colours: list[int]) -> int:
    """The uncoloured vertex with the most distinct neighbour colours.

    Ties break on the most uncoloured neighbours, then on the lowest index.
    """
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


def _dsatur_greedy(g: Graph) -> list[int]:
    """Greedy colouring, highest saturation first; an upper bound for chi."""
    n = g.n
    colours = [-1] * n
    nbr_colours = [0] * n
    for _ in range(n):
        v_best = _dsatur_pick(g, colours, nbr_colours)
        c = 0
        while nbr_colours[v_best] >> c & 1:
            c += 1
        colours[v_best] = c
        for u in bits(g.rows[v_best]):
            nbr_colours[u] |= 1 << c
    return colours


def _try_colouring(g: Graph, k: int, seed: list[int]) -> list[int] | None:
    """Exact k-colourability via DSATUR backtracking.

    `seed` is a clique whose vertices are pinned to colours 0..|seed|-1; a new
    colour index may only enter in sequence, which breaks colour symmetry.
    """
    n = g.n
    if len(seed) > k:
        return None
    colours = [-1] * n
    nbr_colours = [0] * n

    def set_colour(v: int, c: int) -> None:
        colours[v] = c
        for u in bits(g.rows[v]):
            nbr_colours[u] |= 1 << c

    def recount(v: int) -> None:
        mask = 0
        for u in bits(g.rows[v]):
            if colours[u] != -1:
                mask |= 1 << colours[u]
        nbr_colours[v] = mask

    for i, v in enumerate(seed):
        if colours[v] != -1 or nbr_colours[v] >> i & 1:
            return None  # seed is not a clique with distinct colours
        set_colour(v, i)

    def extend(done: int, max_used: int) -> bool:
        if done == n:
            return True
        v = _dsatur_pick(g, colours, nbr_colours)
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


def chromatic_number(g: Graph, limit: int = DEFAULT_LIMIT) -> tuple[int, BlockPartition]:
    """Exact chromatic number with a proper witness colouring."""
    _check_limit(g, limit)
    if g.n == 0:
        return 0, BlockPartition([])
    clique_size, clique = clique_number(g, limit)
    alpha, _ = independence_number(g, limit)
    lower = max(clique_size, -(-g.n // alpha))
    greedy = _dsatur_greedy(g)
    upper = max(greedy) + 1
    seed = sorted(clique)
    best = greedy
    for k in range(lower, upper):
        attempt = _try_colouring(g, k, seed)
        if attempt is not None:
            best = attempt
            break
    chi = max(best) + 1
    witness = BlockPartition.from_colours(best, chi)
    require(is_proper_colouring(g, witness), "witness colouring is improper")
    return chi, witness


def clique_cover_number(g: Graph, limit: int = DEFAULT_LIMIT) -> tuple[int, BlockPartition]:
    """Exact clique cover number: chromatic number of the complement."""
    theta, witness = chromatic_number(complement(g), limit)
    require(is_clique_partition(g, witness), "witness is not a clique partition")
    return theta, witness


# -- combined report ----------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    chi: int
    theta: int
    alpha: int
    omega: int
    edge_count: int
    c4_free: bool
    twok2_free: bool
    p4_free: bool
    p5_free: bool
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "chi": self.chi,
            "theta": self.theta,
            "alpha": self.alpha,
            "omega": self.omega,
            "edge_count": self.edge_count,
            "c4_free": self.c4_free,
            "2k2_free": self.twok2_free,
            "p4_free": self.p4_free,
            "p5_free": self.p5_free,
            "witnesses": self.witnesses,
        }


def analyze(g: Graph, limit: int = DEFAULT_LIMIT) -> InvariantReport:
    """All four invariants plus freeness flags, cross-checked before return."""
    _check_limit(g, limit)
    chi, colouring = chromatic_number(g, limit)
    theta, cover = clique_cover_number(g, limit)
    alpha, ind_set = independence_number(g, limit)
    omega, clique = clique_number(g, limit)
    require(omega <= chi and alpha <= theta, "omega above chi or alpha above theta")
    require(g.n == 0 or alpha * chi >= g.n and omega * theta >= g.n,
            "alpha*chi or omega*theta below the order")
    require(colouring.k == chi and cover.k == theta, "witness size differs from its invariant")
    report = InvariantReport(
        chi=chi,
        theta=theta,
        alpha=alpha,
        omega=omega,
        edge_count=g.edge_count,
        c4_free=find_induced(g, "C4") is None,
        twok2_free=find_induced(g, "2K2") is None,
        p4_free=find_induced(g, "P4") is None,
        p5_free=find_induced(g, "P5") is None,
        witnesses={
            "chi": colouring.to_json(),
            "theta": cover.to_json(),
            "alpha": sorted(ind_set),
            "omega": sorted(clique),
        },
    )
    return report
