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
from .partitions import BlockPartition, is_proper_colouring

DEFAULT_LIMIT = 40


def _check_limit(g: Graph) -> None:
    if g.n > DEFAULT_LIMIT:
        raise ValueError(f"graph order {g.n} exceeds exactness bound {DEFAULT_LIMIT}")


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
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (rows[v] & pool).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        grow(pool & ~rows[pivot] & ~(1 << pivot), cur | 1 << pivot, cur_size + 1)
        grow(pool & ~(1 << pivot), cur, cur_size)

    grow((1 << n) - 1, 0, 0)
    return best[0]


def independence_number(g: Graph) -> tuple[int, set[int]]:
    """Exact independence number with a verified witness set."""
    _check_limit(g)
    mask = _max_independent_mask(g.rows, g.n)
    witness = set(bits(mask))
    require(not any(g.rows[v] & mask for v in witness), "witness is not independent")
    return len(witness), witness


def clique_number(g: Graph) -> tuple[int, set[int]]:
    """Exact clique number: independence number of the complement."""
    size, witness = independence_number(complement(g))
    require(all(g.has_edge(u, v) for u in witness for v in witness if u < v),
            "witness is not a clique")
    return size, witness


# -- exact colouring ----------------------------------------------------------


def _dsatur_pick(rows: tuple[int, ...], nbr_colours: list[int], uncoloured: int) -> int:
    """The uncoloured vertex with the most distinct neighbour colours.

    Ties break on the most uncoloured neighbours, then on the lowest index.
    """
    v_best, sat_best, deg_best = -1, -1, -1
    pool = uncoloured
    while pool:
        low = pool & -pool
        pool ^= low
        v = low.bit_length() - 1
        sat = nbr_colours[v].bit_count()
        if sat < sat_best:
            continue
        deg = (rows[v] & uncoloured).bit_count()
        if sat > sat_best or deg > deg_best:
            v_best, sat_best, deg_best = v, sat, deg
    return v_best


def _dsatur_greedy(g: Graph) -> list[int]:
    """Greedy colouring, highest saturation first; an upper bound for chi."""
    rows = g.rows
    colours = [-1] * g.n
    nbr_colours = [0] * g.n
    uncoloured = (1 << g.n) - 1
    while uncoloured:
        v = _dsatur_pick(rows, nbr_colours, uncoloured)
        uncoloured ^= 1 << v
        free = ~nbr_colours[v]
        low = free & -free
        colours[v] = low.bit_length() - 1
        for u in bits(rows[v] & uncoloured):
            nbr_colours[u] |= low
    return colours


def _try_colouring(g: Graph, k: int, seed: list[int]) -> list[int] | None:
    """Exact k-colourability via DSATUR backtracking.

    `seed` is a clique whose vertices are pinned to colours 0..|seed|-1; a new
    colour index may only enter in sequence, which breaks colour symmetry.
    Only uncoloured vertices' neighbour-colour masks are kept: the pick and
    the colour choice read no others.
    """
    rows = g.rows
    if len(seed) > k:
        return None
    colours = [-1] * g.n
    nbr_colours = [0] * g.n
    uncoloured = (1 << g.n) - 1
    for i, v in enumerate(seed):
        if not uncoloured >> v & 1 or nbr_colours[v] >> i & 1:
            return None  # seed is not a clique with distinct colours
        colours[v] = i
        uncoloured ^= 1 << v
        for u in bits(rows[v] & uncoloured):
            nbr_colours[u] |= 1 << i

    def extend(uncoloured: int, max_used: int) -> bool:
        if not uncoloured:
            return True
        v = _dsatur_pick(rows, nbr_colours, uncoloured)
        uncoloured ^= 1 << v
        free = ~nbr_colours[v] & ((1 << min(k, max_used + 2)) - 1)
        nbrs = list(bits(rows[v] & uncoloured))
        saved = [nbr_colours[u] for u in nbrs]
        while free:
            low = free & -free
            free ^= low
            c = low.bit_length() - 1
            colours[v] = c
            for u in nbrs:
                nbr_colours[u] |= low
            if extend(uncoloured, max(max_used, c)):
                return True
            for u, mask in zip(nbrs, saved):
                nbr_colours[u] = mask
        return False

    if extend(uncoloured, len(seed) - 1):
        return colours
    return None


def chromatic_number(g: Graph) -> tuple[int, BlockPartition]:
    """Exact chromatic number with a proper witness colouring."""
    _check_limit(g)
    if g.n == 0:
        return 0, BlockPartition([])
    clique_size, clique = clique_number(g)
    greedy = _dsatur_greedy(g)
    upper = max(greedy) + 1
    lower = clique_size
    if lower < upper:  # omega = upper leaves no k to try; alpha is not needed
        alpha, _ = independence_number(g)
        lower = max(lower, -(-g.n // alpha))
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


def clique_cover_number(g: Graph) -> tuple[int, BlockPartition]:
    """Exact clique cover number: chromatic number of the complement.

    chromatic_number has already required its witness to be a proper
    colouring of the complement, which is what a clique partition of g is.
    """
    return chromatic_number(complement(g))


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


def analyze(g: Graph) -> InvariantReport:
    """All four invariants plus freeness flags, cross-checked before return."""
    _check_limit(g)
    chi, colouring = chromatic_number(g)
    theta, cover = clique_cover_number(g)
    alpha, ind_set = independence_number(g)
    omega, clique = clique_number(g)
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
