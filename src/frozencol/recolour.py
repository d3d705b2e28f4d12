"""Constructive recolouring: verified move sequences with per-vertex bounds.

Every operation returns a MoveSequence that has been replayed for properness
before it is handed back. The pipeline: grow a maximal-first partition, reach
a colouring monochromatic on each part (at most 6 moves per vertex on
3-chromatic 2K2-free graphs, 1 on bipartite ones), and bridge two such
colourings by renaming classes (at most 2 moves per vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import CertificateError, Graph, find_induced, require
from .partitions import BlockPartition, is_proper_colouring
from .solvers import chromatic_number


@lru_cache(maxsize=65536)
def _chi(g: Graph):
    return chromatic_number(g)


@lru_cache(maxsize=65536)
def _two_k2(g: Graph):
    return find_induced(g, "2K2")


@lru_cache(maxsize=65536)
def _neighbours(g: Graph) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(g.neighbour_list(v)) for v in range(g.n))


@dataclass(frozen=True)
class MoveSequence:
    """A walk in R_ell(g): start colouring plus (vertex, new colour) steps."""

    start: BlockPartition
    moves: tuple
    ell: int

    def __len__(self) -> int:
        return len(self.moves)

    def end_colours(self) -> list[int]:
        cols = self.start.to_colours()
        for v, c in self.moves:
            cols[v] = c
        return cols

    def end_partition(self) -> BlockPartition:
        return BlockPartition.from_colours(self.end_colours(), self.ell)

    def per_vertex_counts(self) -> list[int]:
        counts = [0] * self.start.ground
        for v, _ in self.moves:
            counts[v] += 1
        return counts

    def max_per_vertex(self) -> int:
        counts = self.per_vertex_counts()
        return max(counts) if counts else 0

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "start": self.start.to_colour_line(),
            "moves": [[v, c] for v, c in self.moves],
            "total": len(self.moves),
            "per_vertex_max": self.max_per_vertex(),
        }


@dataclass(frozen=True)
class MoveStats:
    """Replay verdict: validity, failing index, and move accounting."""

    valid: bool
    failure_index: int | None
    total: int
    per_vertex: tuple
    max_per_vertex: int
    end: BlockPartition | None


def verify_moves(g: Graph, seq: MoveSequence) -> MoveStats:
    """Replay a sequence, rejecting the first improper or no-op move.

    failure_index is -1 when the start itself is rejected, otherwise the
    index of the offending move.
    """
    counts = [0] * g.n

    def fail(index):
        return MoveStats(False, index, len(seq.moves), tuple(counts), max(counts, default=0), None)

    if seq.start.ground != g.n or seq.start.k != seq.ell:
        return fail(-1)
    if not is_proper_colouring(g, seq.start):
        return fail(-1)
    cols = seq.start.to_colours()
    nbrs = _neighbours(g)
    for i, (v, c) in enumerate(seq.moves):
        if not (0 <= v < g.n and 0 <= c < seq.ell) or cols[v] == c:
            return fail(i)
        if any(cols[u] == c for u in nbrs[v]):
            return fail(i)
        cols[v] = c
        counts[v] += 1
    end = BlockPartition.from_colours(cols, seq.ell)
    return MoveStats(True, None, len(seq.moves), tuple(counts), max(counts, default=0), end)


class _Recorder:
    """Accumulates moves while tracking the current colour vector."""

    def __init__(self, g: Graph, start: BlockPartition, ell: int):
        self.nbrs = _neighbours(g)
        self.ell = ell
        self.cols = start.to_colours()
        self.moves: list[tuple[int, int]] = []

    def move(self, v: int, c: int) -> None:
        if self.cols[v] == c:
            return
        if not 0 <= c < self.ell:
            raise CertificateError(f"move {v}->{c} leaves the {self.ell} colours")
        for u in self.nbrs[v]:
            if self.cols[u] == c:
                raise CertificateError(f"move {v}->{c} conflicts with {u}")
        self.moves.append((v, c))
        self.cols[v] = c

    def extend(self, seq: MoveSequence) -> None:
        for v, c in seq.moves:
            self.move(v, c)

    def partition(self) -> BlockPartition:
        return BlockPartition.from_colours(self.cols, self.ell)


def _sealed(g: Graph, start: BlockPartition, moves, ell: int,
            bound: int | None = None, end: BlockPartition | None = None) -> MoveSequence:
    """The walk from start, checked by one replay before it is returned.

    The replay must accept every move; with bound, no vertex may move more
    often; with end, the walk must finish on that colouring.
    """
    seq = MoveSequence(start, tuple(moves), ell)
    stats = verify_moves(g, seq)
    if not stats.valid:
        raise CertificateError(f"emitted sequence fails replay at {stats.failure_index}")
    require(bound is None or stats.max_per_vertex <= bound, "a vertex moved beyond the bound")
    require(end is None or stats.end == end, "walk ends off its target colouring")
    return seq


@dataclass(frozen=True)
class CanonicalContext:
    """Target partition A_1, A_2(, A_3) of graph, A_1 maximal independent.

    The parts are independent, disjoint and cover the vertices; part j is
    the class that ends on colour j. Checked once, when it is built, so the
    stages that take a context trust it.
    """

    graph: Graph
    parts: tuple

    def __post_init__(self):
        g, parts = self.graph, self.parts
        if not parts or not parts[0]:
            raise ValueError("first part must be nonempty")
        if len(parts) not in (2, 3):
            raise ValueError("need two or three parts")
        covered = 0
        for i, part in enumerate(parts):
            mask = sum(1 << u for u in part)
            if any(g.rows[v] & mask for v in part):
                raise ValueError(f"part {i} is not independent")
            if covered & mask:
                raise ValueError("parts overlap")
            covered |= mask
        if covered != (1 << g.n) - 1:
            raise ValueError("parts do not cover the vertex set")
        first = sum(1 << u for u in parts[0])
        for v in range(g.n):
            if not (first >> v) & 1 and not g.rows[v] & first:
                raise ValueError(f"first part is not maximal: vertex {v} fits")


def _check_start(ctx: CanonicalContext, start: BlockPartition, ell: int,
                 parts: int, name: str = "start") -> None:
    """Entry checks of the canonical stages: part count, colour budget, start."""
    if len(ctx.parts) != parts:
        raise ValueError(f"need a {('two', 'three')[parts - 2]}-part context")
    if ell < parts + 1:
        raise ValueError(f"need at least {parts + 1} colours")
    if start.k != ell or not is_proper_colouring(ctx.graph, start):
        raise ValueError(f"{name} must be a proper colouring on ell blocks")


def _most_adjacent(g: Graph, candidates, targets) -> int:
    """The candidate with the most neighbours in targets, ties to the least index."""
    mask = sum(1 << u for u in targets)
    return min(candidates, key=lambda x: (-(g.rows[x] & mask).bit_count(), x))


def maximal_first_partition(g: Graph, parts_needed: int) -> CanonicalContext:
    """Partition into independent parts with the first grown maximal.

    Starts from a minimum colouring and absorbs into the first part, in
    index order, every vertex with no neighbour there.
    """
    if parts_needed not in (2, 3):
        raise ValueError("parts_needed must be 2 or 3")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    chi, witness = _chi(g)
    if chi > parts_needed:
        raise ValueError(f"chromatic number {chi} exceeds {parts_needed}")
    blocks = list(witness.blocks) + [frozenset()] * (parts_needed - chi)
    first = set(blocks[0])
    for v in range(g.n):
        if v not in first and not any(g.has_edge(v, u) for u in first):
            first.add(v)
    first = frozenset(first)
    return CanonicalContext(g, (first,) + tuple(b - first for b in blocks[1:]))


def complete_vertex(ctx: CanonicalContext, j: int) -> int:
    """The first-part vertex complete to part j (1-indexed into ctx.parts).

    It is the first-part vertex with the most neighbours in part j, ties by
    index. Exists on every 2K2-free graph; a 2K2 is reported otherwise.
    """
    if not 1 <= j < len(ctx.parts):
        raise ValueError(f"no part {j} beyond the first")
    g = ctx.graph
    witness = _two_k2(g)
    if witness is not None:
        raise ValueError(f"graph contains an induced 2K2 on {witness}")
    part = ctx.parts[j]
    x = _most_adjacent(g, ctx.parts[0], part)
    missing = [u for u in part if not g.has_edge(x, u)]
    require(not missing, f"candidate {x} misses {missing} despite 2K2-freeness")
    return x


def rename_moves(g: Graph, beta: BlockPartition, gamma: BlockPartition, ell: int) -> MoveSequence:
    """From beta to gamma when both induce the same unordered partition.

    Decomposes the class-to-colour permutation into paths and cycles; paths
    are shifted from their free end, each cycle is broken by parking one
    class on a currently-unused colour. At most 2 moves per vertex.
    """
    if beta.k != ell or gamma.k != ell:
        raise ValueError("both colourings must use the full colour budget")
    if not is_proper_colouring(g, beta) or not is_proper_colouring(g, gamma):
        raise ValueError("endpoints must be proper colourings")
    source = {b: c for c, b in enumerate(beta.blocks) if b}
    target = {b: c for c, b in enumerate(gamma.blocks) if b}
    if set(source) != set(target):
        raise ValueError("colourings induce different partitions")
    if ell < len(source) + 1:
        raise ValueError("no spare colour: need ell above the used class count")

    succ = {}  # colour of a class under beta -> its colour under gamma
    block_at = {}
    for block, b in source.items():
        t = target[block]
        if b != t:
            succ[b] = t
            block_at[b] = block
    rec = _Recorder(g, beta, ell)

    def shift(colour_from: int, colour_to: int) -> None:
        for v in sorted(block_at[colour_from]):
            rec.move(v, colour_to)
        block_at[colour_to] = block_at.pop(colour_from)

    # paths: walk back from each free target
    moving_targets = set(succ.values())
    for tail in sorted(t for t in moving_targets if t not in succ):
        chain = []
        c = tail
        preds = {t: b for b, t in succ.items()}
        while c in preds:
            chain.append((preds[c], c))
            c = preds[c]
        for b, t in chain:
            shift(b, t)
            del succ[b]

    # cycles: whatever remains
    while succ:
        c1 = min(succ)
        cycle = [c1]
        c = succ[c1]
        while c != c1:
            cycle.append(c)
            c = succ[c]
        occupied = {rec.cols[v] for v in range(g.n)}
        spare = next(s for s in range(ell) if s not in occupied)
        last = cycle[-1]
        shift(last, spare)
        for b, t in zip(reversed(cycle[:-1]), reversed(cycle[1:])):
            shift(b, t)
        shift(spare, c1)
        for c in cycle:
            del succ[c]

    return _sealed(g, beta, rec.moves, ell, bound=2, end=gamma)


def bipartite_canonical_moves(
    ctx: CanonicalContext, beta: BlockPartition, ell: int
) -> MoveSequence:
    """Reach a colouring monochromatic on both parts, one move per vertex.

    The first part goes to the colour of its vertex complete to the second
    part (so nothing over there blocks it), then the second part goes to the
    smallest other colour.
    """
    _check_start(ctx, beta, ell, 2)
    g = ctx.graph
    x = complete_vertex(ctx, 1)
    rec = _Recorder(g, beta, ell)
    c0 = rec.cols[x]
    for v in sorted(ctx.parts[0]):
        rec.move(v, c0)
    c1 = next(c for c in range(ell) if c != c0)
    for v in sorted(ctx.parts[1]):
        rec.move(v, c1)
    return _sealed(g, beta, rec.moves, ell, bound=1)


def _two_smallest_other(ell: int, banned: int) -> tuple[int, int]:
    free = [c for c in range(ell) if c != banned]
    return free[0], free[1]


def single_colour_part_moves(
    ctx: CanonicalContext, psi: BlockPartition, i: int, ell: int
) -> MoveSequence:
    """Canonicalise a colouring whose part i is monochromatic (fold-and-shift).

    Part i keeps its colour c_i and never moves; the other two parts end on
    the two smallest remaining colours, each vertex outside part i moving at
    most 4 times. Writing A for the whole colour class of c_i, X and Y for
    the other parts minus A: fold X' = X plus the Y-vertices with no
    neighbour in X (maximal independent in G-A), send X' to the colour of an
    X'-vertex complete to Y-X', send Y-X' to a fourth colour d2, unfold
    X'-and-Y to d2, then shift X and Y onto their target colours and finally
    fold the stray c_i-coloured vertices into their parts.
    """
    _check_start(ctx, psi, ell, 3, "psi")
    g = ctx.graph
    if not 0 <= i < 3:
        raise ValueError("part index out of range")
    witness = _two_k2(g)
    if witness is not None:
        raise ValueError(f"graph contains an induced 2K2 on {witness}")
    cols = psi.to_colours()
    part_i = ctx.parts[i]
    if not part_i:
        raise ValueError(f"part {i} is empty")
    ci_values = {cols[v] for v in part_i}
    if len(ci_values) != 1:
        raise ValueError(f"part {i} uses colours {sorted(ci_values)}, need one")
    c_i = ci_values.pop()
    ji, ki = [t for t in range(3) if t != i]
    c_j, c_k = _two_smallest_other(ell, c_i)

    target_cols = [0] * g.n
    for v in part_i:
        target_cols[v] = c_i
    for v in ctx.parts[ji]:
        target_cols[v] = c_j
    for v in ctx.parts[ki]:
        target_cols[v] = c_k
    gamma = BlockPartition.from_colours(target_cols, ell)

    # canonical up to class colours: plain renaming is enough (and cheaper)
    if {b for b in psi.blocks if b} == {b for b in gamma.blocks if b}:
        seq = rename_moves(g, psi, gamma, ell)
    else:
        a_set = {v for v in range(g.n) if cols[v] == c_i}
        x_set = set(ctx.parts[ji]) - a_set
        y_set = set(ctx.parts[ki]) - a_set
        x_fold = x_set | {y for y in y_set if not any(g.has_edge(y, u) for u in x_set)}
        y_rest = y_set - x_fold

        rec = _Recorder(g, psi, ell)
        if x_fold:
            if y_rest:
                # a fold vertex complete to the rest exists since g is 2K2-free
                star = _most_adjacent(g, x_fold, y_rest)
                require(all(g.has_edge(star, u) for u in y_rest),
                        "no fold vertex is complete to the rest despite 2K2-freeness")
            else:
                star = min(x_fold)
            d1 = rec.cols[star]
            for v in sorted(x_fold):
                rec.move(v, d1)
            d2 = next(c for c in range(ell) if c not in (c_i, d1, c_j))
            for v in sorted(y_rest):
                rec.move(v, d2)
            for v in sorted(x_fold & y_set):
                rec.move(v, d2)
            for v in sorted(x_set):
                rec.move(v, c_j)
            for v in sorted(y_set):
                rec.move(v, c_k)
        for v in sorted(a_set & set(ctx.parts[ji])):
            rec.move(v, c_j)
        for v in sorted(a_set & set(ctx.parts[ki])):
            rec.move(v, c_k)

        seq = _sealed(g, psi, rec.moves, ell, bound=4, end=gamma)
    require(part_i.isdisjoint(v for v, _ in seq.moves), f"part {i} moved")
    return seq


def canonical_moves(ctx: CanonicalContext, beta: BlockPartition, ell: int) -> MoveSequence:
    """Reach the exact target colouring of ctx, at most 6 moves per vertex.

    Decision tree: a part with a vertex dominating everything outside it can
    be monochromed immediately; so can the first part when its two complete
    vertices share a colour. Otherwise stage the two anchor colours through
    every part, which leaves either a part colour that appears nowhere else
    (monochrome it) or, after one orientation swap justified by 2K2-freeness,
    a part free of some colour entirely. Each branch lands in
    single_colour_part_moves and a final renaming onto the target colours.
    """
    _check_start(ctx, beta, ell, 3)
    g = ctx.graph
    chi, _ = _chi(g)
    if chi != 3:
        raise ValueError(f"pipeline covers 3-chromatic graphs, got chi={chi}")
    x2 = complete_vertex(ctx, 1)
    x3 = complete_vertex(ctx, 2)

    rec = _Recorder(g, beta, ell)
    nbrs = rec.nbrs

    def finish(part_index: int) -> MoveSequence:
        sub = single_colour_part_moves(ctx, rec.partition(), part_index, ell)
        rec.extend(sub)
        target_cols = [0] * g.n
        for colour, part in enumerate(ctx.parts):
            for v in part:
                target_cols[v] = colour
        gamma = BlockPartition.from_colours(target_cols, ell)
        rec.extend(rename_moves(g, rec.partition(), gamma, ell))
        return _sealed(g, beta, rec.moves, ell, bound=6, end=gamma)

    # a vertex adjacent to everything outside its part: monochrome that part
    outside_masks = [
        sum(1 << v for v in range(g.n) if v not in part) for part in ctx.parts
    ]
    for t, part in enumerate(ctx.parts):
        for x in sorted(part):
            if g.rows[x] & outside_masks[t] == outside_masks[t]:
                for v in sorted(part):
                    rec.move(v, rec.cols[x])
                return finish(t)

    # a shared complete vertex dominates and was caught above
    require(x2 != x3, "two parts share their complete vertex")
    c1 = rec.cols[x2]
    c2 = rec.cols[x3]
    if c1 == c2:
        # nothing outside the first part holds c1: monochrome the first part
        for v in sorted(ctx.parts[0]):
            rec.move(v, c1)
        return finish(0)

    def none_coloured(vertices, colour) -> bool:
        return all(rec.cols[u] != colour for u in vertices)

    # stage the anchor colours: as many of A_2 to c2, A_3 to c1, A_1 to either
    for v in sorted(ctx.parts[1]):
        if rec.cols[v] != c2 and none_coloured(nbrs[v], c2):
            rec.move(v, c2)
    for v in sorted(ctx.parts[2]):
        if rec.cols[v] != c1 and none_coloured(nbrs[v], c1):
            rec.move(v, c1)
    for v in sorted(ctx.parts[0]):
        if rec.cols[v] not in (c1, c2):
            if none_coloured(nbrs[v], c1):
                rec.move(v, c1)
            elif none_coloured(nbrs[v], c2):
                rec.move(v, c2)

    # case 1: a first-part vertex kept a colour that now appears only there
    for x in sorted(ctx.parts[0]):
        if rec.cols[x] not in (c1, c2):
            c = rec.cols[x]
            require(none_coloured(set(range(g.n)) - ctx.parts[0], c),
                    "staged colour appears outside the first part")
            for v in sorted(ctx.parts[0]):
                rec.move(v, c)
            return finish(0)

    others = [c for c in range(ell) if c not in (c1, c2)]

    # case 2(a): some non-anchor colour is absent from a later part
    for t in (1, 2):
        for c in others:
            if none_coloured(ctx.parts[t], c):
                other = 3 - t
                for v in sorted(ctx.parts[other]):
                    rec.move(v, c)
                return finish(other)

    # case 2(b): both smallest non-anchor colours appear on both later parts
    c, cp = others[0], others[1]
    blocked = any(
        rec.cols[v] == cp and any(rec.cols[u] == c for u in nbrs[v])
        for v in ctx.parts[1]
    )
    if blocked:
        c, cp = cp, c
    swap_blocked = any(
        rec.cols[v] == cp and any(rec.cols[u] == c for u in nbrs[v])
        for v in ctx.parts[1]
    )
    require(not swap_blocked, "both orientations blocked: induced 2K2 present")
    for v in sorted(ctx.parts[1]):
        if rec.cols[v] == cp:
            rec.move(v, c)
    for v in sorted(ctx.parts[2]):
        rec.move(v, cp)
    return finish(2)


def path_between(g: Graph, beta: BlockPartition, gamma: BlockPartition, ell: int) -> MoveSequence:
    """A verified walk from beta to gamma, at most 14 moves per vertex.

    Bipartite graphs take the 1+2+1 pipeline; 3-chromatic graphs take
    canonical_moves on both ends with a renaming bridge.
    """
    for p in (beta, gamma):
        if p.k != ell or p.ground != g.n or not is_proper_colouring(g, p):
            raise ValueError("endpoints must be proper colourings on ell blocks")
    if beta == gamma:
        return MoveSequence(beta, (), ell)
    chi, _ = _chi(g)
    if chi > 3:
        raise ValueError(f"pipeline covers chromatic number up to 3, got {chi}")
    if chi <= 2:
        parts, canonical, bound = 2, bipartite_canonical_moves, 4
    else:
        parts, canonical, bound = 3, canonical_moves, 14
    if ell < parts + 1:
        raise ValueError(f"need at least {parts + 1} colours")
    ctx = maximal_first_partition(g, parts)
    s1 = canonical(ctx, beta, ell)
    s2 = canonical(ctx, gamma, ell)
    bridge = rename_moves(g, s1.end_partition(), s2.end_partition(), ell)
    cols, back = gamma.to_colours(), []  # s2 travelled from its end back to gamma
    for v, c in s2.moves:
        back.append((v, cols[v]))
        cols[v] = c
    moves = s1.moves + bridge.moves + tuple(reversed(back))
    return _sealed(g, beta, moves, ell, bound=bound, end=gamma)
