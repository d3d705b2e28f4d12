"""Constructive recolouring: verified move sequences with per-vertex bounds.

The pipeline: grow a maximal-first partition, reach a colouring monochromatic
on each part (at most 6 moves per vertex on 3-chromatic 2K2-free graphs, 1 on
bipartite ones), and bridge two such colourings by renaming classes (at most
2 moves per vertex).

Each stage is a private builder that paints independent vertex masks onto
a shared _Recorder, which checks every move as it is made. A builder checks
only its own stage: the per-vertex bound (6, 4, 2 or 1), counted from the
recorder's moves since the stage began, and its target colouring. Every
public call returns a MoveSequence replayed exactly once, by _sealed,
against its overall bound and end colouring, so path_between composes its
stages and is replayed once.
path_between keeps one cache, of the 128 most recent graphs' contexts: each
is a maximal-first partition into three part masks (the third empty iff
chi <= 2), so chi is solved and the context built and checked once per
cached graph, and a 2K2-free graph is scanned for a 2K2 once. The stages
read the context's part masks and the recorder's colour masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graph import CertificateError, Graph, bits, find_induced, require
from .partitions import BlockPartition, is_proper_colouring
from .solvers import chromatic_number


@lru_cache(maxsize=128)  # a graph's walks come together, so a few recent contexts do
def _context(g: Graph) -> "CanonicalContext":
    return maximal_first_partition(g)


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
    index of the offending move. The replay runs on a _Recorder, which
    decides whether each move is legal.
    """
    start, ell = seq.start, seq.ell
    if start.ground != g.n or start.k != ell or not is_proper_colouring(g, start):
        return MoveStats(False, -1, len(seq.moves), (0,) * g.n, 0, None)
    rec = _Recorder(g, start, ell)
    failure = next((i for i, (v, c) in enumerate(seq.moves) if not rec.step(v, c)), None)
    counts = rec.counts()
    end = None if failure is not None else BlockPartition.from_colours(rec.cols, ell)
    return MoveStats(failure is None, failure, len(seq.moves), tuple(counts),
                     max(counts, default=0), end)


class _Recorder:
    """Accumulates moves while tracking the current colouring.

    It keeps the colour of each vertex and one vertex mask per colour, and
    is the one place that decides whether a move is legal. Each stage
    builder paints independent sets onto a shared recorder and checks its
    own stage with check_stage, so a walk composed of several stages is
    replayed only once, by its final seal.
    """

    def __init__(self, g: Graph, start: BlockPartition, ell: int):
        self.rows = g.rows
        self.ell = ell
        self.cols = start.to_colours()
        self.masks = start.block_masks()
        self.moves: list[tuple[int, int]] = []

    def step(self, v: int, c: int) -> bool:
        """Make the move v -> c if it is legal, and say whether it was: v is
        a vertex, c one of the ell colours other than v's, and v free for c."""
        cols, masks = self.cols, self.masks
        if (not (0 <= v < len(cols) and 0 <= c < self.ell) or cols[v] == c
                or self.rows[v] & masks[c]):
            return False
        masks[cols[v]] ^= 1 << v
        masks[c] |= 1 << v
        cols[v] = c
        self.moves.append((v, c))
        return True

    def paint(self, mask: int, c: int) -> None:
        """A stage's moves: each vertex of mask not yet on colour c moves to c,
        in index order, and each move must be legal."""
        for v in bits(mask & ~self.masks[c]):
            if not self.step(v, c):
                raise CertificateError(f"move {v}->{c} is improper or leaves the {self.ell} colours")

    def near(self, c: int) -> int:
        """The vertices with a neighbour of colour c."""
        out = 0
        for u in bits(self.masks[c]):
            out |= self.rows[u]
        return out

    def counts(self, mark: int = 0) -> list[int]:
        """How often each vertex moved since move mark."""
        counts = [0] * len(self.cols)
        for v, _ in self.moves[mark:]:
            counts[v] += 1
        return counts

    def check_stage(self, mark: int, bound: int, end: list[int]) -> None:
        """Check one stage: since move mark, no vertex moved more than bound
        times, and the colouring is now end."""
        require(max(self.counts(mark), default=0) <= bound,
                f"a vertex moved beyond the stage bound {bound}")
        require(self.cols == end, "stage ends off its target colouring")


def _sealed(g: Graph, start: BlockPartition, moves, ell: int,
            bound: int, end: BlockPartition) -> MoveSequence:
    """The walk from start, checked by one replay before it is returned.

    The replay must accept every move, no vertex may move more than bound
    times, and the walk must finish on end.
    """
    seq = MoveSequence(start, tuple(moves), ell)
    stats = verify_moves(g, seq)
    if not stats.valid:
        raise CertificateError(f"emitted sequence fails replay at {stats.failure_index}")
    require(stats.max_per_vertex <= bound, "a vertex moved beyond the bound")
    require(stats.end == end, "walk ends off its target colouring")
    return seq


@dataclass(frozen=True)
class CanonicalContext:
    """Target partition A_1, A_2, A_3 of graph as vertex masks, A_1 maximal
    independent and A_3 empty iff the graph is bipartite.

    The parts are independent, disjoint and cover the vertices; part j is
    the class that ends on colour j. Checked once, when it is built, so the
    stages that take a context trust it. It also keeps its target colouring
    (colour j on part j) and, once found, the first-part vertex complete to
    each later part.
    """

    graph: Graph
    masks: tuple
    target: list = field(init=False, repr=False, compare=False)
    complete: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, masks = self.graph, self.masks
        for i, mask in enumerate(masks):  # bits() of a negative mask never ends
            if not 0 <= mask < 1 << g.n:
                raise ValueError(f"part {i} is not a mask of the {g.n} vertices")
        if not masks or not masks[0]:
            raise ValueError("first part must be nonempty")
        if len(masks) != 3:
            raise ValueError("need three parts")
        covered, target = 0, [0] * g.n
        for i, mask in enumerate(masks):
            if any(g.rows[v] & mask for v in bits(mask)):
                raise ValueError(f"part {i} is not independent")
            if covered & mask:
                raise ValueError("parts overlap")
            covered |= mask
            for v in bits(mask):
                target[v] = i
        if covered != (1 << g.n) - 1:
            raise ValueError("parts do not cover the vertex set")
        for v in range(g.n):
            if not (masks[0] >> v) & 1 and not g.rows[v] & masks[0]:
                raise ValueError(f"first part is not maximal: vertex {v} fits")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "complete", [None] * 3)


def _check_start(ctx: CanonicalContext, start: BlockPartition, ell: int, parts: int) -> None:
    """Entry checks of the canonical stages: part count, colour budget, start."""
    if (3 if ctx.masks[2] else 2) != parts:
        raise ValueError(f"need a {('two', 'three')[parts - 2]}-part context")
    if ell < parts + 1:
        raise ValueError(f"need at least {parts + 1} colours")
    if start.k != ell or not is_proper_colouring(ctx.graph, start):
        raise ValueError("start must be a proper colouring on ell blocks")


def _most_adjacent(rows, candidates: int, targets: int) -> int:
    """The candidate with the most neighbours in targets, ties to the least index."""
    return max(bits(candidates), key=lambda x: (rows[x] & targets).bit_count())


def maximal_first_partition(g: Graph) -> CanonicalContext:
    """Partition into three independent parts with the first grown maximal.

    Starts from a minimum colouring (padded with empty parts) and absorbs
    into the first part, in index order, every vertex with no neighbour there.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    chi, witness = chromatic_number(g)
    if chi > 3:
        raise ValueError(f"pipeline covers chromatic number up to 3, got {chi}")
    masks = witness.block_masks() + [0] * (3 - chi)
    first = masks[0]
    for v in range(g.n):
        if not g.rows[v] & first:
            first |= 1 << v
    return CanonicalContext(g, (first, masks[1] & ~first, masks[2] & ~first))


def complete_vertex(ctx: CanonicalContext, j: int) -> int:
    """The first-part vertex complete to part j (1 or 2, indexing ctx.masks).

    It is the first-part vertex with the most neighbours in part j, ties by
    index. Exists on every 2K2-free graph; a 2K2 is reported otherwise. The
    first call scans for a 2K2 once and finds and checks the vertex of every
    later part.
    """
    if not 1 <= j < 3:
        raise ValueError(f"no part {j} beyond the first")
    if ctx.complete[j] is None:
        rows = ctx.graph.rows
        witness = find_induced(ctx.graph, "2K2")
        if witness is not None:
            raise ValueError(f"graph contains an induced 2K2 on {witness}")
        for t in (1, 2):
            x = _most_adjacent(rows, ctx.masks[0], ctx.masks[t])
            missing = list(bits(ctx.masks[t] & ~rows[x]))
            require(not missing, f"candidate {x} misses {missing} despite 2K2-freeness")
            ctx.complete[t] = x
    return ctx.complete[j]


def _rename(rec: _Recorder, target: list[int], masks) -> None:
    """Stage: rename the classes of rec's colouring onto the colours of target,
    whose colour c has the vertex mask masks[c].

    Decomposes the class-to-colour permutation into paths and cycles; paths
    are shifted from their free end, each cycle is broken by parking one
    class on a currently-unused colour. At most 2 moves per vertex.
    """
    ell = rec.ell
    source = {mask: c for c, mask in enumerate(rec.masks) if mask}  # class -> its colour
    wanted = {mask: c for c, mask in enumerate(masks) if mask}
    if source.keys() != wanted.keys():
        raise ValueError("colourings induce different partitions")
    if ell < len(source) + 1:
        raise ValueError("no spare colour: need ell above the used class count")
    mark = len(rec.moves)

    succ = {}  # colour of a class now -> its colour under target
    block_at = {}
    for block, b in source.items():
        t = wanted[block]
        if b != t:
            succ[b] = t
            block_at[b] = block

    def shift(colour_from: int, colour_to: int) -> None:
        rec.paint(block_at[colour_from], colour_to)
        block_at[colour_to] = block_at.pop(colour_from)

    # paths: walk back from each free target
    preds = {t: b for b, t in succ.items()}  # the chains are disjoint
    for tail in sorted(t for t in preds if t not in succ):
        chain = []
        c = tail
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
        spare = next(s for s in range(ell) if not rec.masks[s])
        last = cycle[-1]
        shift(last, spare)
        for b, t in zip(reversed(cycle[:-1]), reversed(cycle[1:])):
            shift(b, t)
        shift(spare, c1)
        for c in cycle:
            del succ[c]

    rec.check_stage(mark, 2, target)


def rename_moves(g: Graph, beta: BlockPartition, gamma: BlockPartition, ell: int) -> MoveSequence:
    """From beta to gamma when both induce the same unordered partition.

    Shifts whole classes along the paths and cycles of the class-to-colour
    permutation, at most 2 moves per vertex.
    """
    if beta.k != ell or gamma.k != ell:
        raise ValueError("both colourings must use the full colour budget")
    if not is_proper_colouring(g, beta) or not is_proper_colouring(g, gamma):
        raise ValueError("endpoints must be proper colourings")
    rec = _Recorder(g, beta, ell)
    _rename(rec, gamma.to_colours(), gamma.block_masks())
    return _sealed(g, beta, rec.moves, ell, bound=2, end=gamma)


def _bipartite_canonical(ctx: CanonicalContext, rec: _Recorder) -> list[int]:
    """Stage: monochrome both parts of a bipartite context, one move per vertex.

    The first part goes to the colour of its vertex complete to the second
    part (so nothing over there blocks it), then the second part goes to the
    smallest other colour. Returns the colouring it ends on.
    """
    x = complete_vertex(ctx, 1)
    mark = len(rec.moves)
    c0 = rec.cols[x]
    c1 = next(c for c in range(rec.ell) if c != c0)
    target = [(c0, c1)[t] for t in ctx.target]
    rec.paint(ctx.masks[0], c0)
    rec.paint(ctx.masks[1], c1)
    rec.check_stage(mark, 1, target)
    return target


def bipartite_canonical_moves(
    ctx: CanonicalContext, beta: BlockPartition, ell: int
) -> MoveSequence:
    """Reach a colouring monochromatic on both parts, one move per vertex."""
    _check_start(ctx, beta, ell, 2)
    rec = _Recorder(ctx.graph, beta, ell)
    target = _bipartite_canonical(ctx, rec)
    return _sealed(ctx.graph, beta, rec.moves, ell, bound=1,
                   end=BlockPartition.from_colours(target, ell))


def _single_colour_part(ctx: CanonicalContext, rec: _Recorder, i: int) -> list[int]:
    """Stage: canonicalise a colouring whose part i is monochromatic.

    Part i keeps its colour c_i and never moves; the other two parts end on
    the two smallest remaining colours, each vertex outside part i moving at
    most 4 times. Writing A for the whole colour class of c_i, X and Y for
    the other parts minus A: fold X' = X plus the Y-vertices with no
    neighbour in X (maximal independent in G-A), send X' to the colour of an
    X'-vertex complete to Y-X', send Y-X' to a fourth colour d2, unfold
    X'-and-Y to d2, then shift X and Y onto their target colours and finally
    fold the stray c_i-coloured vertices into their parts. Returns the
    colouring it ends on.
    """
    rows, ell = ctx.graph.rows, rec.ell
    part_i = ctx.masks[i]
    if not part_i:
        raise ValueError(f"part {i} is empty")
    ci_values = [c for c, mask in enumerate(rec.masks) if mask & part_i]
    if len(ci_values) != 1:
        raise ValueError(f"part {i} uses colours {ci_values}, need one")
    c_i = ci_values[0]
    ji, ki = [t for t in range(3) if t != i]
    c_j, c_k = [c for c in range(ell) if c != c_i][:2]
    part_j, part_k = ctx.masks[ji], ctx.masks[ki]

    colour, masks = [0] * 3, [0] * ell
    colour[i], colour[ji], colour[ki] = c_i, c_j, c_k
    masks[c_i], masks[c_j], masks[c_k] = part_i, part_j, part_k
    target = [colour[t] for t in ctx.target]
    mark = len(rec.moves)

    # canonical up to class colours: plain renaming is enough (and cheaper)
    if set(rec.masks) - {0} == set(masks) - {0}:
        _rename(rec, target, masks)
    else:
        a = rec.masks[c_i]
        x, y = part_j & ~a, part_k & ~a
        x_fold = x | sum(1 << v for v in bits(y) if not rows[v] & x)
        y_rest = y & ~x_fold

        if x_fold:
            if y_rest:
                # a fold vertex complete to the rest exists since g is 2K2-free
                star = _most_adjacent(rows, x_fold, y_rest)
                require(rows[star] & y_rest == y_rest,
                        "no fold vertex is complete to the rest despite 2K2-freeness")
            else:
                star = (x_fold & -x_fold).bit_length() - 1
            d1 = rec.cols[star]
            rec.paint(x_fold, d1)
            d2 = next(c for c in range(ell) if c not in (c_i, d1, c_j))
            rec.paint(y_rest, d2)
            rec.paint(x_fold & y, d2)
            rec.paint(x, c_j)
            rec.paint(y, c_k)
        rec.paint(a & part_j, c_j)
        rec.paint(a & part_k, c_k)

    rec.check_stage(mark, 4, target)
    require(not any(part_i >> v & 1 for v, _ in rec.moves[mark:]), f"part {i} moved")
    return target


def _canonical(ctx: CanonicalContext, rec: _Recorder) -> list[int]:
    """Stage: reach the exact target colouring of ctx, at most 6 moves per vertex.

    Decision tree: a part with a vertex dominating everything outside it can
    be monochromed immediately; so can the first part when its two complete
    vertices share a colour. Otherwise stage the two anchor colours through
    every part, which leaves either a part colour that appears nowhere else
    (monochrome it) or, after one orientation swap justified by 2K2-freeness,
    a part free of some colour entirely. Each branch lands in the
    single-colour-part stage and a final renaming onto the target colours,
    colour j on part j, which it returns.
    """
    rows, ell, part_masks = ctx.graph.rows, rec.ell, ctx.masks
    x2 = complete_vertex(ctx, 1)
    x3 = complete_vertex(ctx, 2)
    mark = len(rec.moves)

    def finish(part_index: int) -> list[int]:
        _single_colour_part(ctx, rec, part_index)
        _rename(rec, ctx.target, ctx.masks)
        rec.check_stage(mark, 6, ctx.target)
        return ctx.target

    # a vertex adjacent to everything outside its part: monochrome that part
    for t, part in enumerate(part_masks):
        outside = ((1 << ctx.graph.n) - 1) ^ part
        for x in bits(part):
            if rows[x] & outside == outside:
                rec.paint(part, rec.cols[x])
                return finish(t)

    # a shared complete vertex dominates and was caught above
    require(x2 != x3, "two parts share their complete vertex")
    c1 = rec.cols[x2]
    c2 = rec.cols[x3]
    if c1 == c2:
        # nothing outside the first part holds c1: monochrome the first part
        rec.paint(part_masks[0], c1)
        return finish(0)

    # stage the anchor colours: as many of A_2 to c2, A_3 to c1, A_1 to either
    rec.paint(part_masks[1] & ~rec.near(c2), c2)
    rec.paint(part_masks[2] & ~rec.near(c1), c1)
    for v in bits(part_masks[0]):
        if rec.cols[v] not in (c1, c2):
            if not rows[v] & rec.masks[c1]:
                rec.paint(1 << v, c1)
            elif not rows[v] & rec.masks[c2]:
                rec.paint(1 << v, c2)

    # case 1: a first-part vertex kept a colour that now appears only there
    for x in bits(part_masks[0]):
        if rec.cols[x] not in (c1, c2):
            c = rec.cols[x]
            require(not rec.masks[c] & ~part_masks[0],
                    "staged colour appears outside the first part")
            rec.paint(part_masks[0], c)
            return finish(0)

    others = [c for c in range(ell) if c not in (c1, c2)]

    # case 2(a): some non-anchor colour is absent from a later part
    for t in (1, 2):
        for c in others:
            if not rec.masks[c] & part_masks[t]:
                other = 3 - t
                rec.paint(part_masks[other], c)
                return finish(other)

    # case 2(b): both smallest non-anchor colours appear on both later parts
    def blocked(c: int, cp: int) -> bool:  # a cp-coloured A_2 vertex sees colour c
        return bool(rec.masks[cp] & part_masks[1] & rec.near(c))

    c, cp = others[0], others[1]
    if blocked(c, cp):
        c, cp = cp, c
    require(not blocked(c, cp), "both orientations blocked: induced 2K2 present")
    rec.paint(rec.masks[cp] & part_masks[1], c)
    rec.paint(part_masks[2], cp)
    return finish(2)


def canonical_moves(ctx: CanonicalContext, beta: BlockPartition, ell: int) -> MoveSequence:
    """Reach the exact target colouring of ctx, at most 6 moves per vertex."""
    _check_start(ctx, beta, ell, 3)
    chi, _ = chromatic_number(ctx.graph)
    if chi != 3:
        raise ValueError(f"pipeline covers 3-chromatic graphs, got chi={chi}")
    rec = _Recorder(ctx.graph, beta, ell)
    target = _canonical(ctx, rec)
    return _sealed(ctx.graph, beta, rec.moves, ell, bound=6,
                   end=BlockPartition.from_colours(target, ell))


def path_between(g: Graph, beta: BlockPartition, gamma: BlockPartition, ell: int) -> MoveSequence:
    """A verified walk from beta to gamma, at most 14 moves per vertex.

    Bipartite graphs take the 1+2+1 pipeline; 3-chromatic graphs take the
    canonical stage on both ends with a renaming bridge. The stages run on
    two recorders, one from each end, and the joined walk is replayed once.
    """
    for p in (beta, gamma):
        if p.k != ell or p.ground != g.n or not is_proper_colouring(g, p):
            raise ValueError("endpoints must be proper colourings on ell blocks")
    if beta == gamma:
        return _sealed(g, beta, (), ell, bound=0, end=gamma)
    ctx = _context(g)  # refuses chi above 3
    if ctx.masks[2]:
        parts, canonical, bound = 3, _canonical, 14
    else:  # chi <= 2: the bipartite stage reads only parts 0 and 1
        parts, canonical, bound = 2, _bipartite_canonical, 4
    if ell < parts + 1:
        raise ValueError(f"need at least {parts + 1} colours")
    ahead, behind = _Recorder(g, beta, ell), _Recorder(g, gamma, ell)
    canonical(ctx, ahead)
    canonical(ctx, behind)
    _rename(ahead, behind.cols, behind.masks)
    cols, back = gamma.to_colours(), []  # behind travelled from its end back to gamma
    for v, c in behind.moves:
        back.append((v, cols[v]))
        cols[v] = c
    moves = ahead.moves + back[::-1]
    return _sealed(g, beta, moves, ell, bound=bound, end=gamma)
