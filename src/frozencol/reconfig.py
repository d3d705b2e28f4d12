"""Explicit exploration of the recolouring state space R_k(G).

R_k(G) has one vertex per proper k-colouring (ordered blocks, empty blocks
allowed) and an edge between colourings differing on exactly one vertex.
Everything here runs on one engine, `_Packing.walk`: a single lexicographic
pass in which the i-th state yielded is state i and all of its moves come
as one packed bitmask. Moves to a lower colour reach states already seen,
so union-find runs in the same pass and edges are never stored. Codes
grow in walk order, so the codes walked so far are sorted and a bisection
over them maps a code back to its state index.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .graph import CertificateError, Graph, require
from .partitions import BlockPartition, is_frozen_colouring

DEFAULT_COLOURING_CAP = 2 * 10**7
DEFAULT_UNION_CAP = 10**8


class CapExceeded(RuntimeError):
    """A state-space walk crossed its configured budget."""


class _Packing:
    """The proper k-colourings of g as lex-ordered states with packed moves.

    A state's code reads its colour vector in base k, vertex 0 most
    significant, so codes grow in lex order. Packed masks give vertex u the
    k bits from (k+1)*u, under a zero guard bit: S holds the colours on u's
    neighbours, C the one-hot colour of u. The colours open to v are the
    zero bits of its field of S; a full field carries into its guard bit
    when ONES is added, which prunes the branch. At a leaf, moves =
    FULL & ~(S | C) sets bit (k+1)*u + c iff u can be recoloured c.
    """

    def __init__(self, g: Graph, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        n, width = g.n, k + 1
        self.n, self.k, self.width = n, k, width
        self.ones = sum(1 << width * v for v in range(n))
        self.nbr_bits = [sum(1 << width * u for u in g.neighbour_list(v)) for v in range(n)]
        self.weight = [k ** (n - 1 - v) for v in range(n)]
        # the place value in a code of the colour at bit p of a move mask
        self.place = [p % width * self.weight[p // width] for p in range(n * width)]

    def walk(self, cap: int = DEFAULT_COLOURING_CAP):
        """Yield (code, cols, moves, lower) per proper colouring, in lex order.

        cols is one list, overwritten between yields; lower keeps the moves
        to a smaller colour, which lead to states yielded earlier.
        """
        n, width, full, ones = self.n, self.width, (1 << self.k) - 1, self.ones
        if n == 0:
            yield 0, [], 0, 0
            return
        nbr_bits, weight = self.nbr_bits, self.weight
        everything, guards = full * ones, ones << self.k
        last = n - 1
        shift_last, bits_last = width * last, nbr_bits[last]
        cols = [0] * n
        # S, C and the code of the colours fixed above each depth
        seen, onehot, prefix = [0] * n, [0] * n, [0] * n
        avail = [full] + [0] * last
        count = 0
        v = 0
        while v >= 0:
            if v == last:
                s0, c0, x0 = seen[v], onehot[v], prefix[v]
                a = ~(s0 >> shift_last) & full
                while a:
                    b = a & -a
                    a ^= b
                    c = b.bit_length() - 1
                    count += 1
                    if count > cap:
                        raise CapExceeded(f"more than {cap} proper colourings")
                    cols[last] = c
                    col = c0 | b << shift_last
                    moves = everything & ~(s0 | bits_last << c | col)
                    yield x0 + c, cols, moves, moves & (col - ones)
                v -= 1
                continue
            a = avail[v]
            if not a:
                v -= 1
                continue
            b = a & -a
            avail[v] = a ^ b
            c = b.bit_length() - 1
            s = seen[v] | nbr_bits[v] << c
            if (s + ones) & guards:  # a vertex has every colour around it
                continue
            cols[v] = c
            seen[v + 1] = s
            onehot[v + 1] = onehot[v] | b << width * v
            prefix[v + 1] = prefix[v] + c * weight[v]
            v += 1
            avail[v] = ~(s >> width * v) & full

    def code_array(self):
        """An empty store for state codes, appended in walk order.

        array('q') (8 B a code) while every code, below k**n, fits in 63
        bits, else a list; bisect and append work the same on both.
        """
        return array("q") if self.k**self.n <= 1 << 63 else []

    def targets(self, code: int, cols, mask: int) -> list[int]:
        """Codes of the states the moves in mask lead to, in bit order."""
        width, place = self.width, self.place
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            p = b.bit_length() - 1
            u = p // width
            out.append(code + place[p] - place[u * width + cols[u]])
        return out


def proper_colour_vectors(g: Graph, k: int, cap: int = DEFAULT_COLOURING_CAP):
    """Yield every proper k-colour vector of g in lexicographic order."""
    for _, cols, _, _ in _Packing(g, k).walk(cap):
        yield tuple(cols)


@dataclass(frozen=True)
class ReconfigReport:
    """Shape of R_k(g): state count, components, isolated states."""

    k: int
    colouring_count: int
    component_count: int
    component_sizes: tuple
    frozen_colourings: tuple

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "colouring_count": self.colouring_count,
            "component_count": self.component_count,
            "component_sizes": list(self.component_sizes),
            "frozen_colourings": [p.to_json() for p in self.frozen_colourings],
        }


def reconfiguration_components(
    g: Graph, k: int, colouring_cap: int = DEFAULT_COLOURING_CAP
) -> ReconfigReport:
    """Component structure of R_k(g) by union-find in one lex-ordered pass.

    Each state X is unioned with a few of its lower neighbours (the states
    its moves to a smaller colour reach), enough to join it to all of them.
    Every R_k edge is still counted once, from its later end, so
    DEFAULT_UNION_CAP bounds the number of edges. Raises CapExceeded when a
    budget is crossed.

    Why a few suffice: by induction on the walk, when X comes up, states
    already walked are in one set iff R_k joins them through walked states.
    Let Y and Y' be the targets of lower moves (u, c) and (u', c') of X.
    If u = u', Y and Y' differ at u alone, so they are adjacent. Otherwise,
    unless the moves clash (u ~ u' and c = c'), applying both to X gives a
    proper colouring Z, smaller than Y and Y' and adjacent to each. Either
    way the joining edges are lower edges of walked states, so Y and Y' are
    already in one set. Take any lower move b = (u0, c0). A move of a
    colour other than c0 clashes neither with b nor with any move that
    clashes with b, so if one exists, every lower neighbour is already in
    the set of b's target, and one union suffices. If every lower move has
    colour c0, X is also unioned with the targets of the moves that clash
    with b (at c0 on a neighbour of u0); each other move joins b directly.
    The pass takes the last lower move as b: it recolours the latest
    vertex, so its target is the nearest in the walk.

    A target's index comes from `codes`, the codes of the walked states in
    walk order. Codes grow along the walk, so `codes` is sorted and
    bisect_left finds a target of code t; a missing code raises
    CertificateError. Codes are distinct integers, so a state whose code is
    d below X's lies at most d places before X, which bounds the search.
    `codes` is an array('q') of 8 B a state, or a plain list when k**n
    passes 2**63 and a code may not fit in 63 bits.
    """
    space = _Packing(g, k)
    union_cap = DEFAULT_UNION_CAP
    ones, nbr_bits, width, place = space.ones, space.nbr_bits, space.width, space.place
    codes = space.code_array()  # codes[i] is state i's code
    parent = array("i")  # parent[i] <= i, so each root is its tree's minimum
    unions = 0
    frozen_vecs = []
    for i, (code, cols, moves, lower) in enumerate(space.walk(colouring_cap)):
        unions += lower.bit_count()
        if unions > union_cap:
            raise CapExceeded(f"more than {union_cap} union operations")
        codes.append(code)
        parent.append(i)
        if lower:
            # b = (u0, c0), the last lower move, then the moves that clash with it
            p = lower.bit_length() - 1
            c0 = p % width
            clash = 0
            if not lower & ~(ones << c0):  # every lower move has colour c0
                clash = lower & (nbr_bits[p // width] << c0)
            root = i
            while True:  # move bit p recolours vertex u and lowers the code by d
                u = p // width
                d = place[u * width + cols[u]] - place[p]
                t = code - d
                j = bisect_left(codes, t, i - d if d < i else 0, i)
                if codes[j] != t:  # codes[i] is X's own code, never t
                    raise CertificateError(f"no walked state has code {t}")
                while True:  # find with path halving
                    up = parent[j]
                    if up == j:
                        break
                    top = parent[up]
                    if top == up:
                        j = up
                        break
                    parent[j] = top
                    j = top
                if j < root:
                    parent[root] = j
                    root = j
                elif j > root:
                    parent[j] = root
                if not clash:
                    break
                b = clash & -clash
                clash ^= b
                p = b.bit_length() - 1
        if not moves and len(set(cols)) == k:
            frozen_vecs.append(tuple(cols))

    for i in range(len(parent)):  # parents point down: one pass finds every root
        parent[i] = parent[parent[i]]
    sizes = Counter(parent)
    component_sizes = tuple(sorted(sizes.values(), reverse=True))
    frozen = tuple(BlockPartition.from_colours(v_, k) for v_ in frozen_vecs)
    require(all(is_frozen_colouring(g, p) for p in frozen), "isolated colouring is not frozen")
    require(sum(component_sizes) == len(parent), "component sizes miss a state")
    return ReconfigReport(
        k=k,
        colouring_count=len(parent),
        component_count=len(sizes),
        component_sizes=component_sizes,
        frozen_colourings=frozen,
    )


def frozen_k_bound(g: Graph) -> int:
    """The largest k for which g could have a frozen k-colouring.

    min(n, delta+1, |U| + (n-|U|)//2), where U holds the universal vertices
    (adjacent to every other vertex). Each class of a frozen k-colouring is
    an independent dominating set, so a frozen vertex sees the other k-1
    classes (k <= delta+1) and a one-vertex class is a universal vertex.
    A universal vertex has no partner in its independent class, so the
    |U| singletons leave n-|U| vertices in classes of two or more.
    """
    n = g.n
    if n == 0:
        return 0
    degrees = [r.bit_count() for r in g.rows]
    universal = degrees.count(n - 1)
    return min(n, min(degrees) + 1, universal + (n - universal) // 2)


def find_frozen(g: Graph, k: int) -> BlockPartition | None:
    """The lex-first restricted-growth frozen k-colouring of g, or None.

    A proper k-colouring is frozen iff every vertex sees the other k-1
    colours, that is iff every colour class is an independent dominating
    set (a fall colouring). Backtracking colours vertices in index order,
    colours in first-appearance order, so the first leaf is the witness:
    the lexicographically first frozen colour vector whose colours appear
    in order 0, 1, 2, ... A k above `frozen_k_bound(g)` returns None at
    once. Every prune is sound, so pruning never changes the witness:

    - properness: a vertex takes no colour of a coloured neighbour;
    - growth: the vertices left must still open every unused colour;
    - full neighbourhood: an uncoloured vertex that already sees all k
      colours has none left;
    - count: a vertex needs as many uncoloured neighbours as colours it
      still misses;
    - dominance: each used class, with the uncoloured vertices that have
      no neighbour in it, must dominate V, and while a colour is unopened
      the uncoloured vertices must dominate V.

    After a move v -> c only the closed neighbourhoods that lost a
    dominator are tested: those in N[v] for the classes other than c (v
    left them), those within distance two of v for c (its uncoloured
    neighbours left it). Seen colours and counts are packed one field per
    vertex, as in `_Packing.walk`, and each depth keeps a snapshot.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = g.n
    if k == 0:
        return BlockPartition([]) if n == 0 else None
    if k > frozen_k_bound(g):
        return None
    rows = g.rows
    degrees = [r.bit_count() for r in rows]
    full, everyone = (1 << k) - 1, (1 << n) - 1
    closed = [r | 1 << v for v, r in enumerate(rows)]
    # vertex u owns `width` bits from width*u: its seen colours (bits 0..k-1,
    # guard bit k) in one int, |seen| + uncoloured neighbours in another,
    # whose top field bit is set by adding `lack` iff that sum is >= k-1
    width = max(k + 1, (max(degrees) + 1).bit_length() + 1)
    ones = sum(1 << width * v for v in range(n))
    guards, tops = ones << k, ones << width - 1
    lack = ones * ((1 << width - 1) - (k - 1))
    later = [everyone >> v + 1 << v + 1 for v in range(n)]
    # uncovered[v]: the vertices after v do not dominate V, so every colour
    # must be open once v is coloured
    uncovered, cover = [False] * n, 0
    for v in range(n - 1, -1, -1):
        uncovered[v] = cover != everyone
        cover |= closed[v]
    # D dominates every x of a set X iff ((D*spread & adj) + fill) & guard ==
    # guard: D*spread holds a copy of D in each (n+1)-bit row, adj masks row
    # x to N[x] for x in X, and fill carries into the guard bit of a nonzero
    # row. X*stride & spread puts bit x of X alone in row x, without carries.
    stride = sum(1 << n * j for j in range(n))
    spread = sum(1 << (n + 1) * x for x in range(n))
    adj_all = sum(c << (n + 1) * x for x, c in enumerate(closed))

    def probe(xs: int) -> tuple[int, int, int]:
        low = xs * stride & spread
        fill = (low << n) - low
        return adj_all & fill, fill, low << n

    # per-vertex tables, built when the search first reaches the vertex:
    # v's neighbours packed, and the probes of N[v] and of its 2-ball
    nbr_bits: list[int] = []
    near: list[tuple[int, int, int]] = []
    ball: list[tuple[int, int, int]] = []

    cls = [0] * k  # the vertices coloured c
    hit = [0] * k  # the vertices with a neighbour coloured c
    cols, saved, avail = [0] * n, [0] * n, [0] * n
    seen, count, used = [0] * n, [0] * n, [0] * n  # state before each depth
    count[0] = sum(d << width * u for u, d in enumerate(degrees))
    v = 0
    while True:
        if v == len(nbr_bits):
            packed, two, r = 0, closed[v], rows[v]
            while r:
                b = r & -r
                r ^= b
                x = b.bit_length() - 1
                packed |= 1 << width * x
                two |= closed[x]
            nbr_bits.append(packed)
            near.append(probe(closed[v]))
            ball.append(probe(two))
        # the colours v may take, from what depends on v alone
        s, u, rest = seen[v], used[v], later[v]
        late = n - 1 - v
        cand = 0
        if k - u <= late and (u == k or not uncovered[v]):
            cand = (1 << u) - 1
        if u < k and k - u - 1 <= late and (u + 1 == k or not uncovered[v]):
            cand |= 1 << u
        free = ~(s >> width * v) & full
        cand &= free
        # v leaves every open class it could join: all but one must survive
        opened = free & ((1 << u) - 1)
        adj, fill, guard = near[v]
        while opened and cand:
            b = opened & -opened
            opened ^= b
            c = b.bit_length() - 1
            d = cls[c] | rest & ~hit[c]
            if ((d * spread & adj) + fill) & guard != guard:
                cand &= b
        avail[v] = cand

        while True:
            a = avail[v]
            if not a:
                if v == 0:
                    return None
                v -= 1
                c = cols[v]
                cls[c] ^= 1 << v
                hit[c] = saved[v]
                continue
            b = a & -a
            avail[v] = a ^ b
            c = b.bit_length() - 1
            s, rest, nbrs = seen[v], later[v], rows[v]
            nb = nbr_bits[v] << c
            s2 = s | nb
            if (s2 + ones) & guards:  # an uncoloured vertex sees every colour
                continue
            q = count[v] - ((nb & s) >> c)
            if (q + lack) & tops != tops:  # a vertex cannot see k-1 colours
                continue
            h = hit[c]
            if nbrs & rest & ~h:  # uncoloured neighbours leave class c's dominators
                d = cls[c] | 1 << v | rest & ~(h | nbrs)
                adj, fill, guard = ball[v]
                if ((d * spread & adj) + fill) & guard != guard:
                    continue
            cols[v] = c
            cls[c] |= 1 << v
            saved[v] = h
            hit[c] = h | nbrs
            if v == n - 1:
                part = BlockPartition.from_colours(cols, k)
                require(is_frozen_colouring(g, part), "search leaf is not frozen")
                return part
            v += 1
            seen[v], count[v] = s2, q
            used[v] = used[v - 1] + (c == used[v - 1])
            break


def reconfiguration_dot(g: Graph, k: int, cap: int = 10**4) -> str:
    """Render R_k(g) in DOT, nodes labelled by their colour vectors."""
    space = _Packing(g, k)
    codes = space.code_array()
    lines = ["graph reconfig {"]
    upper = []
    for code, cols, moves, lower in space.walk(cap):
        label = " ".join(map(str, cols)) if cols else "()"
        lines.append(f'  s{len(codes)} [label="{label}"];')
        codes.append(code)
        upper.append(space.targets(code, cols, moves ^ lower))
    n = len(codes)
    for i, targets in enumerate(upper):
        for t in targets:
            j = bisect_left(codes, t, i + 1)
            if j == n or codes[j] != t:
                raise CertificateError(f"no walked state has code {t}")
            lines.append(f"  s{i} -- s{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
