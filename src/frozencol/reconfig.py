"""Explicit exploration of the recolouring state space R_k(G).

R_k(G) has one vertex per proper k-colouring (ordered blocks, empty blocks
allowed) and an edge between colourings differing on exactly one vertex.
Everything here runs on one engine, `_Packing.walk`: a single lexicographic
pass in which the i-th state yielded is state i and all of its moves come
as one packed bitmask. It walks every state, or one per orbit under colour
permutations. Edges are never stored: union-find runs in the same pass,
over the states already seen. Codes grow in walk order, so the codes
walked so far are sorted and a bisection over them maps a code back to its
state index.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from heapq import merge

from .graph import CertificateError, Graph, require
from .partitions import BlockPartition, _renamings, is_frozen_colouring

DEFAULT_COLOURING_CAP = 2 * 10**7


class CapExceeded(RuntimeError):
    """A state-space walk crossed its configured budget."""


def _refuse_greedy_overflow(g: Graph, k: int, cap: int) -> None:
    """Raise CapExceeded when a greedy count shows more than cap proper k-colourings.

    In index order, vertex v has at least k - d(v) colours free of its d(v)
    earlier neighbours; when all are positive, their product is a lower
    bound on the proper k-colourings, at least k(k-1)...(k-n+1) when k >= n.
    So a huge k or a long walk is refused before either starts. The product
    stops growing past the cap.
    """
    free = [k - (row & (1 << v) - 1).bit_count() for v, row in enumerate(g.rows)]
    if min(free, default=1) < 1:
        return
    count = 1
    for x in free:
        count *= x
        if count > cap:
            raise CapExceeded(f"more than {cap} proper colourings")


class _Packing:
    """The proper k-colourings of g as lex-ordered states with packed moves.

    A state's code reads its colour vector in base k, vertex 0 most
    significant, so codes grow in lex order. Packed masks give vertex u the
    k bits from (k+1)*u, under a zero guard bit: S holds the colours on u's
    neighbours, C the one-hot colour of u. The colours open to v are the
    zero bits of its field of S; a full field carries into its guard bit
    when ONES is added, which prunes the branch. At a leaf, moves =
    FULL & ~(S | C) sets bit (k+1)*u + c iff u can be recoloured c.
    Recolouring u from a to c adds (c - a) * weight[u] to the code.
    """

    def __init__(self, g: Graph, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        n, width = g.n, k + 1
        self.n, self.k, self.width = n, k, width
        self.ones = sum(1 << width * v for v in range(n))
        self.nbr_bits = [sum(1 << width * u for u in g.neighbour_list(v)) for v in range(n)]
        self.weight = [k ** (n - 1 - v) for v in range(n)]
        # first[c]: the vertex where colour c first appears, in the state an
        # orbit walk yielded last; overwritten between yields, like cols
        self.first = [0] * min(n, k)

    def walk(self, cap: int = DEFAULT_COLOURING_CAP, orbits: bool = False):
        """Yield (code, cols, moves, lower) per proper colouring, in lex order.

        cols is one list, overwritten between yields; lower keeps the moves
        to a smaller colour, which lead to states yielded earlier. With
        orbits, only the restricted-growth colourings come, those whose
        colours first appear in the order 0, 1, 2, ...: a vertex may take
        at most one colour above those before it. Each is the lex-least
        member of its orbit under colour permutations, and each comes with a
        fifth item, `used`, the number of colours it uses. Colour c opens at
        depth v exactly when c == used there, so the walk also keeps
        `self.first`, whose first `used` entries are the first vertices of
        colours 0..used-1.
        """
        n, width, ones = self.n, self.width, self.ones
        if n == 0:
            yield (0, [], 0, 0, 0) if orbits else (0, [], 0, 0)
            return
        full = (1 << self.k) - 1
        nbr_bits, weight, first = self.nbr_bits, self.weight, self.first
        everything, guards = full * ones, ones << self.k
        # the colours open to a vertex when those before it use 0..u-1, u <= n;
        # without orbits every colour is open and used stays 0
        grow = [(2 << u) - 1 & full for u in range(min(n, self.k) + 1)] if orbits else [full]
        last = n - 1
        shift_last, bits_last = width * last, nbr_bits[last]
        cols = [0] * n
        # S, C, the code of the colours fixed and, with orbits, the colours used, above each depth
        seen, onehot, prefix, used = [0] * n, [0] * n, [0] * n, [0] * n
        avail = [grow[0]] + [0] * last
        count = 0
        v = 0
        while v >= 0:
            if v == last:
                s0, c0, x0, u0 = seen[v], onehot[v], prefix[v], used[v]
                a = ~(s0 >> shift_last) & grow[u0]
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
                    if orbits:
                        if c == u0:
                            first[c] = last
                        yield x0 + c, cols, moves, moves & (col - ones), u0 + (c == u0)
                    else:
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
            u = used[v]
            if c < u:
                used[v + 1] = u
            elif orbits:  # c == u: colour c opens at v
                used[v + 1] = c + 1
                first[c] = v
            v += 1
            avail[v] = ~(s >> width * v) & grow[used[v]]

    def code_array(self):
        """An empty store for state codes, appended in walk order.

        array('q') (8 B a code) while every code, below k**n, fits in 63
        bits, else a list; bisect and append work the same on both.
        """
        return array("q") if self.k**self.n <= 1 << 63 else []

    def targets(self, code: int, cols, mask: int) -> list[int]:
        """Codes of the states the moves in mask lead to, in bit order."""
        width, weight = self.width, self.weight
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            u, c = divmod(b.bit_length() - 1, width)
            out.append(code + (c - cols[u]) * weight[u])
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


def _compose(p: tuple, q: tuple) -> tuple:
    """The permutation p∘q (q first), each a tuple of images."""
    return tuple(p[x] for x in q)


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _group_order(gens, k: int) -> int:
    """The order of the group that the permutations gens generate on range(k).

    Deterministic Schreier–Sims (Seress, *Permutation Group Algorithms*,
    CUP 2003): a base b_0, b_1, ... and strong generators, level i keeping
    the orbit of b_i, with a transversal, under the strong generators that
    fix b_0..b_{i-1}. Levels are completed from the deepest up: every
    Schreier generator of a level must sift to the identity through the
    levels below it. One that does not becomes a strong generator, and the
    levels it joins are checked again. The order is the product of the
    orbit lengths.
    """
    identity = tuple(range(k))
    base, strong, levels = [], [], []  # levels[i]: (generators, transversal)

    def add(h, j):
        strong.append(h)
        if j == len(base):
            base.append(next(x for x in range(k) if h[x] != x))
        levels.clear()
        for i, b in enumerate(base):
            gens_i = [s for s in strong if all(s[x] == x for x in base[:i])]
            tr = {b: identity}
            queue = [b]
            for p in queue:
                for s in gens_i:
                    q = s[p]
                    if q not in tr:
                        tr[q] = _compose(s, tr[p])
                        queue.append(q)
            levels.append((gens_i, tr))

    def sift(h, i):
        """h divided by transversal elements of levels i, i+1, ..., and where it stopped."""
        for j in range(i, len(base)):
            tr = levels[j][1]
            x = h[base[j]]
            if x not in tr:
                return h, j
            h = _compose(_inverse(tr[x]), h)
        return h, len(base)

    for h in gens:
        h, j = sift(h, 0)
        if h != identity:
            add(h, j)
    i = len(base) - 1
    while i >= 0:
        gens_i, tr = levels[i]
        schreier = (sift(_compose(_inverse(tr[s[p]]), _compose(s, u)), i + 1)
                    for p, u in tr.items() for s in gens_i)
        stuck = next((r for r in schreier if r[0] != identity), None)
        if stuck is None:
            i -= 1
        else:  # levels i+1..j change; those below j stay complete
            add(*stuck)
            i = stuck[1]
    order = 1
    for _, tr in levels:
        order *= len(tr)
    return order


def reconfiguration_components(
    g: Graph, k: int, colouring_cap: int = DEFAULT_COLOURING_CAP
) -> ReconfigReport:
    """Component structure of R_k(g), walking one colouring per colour orbit.

    Permuting the k colours maps R_k onto itself. So the pass walks only the
    restricted-growth colourings (`_Packing.walk` with orbits), in lex
    order. Each, X, is the lex-least member of its orbit and stands for the
    k!/(k-m)! states sigma(X), where X uses m colours. A union-find over
    these representatives joins X to the representative Y* of a chosen set
    of its neighbours Y = sigma(Y*). The components of R_k are then lifted
    from the sets. Raises CapExceeded when the running sum of orbit sizes
    crosses the state cap, R_k's only budget, or, before the walk, when a
    greedy lower bound on the proper colourings does. The cap bounds the
    pass too: a representative using m colours takes at most Delta + m
    edges (the last lower move, at most Delta moves that clash with it, at
    most one upper move per first vertex), costs O(n*k) work besides, and
    13 B of index. So neither a count of R_k's edges nor of the unions
    performed adds a bound.

    Renaming. Let u be the first vertex of colour a in X and u' the next
    vertex of colour a (n when there is none), and let t be the largest
    colour that first appears before u'. A move at a vertex that is not a
    first vertex keeps every first appearance, so its target is
    restricted-growth. A move (u, c) moves a's first appearance to u' and,
    when c > a, c's to u. Its target is renamed by pi: a -> t, c -> a when
    c > a, and each colour from max(a, c) + 1 to t one down. The renamed
    code follows from the class weights, the sums of the place values of
    each colour's vertices.

    Edges. By induction over the walk, the sets hold the components of R_k
    restricted to the orbits walked so far, once lifted. For that, each X
    must be joined to every neighbour in an orbit walked at or before X's;
    the images of those edges under the colour permutations then join every
    state of X's orbit. The pass takes some of these edges and shows the
    others add nothing: each other neighbour is already joined, through
    walked orbits, to a taken one. All states below X lie in walked orbits.

    - Lower moves (to a smaller colour) reach states below X. Let Y and Y'
      be the targets of lower moves (u, c) and (u', c'). If u = u', they
      are adjacent. Otherwise, unless the moves clash (u ~ u' and c = c'),
      applying both to X gives a proper colouring Z below both and adjacent
      to each. Take the last lower move b = (u0, c0); it recolours the
      latest vertex, so its target is the nearest in the walk. A move of a
      colour other than c0 clashes neither with b nor with any move that
      clashes with b. So if one exists, b's target joins every lower
      neighbour. If every lower move has colour c0, the moves that clash
      with b (c0 on a neighbour of u0) are taken too, and each other move
      joins b directly.
    - An upper move at a vertex that is not a first vertex keeps the colours
      before it and raises its own, so its target's orbit comes after X's.
      That edge is taken from the later orbit.
    - An upper move (u, c) at the first vertex u of a reaches an earlier
      orbit iff a < c <= t. Then its renamed target agrees with X before
      c's first vertex f_c and has a there, below c. To an unused colour, or to
      one first appearing after u', the renamed target lies above X. It is
      X itself when a fills one vertex and c is unused, and that loop's
      sigma, the transposition (a c), is in the stabiliser the lemma below
      already gives.
    - Of the moves at u with a < c <= t, one is taken, of the least c: their
      targets are adjacent to each other, and to the target of a lower move
      at u, so none is taken when u has one. None is taken either when some
      such c has f_c < u0 and (u, c) does not clash with b. Applying both
      moves to X gives Z, adjacent to both targets. Renamed, Z agrees with
      (u, c)'s renamed target up to f_c, so Z's orbit also comes before X's.

    Lemma: a component K of R_k that holds a colouring X with an unused
    colour e is mapped onto itself by every colour permutation.
    Recolouring the class of a colour a to e one vertex at a time is a walk
    in R_k, so (a e)X lies in K, and (a e) fixes K. These transpositions,
    with those of two unused colours (which fix X), generate S_k. So a set
    that holds a representative using fewer than k colours is full. It
    lifts to one component, of all its orbits' states, and does no
    permutation work.

    Lifting the other sets. In a set whose representatives all use k
    colours, no permutation fixes a state. So each state of its orbits has
    exactly one name sigma(X). Each node keeps the permutation to its
    parent; composing them to the root gives phi_X, with phi_X(X) in K, the
    component of the root's own colouring. An edge from X to sigma(Y) that
    joins two sets hangs one root below the other, with the permutation
    that makes phi_X sigma the position of Y. An edge within a set closes a
    cycle, and phi_X sigma phi_Y^-1 maps K onto itself. These cycle
    elements, each conjugated by the position of the root it was found
    under, generate the stabiliser Stab(K). A set whose orbit sizes sum to
    S lifts to r = k!/|Stab(K)| components, the images of K, each of S/r
    states. `_group_order` gives |Stab(K)| by Schreier–Sims.

    Frozen states. A frozen colouring uses all k colours and has no moves.
    So each frozen representative X is a set of its own with a trivial
    stabiliser: k! singleton components, the states s(X) for the
    permutations s of the colours. X is built and re-checked once; its
    renamings are not checked again, since frozen-ness is invariant under
    renaming. s maps the blocks of X one to one onto those of s(X), the same
    vertex sets in another order. Properness, no empty block, and a
    neighbour of every vertex in every block but its own depend only on
    those vertex sets, so s(X) is frozen iff X is. The renamings also come
    in walk order without a sort. X is restricted-growth and uses all k
    colours, so colour c first appears at a vertex f_c, with f_0 < f_1 <
    ... < f_{k-1}, and only colours below c come before f_c. Let s < t
    lexicographically, first differing at c. Then s(X) and t(X) agree
    before f_c, and at f_c they read s[c] < t[c]. So s(X) < t(X), and
    `permutations(range(k))` yields the copies in lex order. Orbits are
    disjoint, so merging the sorted runs of several representatives gives
    every frozen state in the order of a walk over every state.

    A target's index comes from `codes`, the codes of the representatives
    in walk order. Codes grow along the walk, so `codes` is sorted and
    bisect_left finds a target of code t; a missing code raises
    CertificateError. Codes are distinct integers, so a representative
    whose code is d below X's lies at most d places before X, which bounds
    the search. `codes` is an array('q') of 8 B a representative, or a
    plain list when k**n passes 2**63 and a code may not fit in 63 bits.
    """
    _refuse_greedy_overflow(g, k, colouring_cap)
    # a representative uses at most n colours, and the pass reads moves only to
    # colours it uses, or whether it has a move at all: colour n stands for the rest
    space = _Packing(g, min(k, g.n + 1))
    n, ones, nbr_bits, width = g.n, space.ones, space.nbr_bits, space.width
    weight, first = space.weight, space.first  # first: each used colour's first vertex
    palette = list(range(min(n, k)))
    # read only in sets whose representatives use all k colours, so k <= n there
    identity = tuple(palette)
    orbit = [1]  # orbit[m]: the states a representative using m colours stands for
    for m in range(min(n, k)):
        orbit.append(orbit[-1] * (k - m))
    codes = space.code_array()  # codes[i] is representative i's code
    parent = array("i")  # parent[i] <= i, so each root is its tree's minimum
    used_of = array("B" if len(orbit) <= 256 else "q")  # colours representative i uses
    labelled = set()  # the roots of sets whose representatives all use k colours
    # in those sets, node -> the permutation from its frame to its parent's;
    # entries left in a set that turns full are never read again
    label = {}
    voltages = {}  # root -> stabiliser elements found in its frame
    frozen_reps = []
    states = 0

    def find(j: int) -> int:
        """j's root; j's path is compressed unless its set is labelled."""
        r = j
        while parent[r] != r:
            r = parent[r]
        if r not in labelled:
            while parent[j] != r:
                parent[j], j = r, parent[j]
        return r

    def locate(j: int) -> tuple[int, tuple]:
        """(root, phi_j) for j in a labelled set, compressing j's path."""
        path = []
        while parent[j] != j:
            path.append(j)
            j = parent[j]
        phi = identity
        for z in reversed(path):
            phi = _compose(phi, label[z])
            parent[z], label[z] = j, phi
        return j, phi

    for i, (code, cols, moves, lower, used) in enumerate(space.walk(colouring_cap, orbits=True)):
        states += orbit[used]
        if states > colouring_cap:
            raise CapExceeded(f"more than {colouring_cap} proper colourings")
        codes.append(code)
        parent.append(i)
        used_of.append(used)
        surjective = used == k
        if surjective and not moves:
            frozen_reps.append(BlockPartition.from_colours(cols, k))
        picks = []
        u0 = c0 = -1  # the last lower move, b = (u0, c0), if there is one
        if lower:
            # b, then the moves that clash with it
            p = lower.bit_length() - 1
            picks.append(p)
            u0, c0 = divmod(p, width)
            if not lower & ~(ones << c0):  # every lower move has colour c0
                clash = lower & (nbr_bits[u0] << c0)
                while clash:
                    b = clash & -clash
                    clash ^= b
                    picks.append(b.bit_length() - 1)
        after = cols + palette  # index(a, first[a] + 1) is a's second vertex, or n + a
        for a in range(used - 1):
            # upper moves at a's first vertex u, to the colours c with a < c <= top
            u = first[a]
            field = moves >> width * u
            if field & (1 << a) - 1:  # a lower move at u joins them all
                continue
            up = field >> a + 1 & (1 << used - a - 1) - 1
            if up:
                top = bisect_left(first, after.index(a, u + 1), a + 1, used) - 1
                up &= (1 << top - a) - 1
            if not up:
                continue
            c = a + (up & -up).bit_length()
            joined = False  # by b, through a colour whose first vertex comes before u0
            while up and not joined:
                bit = up & -up
                up ^= bit
                x = a + bit.bit_length()
                if first[x] >= u0:
                    break
                joined = x != c0 or not nbr_bits[u] >> width * u0 & 1
            if not joined:
                picks.append(width * u + c)
        targets = []
        mass = None  # each colour's class weight, the sum of its vertices' place values
        for p in picks:
            u, c = divmod(p, width)
            a = cols[u]
            w = weight[u]
            y = code + (c - a) * w
            renaming = None
            if first[a] == u:
                if mass is None:
                    mass = [0] * used
                    for v in range(n):
                        mass[cols[v]] += weight[v]
                top = bisect_left(first, after.index(a, u + 1), a + 1, used) - 1
                y += (top - a) * (mass[a] - w) - sum(mass[max(a, c) + 1 : top + 1])
                if c > a:
                    y += (a - c) * (mass[c] + w)
                renaming = a, c, top
            d = code - y
            j = bisect_left(codes, y, i - d if d < i else 0, i)
            if codes[j] != y:  # codes[i] is X's own code, never y
                raise CertificateError(f"no walked state has code {y}")
            targets.append((j, renaming))
        roots = [find(j) for j, _ in targets]
        if not surjective or not labelled.issuperset(roots):
            if roots:
                low = min(roots)
                parent[i] = low
                for r in roots:
                    parent[r] = low
                labelled.difference_update(roots)
            continue
        labelled.add(i)
        for j, renaming in targets:
            sigma = identity
            if renaming:  # the target is pi^-1 of the representative
                a, c, top = renaming
                pi = list(identity)
                for x in range(max(a, c) + 1, top + 1):
                    pi[x] = x - 1
                pi[a] = top
                if c > a:
                    pi[c] = a
                sigma = _inverse(pi)
            ri, phi_i = locate(i)
            rj, phi_j = locate(j)
            h = _compose(_compose(phi_i, sigma), _inverse(phi_j))
            if ri == rj:
                if h != identity:
                    voltages.setdefault(ri, set()).add(h)
            elif ri < rj:
                parent[rj], label[rj] = ri, h
                labelled.discard(rj)
            else:
                parent[ri], label[ri] = rj, _inverse(h)
                labelled.discard(ri)

    gens = {}  # each labelled root's stabiliser generators, in its frame
    for z, found in voltages.items():
        if find(z) in labelled:
            r, phi = locate(z)
            back = _inverse(phi)
            gens.setdefault(r, []).extend(_compose(_compose(phi, h), back) for h in found)
    for i in range(len(parent)):  # parents point down: one pass finds every root
        parent[i] = parent[parent[i]]
    totals = Counter()
    for r, m in zip(parent, used_of):
        totals[r] += orbit[m]
    sizes = []
    for r, total in totals.items():
        copies = orbit[k] // _group_order(gens.get(r, ()), k) if r in labelled else 1
        sizes += [total // copies] * copies
    component_sizes = tuple(sorted(sizes, reverse=True))
    require(all(is_frozen_colouring(g, p) for p in frozen_reps),
            "isolated colouring is not frozen")
    require(sum(component_sizes) == states, "component sizes miss a state")
    runs = [_renamings(p) for p in frozen_reps]
    frozen = tuple(merge(*runs, key=BlockPartition.to_colours))
    return ReconfigReport(
        k=k,
        colouring_count=states,
        component_count=len(component_sizes),
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
    _refuse_greedy_overflow(g, k, cap)
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
