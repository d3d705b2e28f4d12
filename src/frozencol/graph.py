"""Immutable simple graphs on dense integer vertices with bitmask adjacency.

Vertices are 0..n-1; each adjacency row is a Python int used as a bit row,
which handles any order (ints grow word by word). Optional per-vertex string
labels are metadata only: equality and all algorithms ignore them.

All operations are pure and deterministic; ties break on the lowest vertex
index first.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

# Closed set of induced patterns the detectors know about.
PATTERNS = ("C4", "2K2", "P4", "P5", "K3", "DIAMOND")


class CertificateError(AssertionError):
    """A certificate, witness or bound failed its re-check.

    Raised by `require`, which, unlike `assert`, also runs under `python -O`.
    """


def require(ok: object, msg: str) -> None:
    """Raise CertificateError(msg) unless ok holds."""
    if not ok:
        raise CertificateError(msg)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A finite simple undirected graph.

    Immutable after construction. `rows[v]` is the neighbour bitmask of v.
    """

    __slots__ = ("n", "rows", "labels")

    def __init__(self, n: int, rows: Sequence[int], labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row of vertex {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("labels must be unique")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, n: int, rows: Sequence[int], labels: tuple[str, ...] | None) -> Graph:
        """A graph from rows known to be valid, skipping `__init__`'s checks.

        Only for rows symmetric and loop-free by construction, with labels
        taken from a valid graph: `decode_graph6` and `complement`.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        object.__setattr__(g, "labels", labels)
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    # -- basic queries ------------------------------------------------------

    def neighbour_list(self, v: int) -> list[int]:
        return list(bits(self.rows[v]))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    # -- equality / hashing (labels are metadata, excluded) -----------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- constructors -----------------------------------------------------------


def graph_from_edges(
    n: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None
) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, labels)


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set; labels carried over."""
    full = (1 << g.n) - 1
    rows = [full & ~g.rows[v] & ~(1 << v) for v in range(g.n)]
    return Graph._trusted(g.n, rows, g.labels)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides.

    h's vertices are shifted by g.n. Labels survive only when both inputs are
    labelled and the combined labels stay unique.
    """
    n = g.n + h.n
    g_side = (1 << g.n) - 1
    h_side = ((1 << h.n) - 1) << g.n
    rows = [g.rows[v] | h_side for v in range(g.n)]
    rows += [(h.rows[v] << g.n) | g_side for v in range(h.n)]
    labels = None
    if g.labels is not None and h.labels is not None:
        combined = g.labels + h.labels
        if len(set(combined)) == n:
            labels = combined
    return Graph(n, rows, labels)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Image of g under the vertex bijection v -> mapping[v]."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertices")
    rows = [0] * g.n
    for u, v in g.edges():
        rows[mapping[u]] |= 1 << mapping[v]
        rows[mapping[v]] |= 1 << mapping[u]
    labels = None
    if g.labels is not None:
        out = [""] * g.n
        for v in range(g.n):
            out[mapping[v]] = g.labels[v]
        labels = out
    return Graph(g.n, rows, labels)


# -- induced pattern detection ----------------------------------------------


def induces(g: Graph, verts: Sequence[int], pattern: str) -> bool:
    """Check whether the given vertices induce the named pattern.

    Structural test on the induced subgraph, independent of the finders, so it
    doubles as their re-check oracle.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    vs = sorted(set(verts))
    size = {"C4": 4, "2K2": 4, "P4": 4, "P5": 5, "K3": 3, "DIAMOND": 4}[pattern]
    if len(vs) != size or len(verts) != size:
        return False
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError(f"vertices {vs} out of range for n={g.n}")
    sub = [[g.has_edge(a, b) for b in vs] for a in vs]
    degs = sorted(sum(row) for row in sub)
    m = sum(degs) // 2
    if pattern == "K3":
        return m == 3
    if pattern == "C4":
        return m == 4 and degs == [2, 2, 2, 2]
    if pattern == "2K2":
        return m == 2 and degs == [1, 1, 1, 1]
    if pattern == "P4":
        return m == 3 and degs == [1, 1, 2, 2]
    if pattern == "DIAMOND":
        return m == 5
    # P5: degrees alone admit K3 + K2, which is disconnected; a path is not.
    if not (m == 4 and degs == [1, 1, 2, 2, 2]):
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in range(size):
            if sub[a][b] and b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == size


def _find_k3(g: Graph) -> tuple[int, ...] | None:
    for u in range(g.n):
        row_u = g.rows[u] >> (u + 1) << (u + 1)
        for v in bits(row_u):
            common = g.rows[u] & g.rows[v] >> (v + 1) << (v + 1)
            if common:
                w = (common & -common).bit_length() - 1
                return (u, v, w)
    return None


def _non_adjacent_pair(g: Graph, mask: int) -> tuple[int, int] | None:
    """Lowest a in mask with a non-neighbour above it in mask, and the lowest
    such b: two non-adjacent common neighbours when mask is N(x) & N(y)."""
    for a in bits(mask):
        rest = mask & ~g.rows[a] & ~((1 << (a + 1)) - 1)
        if rest:
            return a, (rest & -rest).bit_length() - 1
    return None


def _find_c4(g: Graph) -> tuple[int, ...] | None:
    # Induced C4 = non-adjacent u,v with two non-adjacent common neighbours.
    full = (1 << g.n) - 1
    for u in range(g.n):
        non = full & ~g.rows[u] & ~((1 << (u + 1)) - 1)
        for v in bits(non):
            pair = _non_adjacent_pair(g, g.rows[u] & g.rows[v])
            if pair:
                return tuple(sorted((u, v, *pair)))
    return None


def _find_2k2(g: Graph) -> tuple[int, ...] | None:
    # First edge ab in lex order with an edge cd after it outside N[a] | N[b];
    # such a c lies above a, and the lowest c with a d above it comes first.
    rows = g.rows
    full = (1 << g.n) - 1
    for a in range(g.n):
        above_a = full >> (a + 1) << (a + 1)
        for b in bits(rows[a] & above_a):
            allowed = above_a & ~(rows[a] | rows[b])
            pool = allowed
            while pool:
                low = pool & -pool
                pool ^= low
                c = low.bit_length() - 1
                ds = rows[c] & allowed >> (c + 1) << (c + 1)
                if ds:
                    d = (ds & -ds).bit_length() - 1
                    return tuple(sorted((a, b, c, d)))
    return None


def _iter_induced_p4(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    # Yield induced paths a-b-c-d as ordered tuples.
    for b, c in g.edges():
        for bb, cc in ((b, c), (c, b)):
            a_mask = g.rows[bb] & ~g.rows[cc] & ~(1 << cc)
            d_mask = g.rows[cc] & ~g.rows[bb] & ~(1 << bb)
            for a in bits(a_mask):
                d_ok = d_mask & ~g.rows[a] & ~(1 << a)
                for d in bits(d_ok):
                    yield (a, bb, cc, d)


def _find_p4(g: Graph) -> tuple[int, ...] | None:
    for a, b, c, d in _iter_induced_p4(g):
        return tuple(sorted((a, b, c, d)))
    return None


def _find_p5(g: Graph) -> tuple[int, ...] | None:
    for a, b, c, d in _iter_induced_p4(g):
        banned = g.rows[a] | g.rows[b] | g.rows[c] | 1 << a | 1 << b | 1 << c
        e_mask = g.rows[d] & ~banned
        for e in bits(e_mask):
            return tuple(sorted((a, b, c, d, e)))
    return None


def _find_diamond(g: Graph) -> tuple[int, ...] | None:
    for x, y in g.edges():
        pair = _non_adjacent_pair(g, g.rows[x] & g.rows[y])
        if pair:
            return tuple(sorted((x, y, *pair)))
    return None


_FINDERS = {
    "K3": _find_k3,
    "C4": _find_c4,
    "2K2": _find_2k2,
    "P4": _find_p4,
    "P5": _find_p5,
    "DIAMOND": _find_diamond,
}


def find_induced(g: Graph, pattern: str) -> tuple[int, ...] | None:
    """First induced copy of the pattern in index order, or None.

    The returned vertex set always passes the independent `induces` re-check.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    found = _FINDERS[pattern](g)
    if found is not None and not induces(g, found, pattern):
        raise CertificateError(f"finder returned a non-{pattern} set")
    return found


def is_diamond_middle_edge(g: Graph, x: int, y: int) -> bool:
    """True iff edge xy joins the two degree-3 vertices of some diamond.

    Equivalently: x and y have two common neighbours that are themselves
    non-adjacent, so deleting xy would create an induced C4.
    """
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    return _non_adjacent_pair(g, g.rows[x] & g.rows[y]) is not None


# -- isomorphism -------------------------------------------------------------


def are_isomorphic(g: Graph, h: Graph) -> list[int] | None:
    """Backtracking isomorphism search with degree/neighbourhood pruning.

    Returns mapping[u of g] = vertex of h, or None. Any order is accepted;
    the returned mapping is re-verified edge by edge before return.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    n = g.n
    deg_g = [g.degree(v) for v in range(n)]
    deg_h = [h.degree(v) for v in range(n)]
    if sorted(deg_g) != sorted(deg_h):
        return None

    # One refinement round: degree plus sorted neighbour-degree multiset.
    def signature(graph: Graph, degs: list[int], v: int) -> tuple:
        return (degs[v], tuple(sorted(degs[u] for u in bits(graph.rows[v]))))

    sig_g = [signature(g, deg_g, v) for v in range(n)]
    sig_h = [signature(h, deg_h, v) for v in range(n)]
    if sorted(sig_g) != sorted(sig_h):
        return None
    candidates = [[v for v in range(n) if sig_h[v] == sig_g[u]] for u in range(n)]

    # Most-constrained vertices first, then prefer neighbours of placed ones.
    # before[i]: the vertices of g placed ahead of depth i
    order: list[int] = []
    before = [0]
    while len(order) < n:
        placed = before[-1]
        pool = [u for u in range(n) if not placed >> u & 1]
        touching = [u for u in pool if g.rows[u] & placed]
        pick_from = touching if touching else pool
        u = min(pick_from, key=lambda u: (len(candidates[u]), u))
        order.append(u)
        before.append(placed | 1 << u)

    mapping = [-1] * n
    h_rows = h.rows

    def extend(idx: int, image: int) -> bool:
        """Place order[idx:]; image holds the h-vertices used so far."""
        if idx == n:
            return True
        u = order[idx]
        # v fits iff its placed neighbours are exactly the images of u's
        want = 0
        for w in bits(g.rows[u] & before[idx]):
            want |= 1 << mapping[w]
        for v in candidates[u]:
            if image >> v & 1 or h_rows[v] & image != want:
                continue
            mapping[u] = v
            if extend(idx + 1, image | 1 << v):
                return True
        mapping[u] = -1
        return False

    if not extend(0, 0):
        return None
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v) != h.has_edge(mapping[u], mapping[v]):
                raise CertificateError("isomorphism search returned a non-isomorphism")
    return mapping


# -- graph6 ------------------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    """Header-free graph6 line for g (labels are not encoded)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError(f"graph6 encoding supports n <= 258047, got {n}")
    acc = 0
    nbits = 0
    body = []
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                body.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        body.append((acc << (6 - nbits)) + 63)
    return "".join(map(chr, head + body))


def decode_graph6(text: str) -> Graph:
    """Decode one header-free graph6 line."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("malformed graph6 byte")
    if data[0] != 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) >= 2 and data[1] == 63:
            raise ValueError("graph6 orders beyond 258047 are not supported")
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 length mismatch: expected {need} body bytes, got {len(body)}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if body[pos // 6] >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph._trusted(n, rows, None)


# -- DIMACS .col --------------------------------------------------------------


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if len(tok) != 4 or tok[1].lower() != "edge":
                raise ValueError(f"unsupported DIMACS problem line: {line!r}")
            n = int(tok[2])
        elif tok[0] == "e":
            if len(tok) != 3:
                raise ValueError(f"bad edge line: {line!r}")
            edges.append((int(tok[1]) - 1, int(tok[2]) - 1))
        else:
            raise ValueError(f"unknown DIMACS line: {line!r}")
    if n is None:
        raise ValueError("missing DIMACS problem line")
    return graph_from_edges(n, edges)


# -- JSON edge-list -----------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    out: dict = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def graph_from_json(data: dict) -> Graph:
    return graph_from_edges(
        data["n"], [tuple(e) for e in data["edges"]], data.get("labels")
    )
