"""The benchmark's own output checks.

Nothing here imports frozencol: every verdict on the program's output comes
from this file, so a bug in the library cannot also hide in its check.
Graphs are (n, rows) pairs with rows[v] the neighbour bitmask of v.
"""

from __future__ import annotations

import hashlib
import itertools


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def decode_graph6(line: str) -> tuple[int, list[int]]:
    """Header-free graph6 for orders up to 62."""
    data = [ord(ch) - 63 for ch in line.strip()]
    if not data or any(d < 0 or d > 63 for d in data) or data[0] == 63:
        raise ValueError(f"not a small graph6 line: {line!r}")
    n = data[0]
    body = data[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 length mismatch: {line!r}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if body[pos // 6] >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return n, rows


def encode_graph6(n: int, rows: list[int]) -> str:
    out = [n + 63]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (rows[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return "".join(map(chr, out))


def relabel(n: int, rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        for u in bits(rows[v]):
            out[perm[v]] |= 1 << perm[u]
    return out


def complement(n: int, rows: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~rows[v] & ~(1 << v) for v in range(n)]


def wl_invariant(n: int, rows: list[int]) -> str:
    """Colour-refinement fingerprint: equal for isomorphic graphs.

    Each round's sorted signature list is canonical, so the history is an
    isomorphism invariant; distinct fingerprints prove non-isomorphism.
    """
    col = [0] * n
    history = []
    classes = 1
    for _ in range(max(n, 1)):
        sigs = [(col[v], tuple(sorted(col[u] for u in bits(rows[v])))) for v in range(n)]
        uniq = sorted(set(sigs))
        index = {s: i for i, s in enumerate(uniq)}
        col = [index[s] for s in sigs]
        history.append(tuple(uniq))
        if len(uniq) == classes:
            break
        classes = len(uniq)
    return hashlib.sha256(repr((n, history)).encode()).hexdigest()[:20]


def brute_canonical(n: int, rows: list[int]) -> str:
    """Exact canonical graph6 by trying every labelling (small n only)."""
    return min(encode_graph6(n, relabel(n, rows, list(p)))
               for p in itertools.permutations(range(n)))


def is_proper(n: int, rows: list[int], colours: list[int]) -> bool:
    return len(colours) == n and all(
        colours[u] != colours[v] for v in range(n) for u in bits(rows[v]))


def is_frozen(n: int, rows: list[int], colours: list[int], k: int) -> bool:
    """Proper, all k colours used, and every vertex sees every other colour."""
    if not is_proper(n, rows, colours) or any(not 0 <= c < k for c in colours):
        return False
    if len(set(colours)) != k:
        return False
    everything = (1 << k) - 1
    for v in range(n):
        seen = 1 << colours[v]
        for u in bits(rows[v]):
            seen |= 1 << colours[u]
        if seen != everything:
            return False
    return True


def brute_chromatic(n: int, rows: list[int]) -> int:
    """Smallest k with a proper k-colouring, by plain backtracking."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        cols = [-1] * n

        def place(v: int, used: int) -> bool:
            if v == n:
                return True
            for c in range(min(k, used + 1)):
                if all(cols[u] != c for u in bits(rows[v]) if u < v):
                    cols[v] = c
                    if place(v + 1, max(used, c + 1)):
                        return True
            cols[v] = -1
            return False

        if place(0, 0):
            return k
    return n


def has_2k2(n: int, rows: list[int]) -> bool:
    """True iff two disjoint edges span no further edge."""
    for a in range(n):
        for b in bits(rows[a] >> (a + 1) << (a + 1)):
            away = ~(rows[a] | rows[b] | 1 << a | 1 << b) & ((1 << n) - 1)
            if any(rows[c] & away for c in bits(away)):
                return True
    return False


def replay(n: int, rows: list[int], start: list[int], moves, ell: int):
    """Apply (vertex, colour) moves, each a real change to a free colour.

    Returns (final colours, max moves on one vertex), or None on the first
    illegal move.
    """
    cols = list(start)
    counts = [0] * n
    for v, c in moves:
        if not (0 <= v < n and 0 <= c < ell) or cols[v] == c:
            return None
        if any(cols[u] == c for u in bits(rows[v])):
            return None
        cols[v] = c
        counts[v] += 1
    return cols, max(counts, default=0)
