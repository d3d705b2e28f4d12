"""Seeded inputs for each workload.

Everything here depends on the workload seed and on reference.json only, and
uses the benchmark's own graph code; the program under test sees nothing but
the generated graphs, colourings and files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import bits, decode_graph6, encode_graph6, has_2k2, relabel

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# -- stream ---------------------------------------------------------------------

STREAM_ARGS = ["--two-k2-free", "graph", "--max-k", "12"]
GNP_PER_CHUNK = 12
SQF_PER_CHUNK = 6
PERIOD = 128  # chunks; a run stops only at a period boundary
PERIODS = 2  # generated; a run cycles through them
SMALL = ["ME2", "ME3", "ME*2", "ME*3", "KM2", "KM3",
         "CHAIN5", "CHAIN6", "CHAIN7"]
# Heavy chunks: two same-k hits above order 20 (the open dedup bug) in 27
# and 91, a single one in 59 and 123. Four chunks in 128 keep p90 among the
# ordinary chunks.
HEAVY = {
    27: ["ME5", "KM5", "ME4"],
    59: ["CHAIN10", "ME*4", "CHAIN8"],
    91: ["ME*5", "CHAIN10", "KM4"],
    123: ["KM5", "CHAIN9"],
}
ISO_LIMIT = 20  # are_isomorphic refuses larger orders at this commit


@dataclass
class Line:
    text: str
    source: str  # pool id, member name, or "malformed"
    hits: list  # reference [chi, k] pairs
    fingerprint: str | None = None


@dataclass
class Chunk:
    index: int
    lines: list[Line]
    expected: list = field(default_factory=list)  # kept (fingerprint, chi, k)
    expected_dropped: int = 0
    expect_failure: bool = False

    @property
    def text(self) -> str:
        return "".join(line.text + "\n" for line in self.lines)

    @property
    def valid_lines(self) -> int:
        return sum(1 for line in self.lines if line.source != "malformed")


def _shuffled_graph6(rng: random.Random, g6: str) -> str:
    n, rows = decode_graph6(g6)
    perm = list(range(n))
    rng.shuffle(perm)
    return encode_graph6(n, relabel(n, rows, perm))


def _expectation(chunk: Chunk) -> None:
    """Kept hits after dedup, and whether this commit's dedup must raise.

    Distinct sources are non-isomorphic (make_reference checks their
    fingerprints differ), so dedup keeps one hit per (source, k). Any two
    hits of one k where an order exceeds ISO_LIMIT reach are_isomorphic,
    which raises.
    """
    raw = []
    for line in chunk.lines:
        for chi, k in line.hits:
            n = decode_graph6(line.text)[0]
            raw.append((line.source, line.fingerprint, chi, k, n))
    kept = {}
    for source, fp, chi, k, n in raw:
        kept.setdefault((source, k), (fp, chi, k))
    chunk.expected = sorted(kept.values())
    chunk.expected_dropped = len(raw) - len(kept)
    by_k: dict[int, list[int]] = {}
    for _, _, _, k, n in raw:
        by_k.setdefault(k, []).append(n)
    chunk.expect_failure = any(
        len(orders) > 1 and max(orders) > ISO_LIMIT for orders in by_k.values())


def stream_chunks(seed: int) -> list[Chunk]:
    ref = REFERENCE["stream"]
    rng = random.Random(f"stream:{seed}")
    gnp, sqf, members = ref["gnp"], ref["sqf"], ref["members"]
    offset = rng.randrange(len(SMALL))
    chunks = []
    for index in range(PERIOD * PERIODS):
        i = index % PERIOD
        picks = [("gnp", rng.randrange(len(gnp))) for _ in range(GNP_PER_CHUNK)]
        picks += [("sqf", rng.randrange(len(sqf))) for _ in range(SQF_PER_CHUNK)]
        lines = []
        for pool, j in picks:
            entry = (gnp if pool == "gnp" else sqf)[j]
            lines.append(Line(_shuffled_graph6(rng, entry["g6"]), f"{pool}{j}",
                              entry["hits"], entry.get("fingerprint")))
        small = SMALL[(index + offset) % len(SMALL)]
        names = [small, small] if i % 4 == 2 else [small]
        for name in names + HEAVY.get(i, []):
            m = members[name]
            lines.append(Line(_shuffled_graph6(rng, m["g6"]), name, m["hits"], m["fingerprint"]))
        if i % 5 == 0:
            victim = _shuffled_graph6(rng, gnp[rng.randrange(len(gnp))]["g6"])
            lines.append(Line(victim[:-1], "malformed", []))
        rng.shuffle(lines)
        chunk = Chunk(index, lines)
        _expectation(chunk)
        chunks.append(chunk)
    return chunks


# -- reconfig -------------------------------------------------------------------


def reconfig_instance(name: str, seed: int) -> dict:
    """A seeded relabelling of the sparse (C10, k=4) or dense instance."""
    ref = REFERENCE[name]
    n, rows = decode_graph6(ref["g6"])
    rng = random.Random(f"{name}:{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    return {"g6": encode_graph6(n, relabel(n, rows, perm)), "k": ref["k"],
            "states": ref["states"], "components": ref["components"],
            "frozen": ref["frozen"], "cycle": name == "reconfig_sparse"}


# -- recolour -------------------------------------------------------------------

# Graph j of a batch has order ORDERS[j % 7] and is a chain graph when
# j % 4 == 3, so every batch has the same mix of orders and kinds. Batch b
# depends on (seed, b) alone: a run generates batches as it needs them, so
# every graph is new to the process and its first pair pays for chi.
ORDERS = range(8, 15)
BATCH_GRAPHS = 28
SETUP_BATCHES = 2  # generated in set-up and covered by the input digest
PAIRS_PER_GRAPH = 20
RENAME_EVERY = 10  # every tenth pair is a pure renaming


def _triangle_graph(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """Random 3-partite 2K2-free graph with a planted triangle.

    Returns (rows, part of each vertex). Redrawn until 2K2-free, the way the
    recolouring acceptance test builds its inputs.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        part = [0] * n
        for i, v in enumerate(order):
            part[v] = i if i < 3 else rng.randrange(3)
        p_edge = rng.uniform(0.55, 0.9)
        rows = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if part[a] != part[b] and rng.random() < p_edge:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        for i in range(3):
            a, b = order[i], order[(i + 1) % 3]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        if not has_2k2(n, rows):
            return rows, part


def _chain_graph(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """Random bipartite chain graph: nested neighbourhoods, so 2K2-free."""
    left = rng.randrange(2, n - 1)
    right = n - left
    thresholds = sorted((rng.randint(1, right) for _ in range(left)), reverse=True)
    thresholds[0] = right  # no isolated vertex on the right
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for i, t in enumerate(thresholds):
        for j in range(t):
            a, b = perm[i], perm[left + j]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    part = [0] * n
    for j in range(right):
        part[perm[left + j]] = 1
    return rows, part


def _glauber(rng: random.Random, nbrs: list[list[int]], cols: list[int],
             palette: list[int]) -> list[int]:
    """2n random single-vertex recolourings; every state stays proper."""
    n = len(nbrs)
    cols = list(cols)
    for _ in range(2 * n):
        v = int(rng.random() * n)
        taken = {cols[u] for u in nbrs[v]}
        free = [c for c in palette if c not in taken]
        cols[v] = free[int(rng.random() * len(free))]
    return cols


def recolour_batch(seed: int, batch: int) -> list[dict]:
    """BATCH_GRAPHS seeded graphs, each with PAIRS_PER_GRAPH endpoint pairs.

    Endpoints come from a seeded walk that starts at the planted colouring
    with its colours permuted; no sample is ever rejected.
    """
    rng = random.Random(f"recolour:{seed}:{batch}")
    graphs = []
    for j in range(BATCH_GRAPHS):
        n = ORDERS[j % len(ORDERS)]
        chain = j % 4 == 3
        rows, part = _chain_graph(rng, n) if chain else _triangle_graph(rng, n)
        g6 = encode_graph6(n, rows)
        nbrs = [list(bits(row)) for row in rows]
        bound = 4 if chain else 14
        pairs = []
        for i in range(PAIRS_PER_GRAPH):
            rename = i % RENAME_EVERY == RENAME_EVERY - 1
            ell = 5 if rename or i % 2 else 4
            if rename:
                palette = rng.sample(range(ell), ell - 1)
                base = [palette[p] for p in part]
                beta = _glauber(rng, nbrs, base, palette)
                used = sorted(set(beta))
                while True:
                    perm = list(range(ell))
                    rng.shuffle(perm)
                    if any(perm[c] != c for c in used):
                        break
                gamma = [perm[c] for c in beta]
                pairs.append({"ell": ell, "beta": beta, "gamma": gamma,
                              "kind": "rename", "bound": 2})
            else:
                palette = list(range(ell))
                ends = []
                for _ in range(2):
                    shift = rng.sample(palette, 3)
                    ends.append(_glauber(rng, nbrs, [shift[p] for p in part], palette))
                pairs.append({"ell": ell, "beta": ends[0], "gamma": ends[1],
                              "kind": "walk", "bound": bound})
        graphs.append({"g6": g6, "pairs": pairs})
    return graphs


def digest(obj) -> str:
    """Stable sha256 of a JSON-able description of the inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=vars)
    return hashlib.sha256(text.encode()).hexdigest()


def build(workload: str, seed: int):
    """Inputs for one workload, plus their digest."""
    if workload == "exhaustive":
        inputs = {"args": REFERENCE["exhaustive"]["args"]}
    elif workload == "stream":
        inputs = stream_chunks(seed)
    elif workload == "reconfig":
        inputs = [reconfig_instance(name, seed) for name in ("reconfig_sparse", "reconfig_dense")]
    elif workload == "recolour":
        inputs = [recolour_batch(seed, b) for b in range(SETUP_BATCHES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs, digest(inputs)

