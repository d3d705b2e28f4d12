"""Graph construction, pattern detection, isomorphism, and encodings."""

import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from frozencol.families import me_complement
from frozencol.graph import (
    PATTERNS,
    Graph,
    are_isomorphic,
    bits,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    find_induced,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    induces,
    is_diamond_middle_edge,
    join,
    path_graph,
    read_dimacs,
    relabel,
    write_dimacs,
)


@st.composite
def graphs(draw, min_n=0, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return graph_from_edges(n, edges)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def brute_find(g, pattern):
    size = {"K3": 3, "P5": 5}.get(pattern, 4)
    for vs in itertools.combinations(range(g.n), size):
        if induces(g, vs, pattern):
            return vs
    return None


# -- construction -------------------------------------------------------------


def test_graph_from_edges_c4():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.edge_count == 4
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0b000])  # bit out of range


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_labels_are_metadata():
    g = graph_from_edges(2, [(0, 1)], labels=["a", "b"])
    h = graph_from_edges(2, [(0, 1)])
    assert g == h
    assert g.labels == ("a", "b") and h.labels is None
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 1)], labels=["a", "a"])


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


@given(graphs(max_n=7), graphs(max_n=7))
def test_join_edge_count(g, h):
    j = join(g, h)
    assert j.n == g.n + h.n
    assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n
    for u in range(g.n):
        for v in range(h.n):
            assert j.has_edge(u, g.n + v)


def test_small_builders():
    assert complete_graph(4).edge_count == 6
    assert empty_graph(5).edge_count == 0
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    with pytest.raises(ValueError):
        cycle_graph(2)


# -- induced patterns ----------------------------------------------------------


def test_induces_structural():
    c5 = cycle_graph(5)
    assert induces(path_graph(4), (0, 1, 2, 3), "P4")
    assert induces(c5, (0, 1, 2, 3), "P4")
    claw = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not induces(claw, (0, 1, 2, 3), "P4")  # same edge count, star degrees
    assert induces(cycle_graph(4), (0, 1, 2, 3), "C4")
    assert induces(complete_graph(3), (0, 1, 2), "K3")
    assert induces(graph_from_edges(4, [(0, 1), (2, 3)]), (0, 1, 2, 3), "2K2")
    assert induces(path_graph(5), (0, 1, 2, 3, 4), "P5")
    diamond = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert induces(diamond, (0, 1, 2, 3), "DIAMOND")
    assert not induces(complete_graph(4), (0, 1, 2, 3), "DIAMOND")
    assert not induces(c5, (0, 1, 2), "P4")  # wrong size
    with pytest.raises(ValueError):
        induces(c5, (0, 1, 2, 9), "C4")
    with pytest.raises(ValueError):
        induces(c5, (0, 1, 2, 3), "C5")


def test_find_induced_on_known_graphs():
    c5 = cycle_graph(5)
    assert find_induced(c5, "P4") is not None
    for absent in ("C4", "2K2", "K3", "P5", "DIAMOND"):
        assert find_induced(c5, absent) is None
    c6 = cycle_graph(6)
    assert find_induced(c6, "2K2") is not None
    assert find_induced(c6, "P5") is not None
    assert find_induced(c6, "C4") is None
    assert find_induced(complete_graph(5), "K3") == (0, 1, 2)
    assert find_induced(cycle_graph(4), "C4") == (0, 1, 2, 3)


def test_find_induced_matches_brute_force():
    rng = random.Random(1729)
    for trial in range(80):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
        for pattern in PATTERNS:
            got = find_induced(g, pattern)
            expected = brute_find(g, pattern)
            assert (got is None) == (expected is None), (pattern, g.edges())
            if got is not None:
                assert induces(g, got, pattern)


def _reference_find_2k2(g):
    # the edge-pair scan the mask-based finder replaced
    edges = g.edges()
    for i, (a, b) in enumerate(edges):
        forbidden = g.rows[a] | g.rows[b] | 1 << a | 1 << b
        for c, d in edges[i + 1 :]:
            if not (forbidden >> c & 1) and not (forbidden >> d & 1):
                return tuple(sorted((a, b, c, d)))
    return None


@settings(max_examples=300)
@given(st.integers(0, 14), st.floats(0, 1), st.integers(0, 2**30))
def test_find_2k2_matches_edge_pair_scan(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    for h in (g, complement(g)):
        assert find_induced(h, "2K2") == _reference_find_2k2(h)


def _reference_find_c4(g):
    # the finders before they shared one common-neighbour scan
    full = (1 << g.n) - 1
    for u in range(g.n):
        non = full & ~g.rows[u] & ~((1 << (u + 1)) - 1)
        for v in bits(non):
            common = g.rows[u] & g.rows[v]
            for a in bits(common):
                rest = common & ~g.rows[a] & ~((1 << (a + 1)) - 1)
                if rest:
                    b = (rest & -rest).bit_length() - 1
                    return tuple(sorted((u, a, v, b)))
    return None


def _reference_find_diamond(g):
    for x, y in g.edges():
        common = g.rows[x] & g.rows[y]
        for a in bits(common):
            rest = common & ~g.rows[a] & ~((1 << (a + 1)) - 1)
            if rest:
                b = (rest & -rest).bit_length() - 1
                return tuple(sorted((x, y, a, b)))
    return None


@settings(max_examples=300)
@given(graphs(max_n=9))
def test_c4_and_diamond_finders_match_reference(g):
    for h in (g, complement(g)):
        assert find_induced(h, "C4") == _reference_find_c4(h)
        assert find_induced(h, "DIAMOND") == _reference_find_diamond(h)


def test_diamond_middle_edge():
    diamond = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_diamond_middle_edge(diamond, 0, 1)
    assert is_diamond_middle_edge(diamond, 1, 0)
    assert not is_diamond_middle_edge(diamond, 0, 2)
    assert not is_diamond_middle_edge(complete_graph(4), 0, 1)  # K4 has no induced C4 after deletion... the common pair is adjacent
    with pytest.raises(ValueError):
        is_diamond_middle_edge(diamond, 2, 3)


@given(graphs(min_n=2, max_n=8))
def test_diamond_middle_edge_means_deletion_creates_c4(g):
    for u, v in g.edges():
        mid = is_diamond_middle_edge(g, u, v)
        smaller_rows = list(g.rows)
        smaller_rows[u] &= ~(1 << v)
        smaller_rows[v] &= ~(1 << u)
        smaller = Graph(g.n, smaller_rows)
        creates = any(
            induces(smaller, (u, v, a, b), "C4")
            for a, b in itertools.combinations(range(g.n), 2)
            if len({u, v, a, b}) == 4
        )
        assert mid == creates


# -- isomorphism ---------------------------------------------------------------


def test_isomorphic_relabelled_path():
    g = path_graph(4)
    h = relabel(g, [2, 0, 3, 1])
    mapping = are_isomorphic(g, h)
    assert mapping is not None
    for u in range(4):
        for v in range(4):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])


def test_non_isomorphic_same_degree_sequence():
    # C6 and two disjoint triangles are both 2-regular on 6 vertices.
    two_triangles = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert are_isomorphic(cycle_graph(6), two_triangles) is None
    assert are_isomorphic(cycle_graph(4), graph_from_edges(4, [(0, 1), (2, 3)])) is None


def _reference_are_isomorphic(g, h):
    """are_isomorphic testing each candidate edge by edge against placed vertices."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    n = g.n
    deg_g = [g.degree(v) for v in range(n)]
    deg_h = [h.degree(v) for v in range(n)]
    if sorted(deg_g) != sorted(deg_h):
        return None

    def signature(graph, degs, v):
        return (degs[v], tuple(sorted(degs[u] for u in graph.neighbour_list(v))))

    sig_g = [signature(g, deg_g, v) for v in range(n)]
    sig_h = [signature(h, deg_h, v) for v in range(n)]
    if sorted(sig_g) != sorted(sig_h):
        return None
    candidates = [[v for v in range(n) if sig_h[v] == sig_g[u]] for u in range(n)]
    order = []
    placed = set()
    while len(order) < n:
        pool = [u for u in range(n) if u not in placed]
        touching = [u for u in pool if any(g.has_edge(u, w) for w in order)]
        u = min(touching or pool, key=lambda u: (len(candidates[u]), u))
        order.append(u)
        placed.add(u)
    mapping = [-1] * n
    used = [False] * n

    def extend(idx):
        if idx == n:
            return True
        u = order[idx]
        for v in candidates[u]:
            if used[v]:
                continue
            if any(g.has_edge(u, w) != h.has_edge(v, mapping[w]) for w in order[:idx]):
                continue
            mapping[u] = v
            used[v] = True
            if extend(idx + 1):
                return True
            mapping[u] = -1
            used[v] = False
        return False

    return mapping if extend(0) else None


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10), st.randoms(use_true_random=False), st.integers(0, 3))
def test_isomorphism_mapping_matches_reference(g, rng, flips):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    # swapping an edge for a non-edge keeps the edge count, often the degrees too
    other = h
    for _ in range(flips):
        edges, non = other.edges(), complement(other).edges()
        if not edges or not non:
            break
        (a, b), (c, d) = rng.choice(edges), rng.choice(non)
        rows = list(other.rows)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        rows[c] ^= 1 << d
        rows[d] ^= 1 << c
        other = Graph(g.n, rows)
    for target in (h, other, complement(g)):
        assert are_isomorphic(g, target) == _reference_are_isomorphic(g, target)


def test_isomorphism_has_no_order_limit():
    big = complement(me_complement(5).graph)
    perm = list(range(big.n))
    random.Random(5).shuffle(perm)
    for g, h in ((empty_graph(25), empty_graph(25)), (big, relabel(big, perm))):
        mapping = are_isomorphic(g, h)
        assert mapping is not None and sorted(mapping) == list(range(g.n))
        for u, v in itertools.combinations(range(g.n), 2):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
    c11_edges = [(i, (i + 1) % 11) for i in range(11)]
    two_c11 = graph_from_edges(22, c11_edges + [(u + 11, v + 11) for u, v in c11_edges])
    assert are_isomorphic(cycle_graph(22), two_c11) is None


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_relabelled_graphs_are_isomorphic(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    mapping = are_isomorphic(g, h)
    assert mapping is not None


# -- graph6 ---------------------------------------------------------------------


def test_graph6_known_strings():
    assert encode_graph6(empty_graph(0)) == "?"
    assert encode_graph6(complete_graph(1)) == "@"
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(complete_graph(4)) == "C~"
    assert decode_graph6("A_") == complete_graph(2)
    assert decode_graph6("C~") == complete_graph(4)


@given(graphs(max_n=12))
def test_graph6_roundtrip(g):
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=20)
@given(st.integers(0, 40), st.integers(0, 2**30))
def test_graph6_roundtrip_random_larger(n, seed):
    g = random_graph(random.Random(seed), n, 0.4)
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_long_form():
    g = random_graph(random.Random(3), 70, 0.3)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s) == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        decode_graph6("junk~~~")
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("A")  # truncated body
    with pytest.raises(ValueError):
        decode_graph6("A_\x07")
    with pytest.raises(ValueError):
        decode_graph6("~~??????")  # 36-bit order form
    good = encode_graph6(cycle_graph(5))
    for bad in (good + "?",  # one body byte too many
                good[:-1],  # one body byte short
                good[0] + "\x7f" + good[2:],  # byte above 126
                "~??",  # truncated long-form header
                " \t "):  # blank
        with pytest.raises(ValueError):
            decode_graph6(bad)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14), st.booleans())
def test_trusted_constructions_pass_the_full_checks(g, labelled):
    if labelled:
        g = Graph(g.n, g.rows, [f"v{i}" for i in range(g.n)])
    for built in (decode_graph6(encode_graph6(g)), complement(g)):
        checked = Graph(built.n, built.rows, built.labels)
        assert checked == built and checked.labels == built.labels
    assert complement(g).labels == g.labels


# -- DIMACS and JSON -------------------------------------------------------------


def test_dimacs_roundtrip():
    g = cycle_graph(5)
    text = write_dimacs(g)
    assert text.splitlines()[0] == "p edge 5 5"
    assert read_dimacs(text) == g
    assert read_dimacs("c comment\np edge 2 1\ne 1 2\n") == complete_graph(2)
    with pytest.raises(ValueError):
        read_dimacs("e 1 2\n")
    with pytest.raises(ValueError):
        read_dimacs("p edge 2 1\nx 1 2\n")


@given(graphs())
def test_json_roundtrip(g):
    assert graph_from_json(graph_to_json(g)) == g


def test_json_keeps_labels():
    g = graph_from_edges(2, [(0, 1)], labels=["x", "y"])
    back = graph_from_json(graph_to_json(g))
    assert back.labels == ("x", "y")


# -- self-checks ----------------------------------------------------------------
#
# Every returned object is re-checked through `require`, which raises
# CertificateError; a bare assert would vanish under `python -O`.

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "frozencol").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_are_used():
    # a name imported into a module and never read there is a leftover
    unused = []
    for path in sorted((SRC / "frozencol").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


_CORRUPT_KERNEL = """
import frozencol.solvers as S
from frozencol.graph import cycle_graph
S._dsatur_greedy = lambda g: [0] * g.n
S._try_colouring = lambda g, k, seed: [0] * g.n
"""

_CORRUPTIONS = {
    "2K2 finder": """
import frozencol.graph as G
G._FINDERS["2K2"] = lambda g: (0, 1, 2, 3)  # a P4 in C6
G.find_induced(G.cycle_graph(6), "2K2")
""",
    "colouring kernel": _CORRUPT_KERNEL + """
S.chromatic_number(cycle_graph(6))
""",
    "recolour step": """
import frozencol.recolour as R
from frozencol.graph import cycle_graph
from frozencol.partitions import BlockPartition

plain = R._Recorder.paint

def skewed(self, mask, c):  # records a different colour from the one it applies
    mark = len(self.moves)
    plain(self, mask, c)
    self.moves[mark:] = [(v, (c + 1) % self.ell) for v, _ in self.moves[mark:]]

R._Recorder.paint = skewed
beta = BlockPartition.from_colours([0, 1, 0, 1, 2], 4)
gamma = BlockPartition.from_colours([1, 0, 1, 0, 3], 4)
R.path_between(cycle_graph(5), beta, gamma, 4)
""",
    # every step stays proper and the whole walk keeps within path_between's
    # bound of 4, so only the bipartite stage's own bound of 1 catches it
    "recolour stage bound": """
import frozencol.recolour as R
from frozencol.graph import cycle_graph
from frozencol.partitions import BlockPartition

plain = R._Recorder.paint

def detour(self, mask, c):  # reaches c by way of another free colour
    for v in R.bits(mask & ~self.masks[c]):
        for d in range(self.ell):
            if d not in (c, self.cols[v]) and not self.rows[v] & self.masks[d]:
                plain(self, 1 << v, d)
                break
        plain(self, 1 << v, c)

R._Recorder.paint = detour
beta = BlockPartition.from_colours([2, 3, 2, 3], 4)
gamma = BlockPartition.from_colours([0, 1, 0, 1], 4)
R.path_between(cycle_graph(4), beta, gamma, 4)
""",
    "frozen check in R_k": """
import frozencol.reconfig as R
from frozencol.graph import cycle_graph
R.is_frozen_colouring = lambda g, p: False
R.reconfiguration_components(cycle_graph(6), 3)
""",
}


def _run_optimised(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    script = tmp_path / "probe.py"
    script.write_text("import sys\nif not sys.flags.optimize:\n"
                      "    raise SystemExit('asserts are live')\n" + code)
    # src goes first; the caller's PYTHONPATH may be where click comes from
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_corruption_is_caught_under_python_O(name, tmp_path):
    code = "try:\n" + textwrap.indent(_CORRUPTIONS[name], "    ") + (
        "except AssertionError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "else:\n"
        "    print('not caught')\n")
    proc = _run_optimised(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError "), proc.stdout


def test_cli_reports_corrupt_kernel_under_python_O(tmp_path):
    c6 = tmp_path / "c6.g6"
    c6.write_text(encode_graph6(cycle_graph(6)) + "\n")
    code = _CORRUPT_KERNEL + (
        "from frozencol.cli import main\n"
        f"main(['solve', {str(c6)!r}, '--invariant', 'chi'])\n")
    proc = _run_optimised(code, tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("verification failed: "), proc.stderr
