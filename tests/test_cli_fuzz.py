"""Exit-code fuzz: every CLI run ends in exit 0, 1 or 2, never in a traceback.

Each example writes a graph file, a partition file and a certificate file,
then runs one subcommand on them with small and extreme integer options.
Three graphs in four are tiny (n <= 6) in some format, with colourings
and certificates of their order; the rest are malformed graph6, DIMACS or
JSON text. Exit 1 is reserved for a failed verification: `check`'s FAIL verdict
on stdout, or `verification failed:` on stderr. `family` and `search` are
left out: no budget bounds a family parameter yet.
"""

import json
import tempfile
import traceback
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frozencol.cli import main
from frozencol.graph import encode_graph6, graph_from_edges, graph_to_json, write_dimacs

EXTREMES = (-1, 0, 10**12, 10**19)
numbers = st.one_of(st.integers(-1, 7), st.sampled_from(EXTREMES))
junk = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


def _dimacs(n, edges):
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


malformed_graphs = st.one_of(
    junk,
    # seven graph6 bytes encode at most 8 vertices
    st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1, max_size=7),
    st.builds(_dimacs, numbers, st.lists(st.tuples(numbers, numbers), max_size=4)),
    st.builds(lambda n, edges: json.dumps({"n": n, "edges": edges}),
              st.one_of(numbers, st.just("3"), st.none()),
              st.lists(st.lists(numbers, max_size=3), max_size=4)),
)


def _blocks(cols):
    """The JSON partition whose blocks are the colour classes of cols, empty ones too."""
    k = max(cols, default=-1) + 1
    return {"k": k, "blocks": [[v for v, c in enumerate(cols) if c == b] for b in range(k)]}


ENCODERS = {"graph6": (".g6", lambda g: encode_graph6(g) + "\n"),
            "dimacs": (".col", write_dimacs),
            "json": (".json", lambda g: json.dumps(graph_to_json(g)))}


@st.composite
def inputs(draw):
    """Graph file name and text, --format options, a colour-line strategy,
    and the partition and certificate texts."""
    n = draw(st.integers(0, 6))
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if draw(st.booleans())])
    fmt = draw(st.sampled_from(sorted(ENCODERS)))
    suffix, encode = ENCODERS[fmt]
    graph = encode(g)
    if draw(st.integers(0, 3)) == 0:  # sniffed by its first bytes
        graph, suffix, fmt = draw(malformed_graphs), ".txt", "auto"
    # the suffix and --format agree with the text four times in five
    if draw(st.integers(0, 4)) == 0:
        suffix = draw(st.sampled_from([".g6", ".col", ".json"]))
        fmt = draw(st.sampled_from(sorted(ENCODERS)))
    else:
        suffix = draw(st.sampled_from([".txt", suffix]))
    option = ["--format", fmt] if draw(st.booleans()) else []
    # colour vectors of the graph's order in colours 0..3, or anything
    colours = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    lines = st.one_of(colours.map(lambda cs: " ".join(map(str, cs))),
                      st.lists(numbers, max_size=7).map(lambda cs: " ".join(map(str, cs))),
                      junk)
    partitions = st.one_of(colours.map(_blocks),
                           st.fixed_dictionaries({"k": numbers, "blocks": st.lists(
                               st.lists(numbers, max_size=3), max_size=6)}))
    part = draw(st.one_of(lines, partitions.map(json.dumps)))
    certs = draw(st.one_of(
        st.fixed_dictionaries({"clique_partition": st.one_of(
                                   st.just(_blocks(list(range(n)))), partitions),
                               "frozen_partition": partitions}).map(json.dumps),
        junk))
    return (f"g{suffix}", graph), option, lines, part, certs


@st.composite
def invocations(draw):
    """argv for one subcommand on GRAPH, PART and CERTS, and the three files."""
    graph, option, lines, part, certs = draw(inputs())
    sub = draw(st.sampled_from(["check", "solve", "reconfig", "subdivide", "recolour"]))
    flag = lambda name: [name] if draw(st.booleans()) else []  # noqa: E731
    number = lambda: str(draw(numbers))  # noqa: E731
    args = [sub, "GRAPH"]
    if sub == "check":
        args += ["PART", *flag("--frozen"), *flag("--clique-partition")]
        args += ["--k", number()] if draw(st.booleans()) else []
    elif sub == "solve":
        args += ["--invariant", draw(st.sampled_from(["all", "chi", "theta", "alpha", "omega"]))]
    elif sub == "reconfig":
        args += ["--k", number()]
        args += ["--cap", number()] if draw(st.booleans()) else []
    elif sub == "subdivide":
        vertex = st.one_of(st.integers(0, 5), numbers)
        args += ["--x", str(draw(vertex)), "--y", str(draw(vertex))]
        if draw(st.booleans()):
            args += ["--certs", "CERTS", *flag("--theta-check"), *flag("--no-strict-c4")]
    else:
        args += ["--ell", number()]
        if draw(st.booleans()):
            args += ["--start", draw(lines), "--target", draw(lines)]
        else:
            args += ["--sample", str(draw(st.integers(-1, 3)))]
    return args + option, {"GRAPH": graph, "PART": ("part.txt", part),
                           "CERTS": ("certs.json", certs)}


def _reading(graph_text):
    return (["check", "GRAPH", "PART"], {"GRAPH": ("g.txt", graph_text), "PART": ("part.txt", ""),
                                         "CERTS": ("certs.json", "")})


@given(invocations())
# declared orders that once exhausted memory run in every session
@example(_reading("p edge 1000000000 0\n"))
@example(_reading(json.dumps({"n": 10**19, "edges": []})))
@settings(max_examples=200, deadline=None)
def test_every_run_exits_0_1_or_2_without_a_traceback(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, (name, text) in files.items():
            paths[key] = Path(tmp) / name
            paths[key].write_text(text)
        argv = [str(paths.get(a, a)) for a in argv]
        result = CliRunner().invoke(main, argv, env={"FROZENCOL_CAP": None})
    raised = result.exception
    assert raised is None or isinstance(raised, SystemExit), (
        argv, "".join(traceback.format_exception(raised)))
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    if result.exit_code == 1:
        assert (result.stdout.startswith("FAIL: ")
                or result.stderr.startswith("verification failed: ")), (argv, result.output)
