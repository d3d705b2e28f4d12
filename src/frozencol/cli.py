"""Command-line surface: build families, check certificates, solve, explore.

Exit codes separate mathematics from plumbing: 0 means every requested check
passed, 1 means a certificate or bound failed verification (a CertificateError
from the library's re-checks, or a failed `check`), 2 means the request itself
was unusable (unknown input, malformed file, a library ValueError, cap exceeded).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import sys
from pathlib import Path

import click

from .families import BUILDERS
from .fixtures import regenerate_fixtures
from .graph import (
    CertificateError,
    Graph,
    decode_graph6,
    encode_graph6,
    graph_from_json,
    graph_to_json,
    read_dimacs,
    require,
    write_dimacs,
)
from .partitions import (
    BlockPartition,
    is_clique_partition,
    is_frozen_clique_partition,
    is_frozen_colouring,
    is_proper_colouring,
)
from .recolour import path_between
from .reconfig import (
    DEFAULT_COLOURING_CAP,
    CapExceeded,
    reconfiguration_components,
    reconfiguration_dot,
)
from .search import PredicateSpec, exhaustive_small, scan_stream
from .solvers import (
    analyze,
    chromatic_number,
    clique_cover_number,
    clique_number,
    independence_number,
)
from .transform import subdivide_edge, subdivide_with_certificates, with_theta_check

ENV_CAP = "FROZENCOL_CAP"


class UsageFailure(Exception):
    """Operationally wrong request: bad file, bad format, exceeded cap."""


def _positive_cap(cap: int, source: str) -> int:
    if cap <= 0:
        raise UsageFailure(f"{source} must be positive, got {cap}")
    return cap


def default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_COLOURING_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageFailure(f"{ENV_CAP} must be an integer, got {raw!r}")
    return _positive_cap(cap, ENV_CAP)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageFailure(f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageFailure(f"cannot write {path}: {exc}")


def _sniff_format(path: str, text: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".g6", ".graph6"):
        return "graph6"
    if suffix == ".col":
        return "dimacs"
    if suffix == ".json":
        return "json"
    body = text.lstrip()
    if body.startswith("{"):
        return "json"
    if body.startswith(("p ", "c ", "p\t")):
        return "dimacs"
    return "graph6"


def read_graph(path: str, fmt: str = "auto") -> Graph:
    """Load a graph from a file or '-' (stdin) in graph6, DIMACS, or JSON."""
    text = _read_text(path)
    if fmt == "auto":
        fmt = _sniff_format(path, text)
    try:
        if fmt == "graph6":
            first = next((ln for ln in text.splitlines() if ln.strip()), "")
            return decode_graph6(first)
        if fmt == "dimacs":
            return read_dimacs(text)
        if fmt == "json":
            return graph_from_json(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageFailure(f"cannot parse {path} as {fmt}: {exc}")
    raise UsageFailure(f"unknown graph format {fmt!r}")


def read_partition(path: str, n: int, k: int | None = None) -> BlockPartition:
    """Load a partition from JSON {k, blocks} or a colour-per-vertex line.

    Without k, a colour line's k is its top colour plus one, so a colour
    above the graph's order n is refused before any block is allocated; a
    given k above n + 1 is refused the same way.
    """
    if k is not None and k > n + 1:
        raise UsageFailure(f"--k {k} is above the graph's order plus one, {n + 1}")
    text = _read_text(path).strip()
    try:
        if text.startswith("{"):
            part = BlockPartition.from_json(json.loads(text))
        else:
            cols = [int(t) for t in text.split()]
            top = max(cols, default=0)
            if k is None and top > n:
                raise UsageFailure(f"colour {top} in partition {path} is above "
                                   f"the graph's order {n}")
            part = BlockPartition.from_colours(cols, k)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageFailure(f"cannot parse partition {path}: {exc}")
    if k is not None and part.k != k:
        raise UsageFailure(f"--k {k} but partition {path} has k={part.k}")
    return part


def _same_order(part: BlockPartition, g: Graph) -> None:
    if part.ground != g.n:
        raise UsageFailure(f"partition covers {part.ground} vertices but the graph has {g.n}")


def _emit(out: str | None, text: str) -> None:
    if out is None or out == "-":
        click.echo(text, nl=not text.endswith("\n"))
    else:
        _write_text(out, text)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _exit_codes(command):
    """Run a command body and exit with the code it returns (None means 0).

    CertificateError exits 1; CapExceeded, UsageFailure and ValueError exit 2.
    """

    @functools.wraps(command)
    def wrapper(*args, **kwargs) -> None:
        try:
            code = command(*args, **kwargs)
        except CertificateError as exc:
            click.echo(f"verification failed: {exc}", err=True)
            code = 1
        except CapExceeded as exc:
            click.echo(f"cap exceeded: {exc}", err=True)
            code = 2
        except (UsageFailure, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        sys.exit(code)

    return wrapper


format_option = click.option(
    "--format", "fmt", default="auto",
    type=click.Choice(["auto", "graph6", "dimacs", "json"]),
    show_default=True, help="Input/output graph format.")
out_option = click.option("--out", default=None, help="Output path (default stdout).")


@click.group()
@click.version_option(package_name="frozencol")
def main() -> None:
    """Frozen graph colourings: builders, certificates, and searches."""


# -- subcommands ---------------------------------------------------------------


_FAMILY_ALIASES = {"ME*": "ME_STAR", "MESTAR": "ME_STAR", "ME_STAR": "ME_STAR"}


@main.command()
@click.option("--name", required=True, help="Family name (ME, ME*, KM, KE, B, H, CHAIN).")
@click.option("--q", "-q", "q", required=True, type=int,
              help="Family parameter (q or t).")
@format_option
@out_option
@_exit_codes
def family(name: str, q: int, fmt: str, out: str | None) -> None:
    """Build a family instance with its certificates."""
    key = name.upper().replace("-", "_")
    key = _FAMILY_ALIASES.get(key, key)
    if key not in BUILDERS:
        raise UsageFailure(
            f"unknown family {name!r}; choose from " + ", ".join(sorted(BUILDERS))
        )
    inst = BUILDERS[key](q)
    g = inst.graph
    if fmt == "graph6":
        _emit(out, encode_graph6(g) + "\n")
    elif fmt == "dimacs":
        _emit(out, write_dimacs(g))
    else:
        payload = {
            "family": inst.family,
            "param": inst.param,
            "graph6": encode_graph6(g),
            "graph": graph_to_json(g),
            "theta_partition": inst.canonical.to_json(),
            "frozen_partition": inst.frozen.to_json(),
            "expected": dataclasses.asdict(inst.expected),
        }
        _emit(out, _dump(payload))


@main.command()
@click.argument("graph")
@click.argument("partition")
@click.option("--frozen", is_flag=True, help="Require the partition to be frozen.")
@click.option("--clique-partition", "clique_partition", is_flag=True,
              help="Treat blocks as cliques of the graph, not colour classes.")
@click.option("--k", type=int, default=None, help="Block count for colour-line input.")
@format_option
@out_option
@_exit_codes
def check(graph: str, partition: str, frozen: bool, clique_partition: bool,
          k: int | None, fmt: str, out: str | None) -> int | None:
    """Check a partition against a graph; exit 0 iff it passes."""
    g = read_graph(graph, fmt)
    part = read_partition(partition, g.n, k)
    _same_order(part, g)
    checker = {
        (False, False): is_proper_colouring,
        (False, True): is_clique_partition,
        (True, False): is_frozen_colouring,
        (True, True): is_frozen_clique_partition,
    }[(frozen, clique_partition)]
    try:
        ok = checker(g, part)
        reason = "" if ok else "checker returned false"
    except ValueError as exc:
        ok, reason = False, str(exc)
    label = checker.__name__.removeprefix("is_").replace("_", " ")
    if not ok:
        _emit(out, f"FAIL: {label}: {reason}\n")
        return 1
    _emit(out, f"PASS: {label}\n")


@main.command()
@click.argument("graph")
@click.option("--invariant", default="all",
              type=click.Choice(["all", "chi", "theta", "alpha", "omega"]),
              show_default=True)
@format_option
@out_option
@_exit_codes
def solve(graph: str, invariant: str, fmt: str, out: str | None) -> None:
    """Exact invariants with verified witnesses."""
    g = read_graph(graph, fmt)
    if invariant == "all":
        payload = analyze(g).to_json()
    else:
        solver = {
            "chi": chromatic_number,
            "theta": clique_cover_number,
            "alpha": independence_number,
            "omega": clique_number,
        }[invariant]
        value, witness = solver(g)
        payload = {
            invariant: value,
            "witness": witness.to_json()
            if isinstance(witness, BlockPartition)
            else sorted(witness),
        }
    _emit(out, _dump(payload))


@main.command()
@click.argument("graph")
@click.option("--k", required=True, type=int, help="Number of colours.")
@click.option("--dot", default=None, help="Also write the move graph in DOT form.")
@click.option("--cap", type=int, default=None,
              help=f"State cap (default ${ENV_CAP} or {DEFAULT_COLOURING_CAP}).")
@format_option
@out_option
@_exit_codes
def reconfig(graph: str, k: int, dot: str | None, cap: int | None, fmt: str,
             out: str | None) -> None:
    """Component structure of the recolouring graph on k colours."""
    g = read_graph(graph, fmt)
    cap = _positive_cap(cap, "--cap") if cap is not None else default_cap()
    report = reconfiguration_components(g, k, colouring_cap=cap)
    if dot:
        _write_text(dot, reconfiguration_dot(g, k, cap=cap))
    _emit(out, _dump(report.to_json()))


@main.command()
@click.argument("graph")
@click.option("--x", required=True, type=int)
@click.option("--y", required=True, type=int)
@click.option("--certs", default=None,
              help="JSON file with clique_partition and frozen_partition to transport.")
@click.option("--strict-c4/--no-strict-c4", "strict_c4", default=True, show_default=True,
              help="Refuse diamond-middle case-1 edges that could create a square.")
@click.option("--theta-check", is_flag=True,
              help="Confirm with the exact solver that the cover number rose.")
@format_option
@out_option
@_exit_codes
def subdivide(graph: str, x: int, y: int, certs: str | None, strict_c4: bool,
              theta_check: bool, fmt: str, out: str | None) -> None:
    """Subdivide edge xy into a path x-u-v-y, transporting certificates."""
    if certs is None and (theta_check or not strict_c4):
        raise UsageFailure("--theta-check and --no-strict-c4 need --certs")
    g = read_graph(graph, fmt)
    if certs is None:
        h = subdivide_edge(g, x, y)
        _emit(out, _dump({"graph6": encode_graph6(h), "graph": graph_to_json(h)}))
        return
    text = _read_text(certs)
    try:
        data = json.loads(text)
        q = BlockPartition.from_json(data["clique_partition"])
        f = BlockPartition.from_json(data["frozen_partition"])
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageFailure(f"bad certificate file {certs}: {exc}")
    # a request the certificates cannot answer is unusable, not false
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise UsageFailure(f"({x}, {y}) is not an edge")
    _same_order(q, g)
    _same_order(f, g)
    # false certificates fail verification (exit 1), as in check; the library's
    # remaining refusals are of the request (exit 2)
    try:
        require(is_clique_partition(g, q), "q is not a clique partition")
        require(is_frozen_clique_partition(g, f), "f is not a frozen clique partition")
    except ValueError as exc:  # f's blocks are not even cliques
        raise CertificateError(str(exc))
    result = subdivide_with_certificates(g, q, f, x, y, strict_c4=strict_c4)
    if theta_check:
        result = with_theta_check(result, g, q.k)
        require(result.theta_incremented is not False, "cover number did not rise by one")
    payload = {
        "graph6": encode_graph6(result.graph_out),
        "graph": graph_to_json(result.graph_out),
        "clique_partition": result.q_out.to_json(),
        "frozen_partition": result.f_out.to_json(),
        "case_used": result.case_used,
        "c4_preserved": result.c4_preserved,
        "theta_incremented": result.theta_incremented,
    }
    _emit(out, _dump(payload))


def _random_proper(g: Graph, ell: int, rng: random.Random) -> BlockPartition:
    """Proper ell-colouring drawn vertex by vertex, each from its free colours.

    A vertex with no free colour restarts the draw; the result is not uniform.
    """
    for _ in range(10000):
        cols = []
        for v in range(g.n):
            used = {cols[u] for u in g.neighbour_list(v) if u < v}
            free = [c for c in range(ell) if c not in used]
            if not free:
                break
            cols.append(rng.choice(free))
        else:
            return BlockPartition.from_colours(cols, ell)
    raise UsageFailure(f"could not sample a proper {ell}-colouring")


@main.command()
@click.argument("graph")
@click.option("--ell", required=True, type=int, help="Number of colours available.")
@click.option("--start", "start", default=None, help="Start colour line, e.g. '0 1 0'.")
@click.option("--target", "target", default=None, help="Target colour line.")
@click.option("--sample", type=int, default=None,
              help="Instead of endpoints, walk this many seeded random pairs.")
@click.option("--seed", type=int, default=0, show_default=True)
@format_option
@out_option
@_exit_codes
def recolour(graph: str, ell: int, start: str | None, target: str | None,
             sample: int | None, seed: int, fmt: str, out: str | None) -> None:
    """Stepwise recolouring between two colourings, replay-verified."""
    if sample is None and (start is None or target is None):
        raise click.UsageError("provide --start and --target, or --sample N")
    if sample is not None:
        if start is not None or target is not None:
            raise UsageFailure("--sample cannot be combined with --start or --target")
        if sample <= 0:
            raise UsageFailure(f"--sample must be positive, got {sample}")
    g = read_graph(graph, fmt)
    # a budget above any useful palette: n + 1 colours leave each vertex two
    # free ones, and a walk on K1 needs 3
    if ell > max(g.n + 1, 3):
        raise UsageFailure(f"--ell {ell} is above {max(g.n + 1, 3)}, the larger of 3 "
                           "and the graph's order plus one")
    pairs: list[tuple[BlockPartition, BlockPartition]] = []
    if sample is not None:
        rng = random.Random(seed)
        for _ in range(sample):
            pairs.append((_random_proper(g, ell, rng), _random_proper(g, ell, rng)))
    else:
        try:
            beta = BlockPartition.from_colour_line(start, ell)
            gamma = BlockPartition.from_colour_line(target, ell)
        except ValueError as exc:
            raise UsageFailure(f"bad colour line: {exc}")
        pairs.append((beta, gamma))
    sequences = [path_between(g, beta, gamma, ell).to_json() for beta, gamma in pairs]
    payload = sequences[0] if len(sequences) == 1 else {"paths": sequences}
    _emit(out, _dump(payload))


@main.command()
@click.option("--stream", default=None,
              help="graph6 stream file, or '-' for stdin.")
@click.option("--exhaustive", type=int, default=None,
              help="Scan all labelled graphs up to this order instead of a stream.")
@click.option("--gap", type=int, default=1, show_default=True)
@click.option("--max-k", "max_k", type=int, default=None)
@click.option("--two-k2-free", "two_k2_free", default=None,
              type=click.Choice(["graph", "complement"]))
@click.option("--p5-free", "p5_free", default=None,
              type=click.Choice(["graph", "complement"]))
@click.option("--c4-free", "c4_free", default=None,
              type=click.Choice(["graph", "complement"]))
@click.option("--checkpoint", default=None,
              help="Resumable line-index file for long streams.")
@out_option
@_exit_codes
def search(stream: str | None, exhaustive: int | None, gap: int, max_k: int | None,
           two_k2_free: str | None, p5_free: str | None, c4_free: str | None,
           checkpoint: str | None, out: str | None) -> None:
    """Scan graphs for frozen colourings above the chromatic number."""
    if exhaustive is not None and (stream is not None or checkpoint is not None):
        raise UsageFailure("--exhaustive cannot be combined with --stream or --checkpoint")
    if stream is None and exhaustive is None:
        stream = "-"
    spec = PredicateSpec(gap=gap, max_k=max_k, two_k2_free=two_k2_free,
                         p5_free=p5_free, c4_free=c4_free)
    if exhaustive is not None:
        report = exhaustive_small(exhaustive, spec)
    else:
        lines = _read_text(stream).splitlines()
        done = 0
        if checkpoint and Path(checkpoint).exists():
            mark = _read_text(checkpoint).strip() or "0"
            if not mark.isdecimal():  # a line count: no sign, no other text
                raise UsageFailure(f"corrupt checkpoint file {checkpoint}")
            done = int(mark)
        report = scan_stream(lines[done:], spec)
        if checkpoint:
            _write_text(checkpoint, f"{max(done, len(lines))}\n")
    _emit(out, _dump(report.to_json()))


@main.command("regen-fixtures")
@click.option("--dir", "dir_", default="fixtures", show_default=True,
              help="Directory to write fixture files into.")
@out_option
@_exit_codes
def regen_fixtures(dir_: str, out: str | None) -> None:
    """Rebuild every drawing and table fixture deterministically."""
    written = regenerate_fixtures(dir_)
    _emit(out, f"wrote {len(written)} fixture files under {dir_}\n")


if __name__ == "__main__":
    main()
