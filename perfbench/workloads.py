"""The four workloads: set-up, one operation, and its output check.

Each workload holds its seeded inputs, runs one operation by index through
the library (or the in-process CLI), and checks that operation's output with
the benchmark's own code (checks.py). An operation that raises, exits
non-zero, or fails its check counts as failed. A check returns the verdict,
a summary (compared between the traced and the untraced run) and a few
facts (counts the report needs); the output itself is dropped, so memory
does not grow with the number of operations.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path

import checks
import inputs


class OpFailed(Exception):
    """The program answered, but not with success."""


def _rss_bytes() -> int:
    """Current resident set size, from /proc/self/statm."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize()


def summary_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    name = ""
    item = ""  # what items_per_s counts
    # op_tail_ms reports the highest of p50, p90, p99 with at least ten of the
    # ops a run makes beyond it; a run of a few long ops has only the median
    tail_pct = 50.0

    def __init__(self, seed: int, workdir: Path, lib: dict):
        self.seed = seed
        self.workdir = workdir
        self.lib = lib
        self.inputs, self.digest = inputs.build(self.name, seed)
        self.cli = self._cli

    def _cli(self, args: list[str]) -> int:
        try:
            self.lib["cli_main"].main(args=args, prog_name="frozencol", standalone_mode=False)
        except SystemExit as exc:
            return exc.code or 0
        return 0

    def batches(self) -> list[list[int]]:
        """Input indices, in the groups a run may stop between."""
        return [[0]]

    def run_op(self, op: int, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> tuple[bool, object, dict]:
        """(verdict, summary, facts) for one op's output."""
        raise NotImplementedError

    def expected_failure(self, index: int) -> bool:
        return False

    def items(self, facts: dict) -> int:
        return 1

    def extra(self, results: list[dict]) -> dict:
        """Workload-specific figures for the report."""
        return {}


def _search_facts(output: dict) -> dict:
    return {"graphs_scanned": output["graphs_scanned"], "hits": len(output["hits"]),
            "dedup_count": output["dedup_count"], "skipped": output["skipped"]}


class Exhaustive(Workload):
    name = "exhaustive"
    item = "searches"

    def run_op(self, op, index):
        out = self.workdir / f"exhaustive-{op}.json"
        code = self.cli(self.inputs["args"] + ["--out", str(out)])
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return json.loads(out.read_text())

    def check(self, index, output):
        found = []
        ok = True
        for hit in output["hits"]:
            n, rows = checks.decode_graph6(hit["graph6"])
            colours = [int(t) for t in hit["colours"].split()]
            chi = checks.brute_chromatic(n, rows)
            ok &= checks.is_frozen(n, rows, colours, hit["k"]) and chi == hit["chi"]
            found.append([checks.brute_canonical(n, rows), hit["chi"], hit["k"]])
        ok &= sorted(found) == inputs.REFERENCE["exhaustive"]["hits"]
        facts = _search_facts(output)
        # scanned and dropped counts are reported, not checked: isomorph-free
        # generation changes them legitimately
        return ok, [sorted(found), facts], facts

    def extra(self, results):
        done = [r["facts"] for r in results if r["ok"]]
        return {"kept": done[0]["hits"], "graphs_scanned": done[0]["graphs_scanned"],
                "dedup_count": done[0]["dedup_count"]} if done else {}


class Stream(Workload):
    name = "stream"
    item = "graphs"
    tail_pct = 90.0

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        for chunk in self.inputs:
            (workdir / f"chunk-{chunk.index:04d}.g6").write_text(chunk.text)

    def batches(self):
        return [list(range(p, p + inputs.PERIOD))
                for p in range(0, len(self.inputs), inputs.PERIOD)]

    def run_op(self, op, index):
        checkpoint = self.workdir / f"checkpoint-{op}"
        out = self.workdir / f"stream-{op}.json"
        code = self.cli(["search", "--stream", str(self.workdir / f"chunk-{index:04d}.g6"),
                         *inputs.STREAM_ARGS, "--checkpoint", str(checkpoint),
                         "--out", str(out)])
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return json.loads(out.read_text())

    def check(self, index, output):
        chunk = self.inputs[index]
        ok = output["graphs_scanned"] == chunk.valid_lines
        ok &= output["skipped"] == len(chunk.lines) - chunk.valid_lines
        ok &= output["dedup_count"] == chunk.expected_dropped
        kept = []
        for hit in output["hits"]:
            n, rows = checks.decode_graph6(hit["graph6"])
            colours = [int(t) for t in hit["colours"].split()]
            ok &= checks.is_frozen(n, rows, colours, hit["k"])
            kept.append((checks.wl_invariant(n, rows), hit["chi"], hit["k"]))
        ok &= sorted(kept) == [tuple(e) for e in chunk.expected]
        facts = _search_facts(output)
        return ok, [sorted(kept), facts], facts

    def expected_failure(self, index):
        return self.inputs[index].expect_failure

    def items(self, facts):
        return facts["graphs_scanned"]

    def extra(self, results):
        expected = sorted(c.index for c in self.inputs if c.expect_failure)
        failed = sorted({r["index"] for r in results if not r["ok"]})
        return {"expected_failing_chunks": expected, "failed_chunks": failed}


class Reconfig(Workload):
    """One op is one call on each instance: sparse, then dense.

    Pairing the calls keeps every op the same mix, so the dense call's
    enumeration and frozen-state checks weigh the same in every run.
    """

    name = "reconfig"
    item = "states"

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.graphs = [lib["Graph"](*checks.decode_graph6(inst["g6"])) for inst in self.inputs]
        self.bytes_per_state = 0.0

    def run_op(self, op, index):
        before = _rss_bytes() if op == 0 else 0
        reports, seconds = [], []
        for g, inst in zip(self.graphs, self.inputs):
            t0 = time.process_time()
            reports.append(self.lib["reconfiguration_components"](g, inst["k"]))
            seconds.append(time.process_time() - t0)
        if op == 0:  # the high-water mark only says something on the first op
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            states = sum(r.colouring_count for r in reports)
            self.bytes_per_state = max(peak - before, 0) / max(states, 1)
        return reports, seconds

    def check(self, index, output):
        reports, seconds = output
        ok = True
        summary = []
        for inst, report in zip(self.inputs, reports):
            n, rows = checks.decode_graph6(inst["g6"])
            k = inst["k"]
            frozen = []
            for p in report.frozen_colourings:
                colours = [0] * n
                for c, block in enumerate(p.blocks):
                    for v in block:
                        colours[v] = c
                frozen.append(colours)
            ok &= (report.colouring_count == inst["states"]
                   and report.component_count == inst["components"]
                   and len(frozen) == inst["frozen"]
                   and sum(report.component_sizes) == report.colouring_count
                   and all(checks.is_frozen(n, rows, cols, k) for cols in frozen))
            if inst["cycle"]:  # proper k-colourings of a cycle, in closed form
                ok &= report.colouring_count == (k - 1) ** n + (-1) ** n * (k - 1)
            summary.append([report.colouring_count, report.component_count,
                            list(report.component_sizes), summary_digest(sorted(frozen))])
        facts = {"states": sum(r.colouring_count for r in reports),
                 "components": sum(r.component_count for r in reports),
                 "frozen": sum(len(r.frozen_colourings) for r in reports),
                 "seconds": seconds}
        return ok, summary, facts

    def items(self, facts):
        return facts["states"]

    def extra(self, results):
        """States per second of each instance's own calls."""
        done = [r["facts"] for r in results if r["ok"]]
        out = {"bytes_per_state": self.bytes_per_state}
        for i, name in enumerate(("sparse_states_per_s", "dense_states_per_s")):
            busy = sum(f["seconds"][i] for f in done)
            out[name] = len(done) * self.inputs[i]["states"] / busy if busy else 0.0
        return out


class Recolour(Workload):
    """One op walks every endpoint pair of one graph and replays each walk.

    A graph's batch of walks is what a caller waits for; it also makes an op
    long enough (tens of ms) that its tail measures the program rather than
    the machine's scheduling jitter, which dominates 1-ms walks.
    """

    name = "recolour"
    item = "paths"
    tail_pct = 90.0

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.ready = [self._prepare(batch) for batch in self.inputs]
        self.graphs = []

    def _prepare(self, batch: list[dict]) -> list[tuple]:
        make_graph, from_colours = self.lib["Graph"], self.lib["from_colours"]
        out = []
        for entry in batch:
            n, rows = checks.decode_graph6(entry["g6"])
            pairs = [(pair, from_colours(pair["beta"], pair["ell"]),
                      from_colours(pair["gamma"], pair["ell"])) for pair in entry["pairs"]]
            out.append((make_graph(n, rows), n, rows, pairs))
        return out

    def batches(self):
        """Endless: set-up batches first, then new ones made between batches."""
        b = 0
        while True:
            if b < len(self.ready):
                self.graphs = self.ready[b]
            else:
                self.ready = []
                self.graphs = self._prepare(inputs.recolour_batch(self.seed, b))
            yield range(len(self.graphs))
            b += 1

    def run_op(self, op, index):
        """The walks plus the benchmark's replay of each: all count as the op."""
        g, n, rows, pairs = self.graphs[index]
        out = []
        for pair, beta, gamma in pairs:
            walk = self.lib["rename_moves"] if pair["kind"] == "rename" else self.lib["path_between"]
            seq = walk(g, beta, gamma, pair["ell"])
            out.append((seq.moves, checks.replay(n, rows, pair["beta"], seq.moves, pair["ell"])))
        return out

    def check(self, index, output):
        _, n, _, pairs = self.graphs[index]
        ok = True
        for (pair, _, _), (moves, replayed) in zip(pairs, output):
            ok &= (replayed is not None and replayed[0] == pair["gamma"]
                   and replayed[1] <= pair["bound"] and len(moves) <= pair["bound"] * n)
        moves = [len(m) for m, _ in output]
        return ok, [[list(step) for step in m] for m, _ in output], {"moves": moves, "n": n}

    def items(self, facts):
        return len(facts["moves"])

    def extra(self, results):
        done = [r["facts"] for r in results if r["ok"]]
        walks = [(m, f["n"]) for f in done for m in f["moves"]]
        if not walks:
            return {}
        return {"moves_per_vertex": sum(m / n for m, n in walks) / len(walks),
                "moves_per_path": sum(m for m, _ in walks) / len(walks)}


WORKLOADS = {w.name: w for w in (Exhaustive, Stream, Reconfig, Recolour)}
