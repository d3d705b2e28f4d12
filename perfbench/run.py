"""frozencol benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the root of a checkout; the package is imported from ./src. One
single-threaded caller runs one operation at a time (a closed loop) until
--seconds have passed, stopping only between whole batches so every run
measures the same mix. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run first runs the
same workload untraced in a child process, to report the tracing overhead
and to check that tracing changed no output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, summarise
from workloads import WORKLOADS, summary_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_AFTER = 2  # extra set-up repeats timed after the measured loop
LAYERS = ("cli", "search", "graph", "solvers", "reconfig", "partitions", "recolour")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> dict:
    """Import frozencol afresh, as a new process would."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("frozencol", "click")]:
        del sys.modules[name]
    import frozencol.cli
    from frozencol.graph import Graph
    from frozencol.partitions import BlockPartition
    from frozencol.recolour import path_between, rename_moves
    from frozencol.reconfig import reconfiguration_components

    if not Path(frozencol.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported frozencol from {frozencol.cli.__file__}, not from {SRC}")
    return {"cli_main": frozencol.cli.main, "Graph": Graph,
            "from_colours": BlockPartition.from_colours, "path_between": path_between,
            "rename_moves": rename_moves,
            "reconfiguration_components": reconfiguration_components}


def percentile(ascending: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -int(-len(ascending) * pct // 100))
    return ascending[rank - 1]


def set_up(workload_cls, seed: int, workdir: Path, repeats: int):
    """Import and build the inputs `repeats` times; keep the last.

    Returns the workload, the set-up times, and whether every repeat
    produced the same input digest.
    """
    times, digests = [], set()
    for _ in range(repeats):
        t0 = time.process_time()
        workload = workload_cls(seed, workdir, import_library())
        times.append(time.process_time() - t0)
        digests.add(workload.digest)
    return workload, times, len(digests) == 1


def measure(workload, seconds: float, run_op) -> tuple[list[dict], float]:
    """Closed loop over whole batches for `seconds` of wall-clock time.

    The run stops after the batch when one more batch as long as the last
    would pass `seconds`, so a run never overshoots by a whole batch.

    Only run_op is timed, in CPU time of this process: the program is
    single-threaded and CPU-bound, and on a shared host the wall clock also
    counts the time other tenants hold the processor, which varies between
    runs by more than the bounds. Wall time is kept for the report. Each
    output is checked right after, then dropped.
    A failed op is recorded and the run goes on. Also returns the peak RSS
    in MB after the first batch: later batches repeat the same work, and
    the number a run gets through must not move the memory figure.
    """
    # Set-up garbage goes now, and the inputs leave the collector's view, so
    # the benchmark's own objects add nothing to the program's collections.
    gc.collect()
    gc.freeze()
    results = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    number = 0  # batches run so far
    while True:
        for batch in workload.batches():
            batch_start = time.perf_counter()
            for index in batch:
                op = len(results)
                w0 = time.perf_counter()
                t0 = time.process_time()
                try:
                    output = run_op(op, index)
                except Exception as exc:  # a failed op is a result, not a crash
                    latency = time.process_time() - t0
                    wall = time.perf_counter() - w0
                    error = f"{type(exc).__name__}: {exc}"
                    ok, summary, facts = False, error, {}
                    expected = workload.expected_failure(index)
                else:
                    latency = time.process_time() - t0
                    wall = time.perf_counter() - w0
                    error = None
                    ok, summary, facts = workload.check(index, output)
                    expected = False
                    del output
                results.append({"op": op, "batch": number, "index": index,
                                "latency": latency, "wall": wall,
                                "error": error, "ok": ok, "expected": expected,
                                "digest": summary_digest(summary), "facts": facts})
            number += 1
            if not peak_rss_mb:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if (now - start) + (now - batch_start) > seconds:
                return results, peak_rss_mb


def judge(results: list[dict]) -> bool:
    """True iff every op passed its check or failed as expected."""
    return all(r["ok"] or r["expected"] for r in results)


def batch_rate(workload, results: list[dict]) -> float:
    """Median over the run's batches of items done per CPU second.

    Every batch is the same mix, so the median leaves out a batch slowed by
    the machine rather than by the program. Items count only in ops that
    passed; every op's time counts.
    """
    items: dict[int, int] = {}
    busy: dict[int, float] = {}
    for r in results:
        b = r["batch"]
        items[b] = items.get(b, 0) + (workload.items(r["facts"]) if r["ok"] else 0)
        busy[b] = busy.get(b, 0.0) + r["latency"]
    return statistics.median(items[b] / busy[b] for b in busy)


def end_to_end(workload, results: list[dict], peak_rss_mb: float,
               before: list[float]) -> dict:
    """The end-to-end metrics of one run.

    Times are CPU seconds (see measure). Set-up is timed SETUP_REPEATS
    times before the measured loop and
    SETUP_AFTER times after it, and the median is reported: repeats spread
    over the run make it less sensitive to a slow phase of a shared machine.
    """
    latencies = sorted(r["latency"] for r in results)
    _, after, _ = set_up(type(workload), workload.seed, workload.workdir, SETUP_AFTER)
    return {
        "setup_s": statistics.median(before + after),
        "op_p50_ms": percentile(latencies, 50.0) * 1e3,
        "op_tail_ms": percentile(latencies, workload.tail_pct) * 1e3,
        "items_per_s": batch_rate(workload, results),
        "peak_rss_mb": peak_rss_mb,
    }


def report_table(workload, results: list[dict], metrics: dict) -> None:
    """Every end-to-end figure by its workload-specific name, for people."""
    name = workload.name
    n = len(results)
    failed = sum(1 for r in results if not r["ok"])
    beyond = sum(1 for r in results if r["latency"] * 1e3 > metrics["op_tail_ms"])
    extra = workload.extra(results)
    rate = metrics["items_per_s"]
    rows = [
        ("setup_s", metrics["setup_s"], "s"),
        ("exhaustive_s", metrics["op_p50_ms"] / 1e3 if name == "exhaustive" else None, "s"),
        ("graphs_per_s", rate if name == "stream" else None, "1/s"),
        ("sparse_states_per_s", extra.get("sparse_states_per_s"), "1/s"),
        ("dense_states_per_s", extra.get("dense_states_per_s"), "1/s"),
        ("paths_per_s", rate if name == "recolour" else None, "1/s"),
        ("moves_per_vertex", extra.get("moves_per_vertex"), "moves"),
        ("op_p50_ms", metrics["op_p50_ms"], "ms"),
        ("op_tail_ms", metrics["op_tail_ms"], "ms"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("failed_ratio", failed / n, "1"),
    ]
    walls = sorted(r["wall"] for r in results)
    items = sum(workload.items(r["facts"]) for r in results if r["ok"])
    print(f"workload {name}: {n} ops, {failed} failed, {workload.item}/s = items_per_s")
    print("  times are CPU time of the process; wall clock for comparison:"
          f" op p50 {percentile(walls, 50.0) * 1e3:.6g} ms,"
          f" {items / sum(walls):.6g} {workload.item}/s")
    for key, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<20} {shown:>14} {unit}")
    print(f"  op_tail_ms is p{workload.tail_pct:g} of {n} ops, {beyond} beyond it")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    errors = sorted({r["error"] for r in results if r["error"]})
    for error in errors:
        print(f"  failure: {error}")


def child_run(args) -> tuple[dict, dict]:
    """The same workload untraced, in a fresh process; (result, record)."""
    record = OUT_DIR / f"record-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--record", str(record)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"untraced child run failed:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())
    finally:
        record.unlink(missing_ok=True)


def per_layer(workload, results, stats, stats_ok, untraced, traced) -> dict:
    """Per-layer metrics from the spans; see README.md for what each moves."""
    def get(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for name in ("cli.main", "search.scan_stream", "search.exhaustive_small",
                 "graph.decode_graph6", "graph.find_induced", "graph.are_isomorphic",
                 "solvers.chromatic_number", "solvers.independence_number",
                 "solvers.clique_number", "reconfig.find_frozen",
                 "reconfig.reconfiguration_components", "partitions.is_frozen_colouring",
                 "partitions.is_proper_colouring", "partitions.from_colours",
                 "recolour.path_between", "recolour.maximal_first_partition",
                 "recolour.canonical_moves", "recolour.bipartite_canonical_moves",
                 "recolour.rename_moves", "recolour.verify_moves"):
        m[f"{name}.calls"] = get(name)
        m[f"{name}.s"] = get(name, "s")
    m["cli.self_s"] = get("cli.main", "self_s")
    m["search.self_s"] = get("search.scan_stream", "self_s") + get(
        "search.exhaustive_small", "self_s")

    searched = [r["facts"] for r in results if r["ok"] and "graphs_scanned" in r["facts"]]
    scanned = sum(f["graphs_scanned"] for f in searched)
    kept = sum(f["hits"] for f in searched)
    dropped = sum(f["dedup_count"] for f in searched)
    filtered = stats_ok.get("graph.find_induced", {}).get("flag.search", 0)
    passed = scanned - filtered
    m["search.graphs_scanned"] = scanned
    m["search.filtered_out"] = filtered
    m["search.hits"] = kept
    m["search.dedup_dropped"] = dropped
    m["search.skipped"] = sum(f["skipped"] for f in searched)
    m["search.hit_ratio"] = (kept + dropped) / passed if passed else 0.0
    filter_calls = get("graph.find_induced", "calls.search")
    m["graph.find_induced.reject_ratio"] = (
        get("graph.find_induced", "flag.search") / filter_calls if filter_calls else 0.0)
    m["solvers.chromatic_number.self_s"] = get("solvers.chromatic_number", "self_s")
    chi_calls = stats_ok.get("solvers.chromatic_number", {}).get("calls.search", 0)
    m["solvers.chromatic_per_graph"] = chi_calls / passed if passed else 0.0
    frozen_calls = get("reconfig.find_frozen")
    m["reconfig.find_frozen.found_ratio"] = (
        get("reconfig.find_frozen", "flag") / frozen_calls if frozen_calls else 0.0)
    m["reconfig.proper_colour_vectors.s"] = get("reconfig.proper_colour_vectors", "s")
    m["reconfig.states"] = get("reconfig.proper_colour_vectors", "flag")
    m["reconfig.union_s"] = get("reconfig.reconfiguration_components", "self_s")
    m["reconfig.components"] = sum(r["facts"].get("components", 0) for r in results)
    m["reconfig.frozen"] = sum(r["facts"].get("frozen", 0) for r in results)
    m["reconfig.bytes_per_state"] = getattr(workload, "bytes_per_state", 0.0)
    m["recolour.path_between.self_s"] = get("recolour.path_between", "self_s")
    paths = sum(workload.items(r["facts"]) for r in results if r["ok"]) \
        if workload.name == "recolour" else 0
    m["recolour.verify_per_path"] = get("recolour.verify_moves") / paths if paths else 0.0
    extra = workload.extra(results) if paths else {}
    m["recolour.moves_per_path"] = extra.get("moves_per_path", 0.0)
    m["recolour.moves_per_vertex"] = extra.get("moves_per_vertex", 0.0)

    total = sum(r["wall"] for r in results)  # spans are wall-clock
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(s["self_s"] for name, s in stats.items()
                                   if name.split(".")[0] == layer)
    m["self.unattributed_s"] = get("op", "self_s")
    m["self.unattributed_share"] = m["self.unattributed_s"] / total
    for key in untraced:
        m[f"overhead.{key}"] = traced[key] - untraced[key]
    return m


def result(results: list[dict], correct: bool, metrics: dict, kind: str) -> dict:
    """The final JSON line; metric names and units come from BENCHMARK.json."""
    units = declared(kind)
    if set(metrics) != set(units):
        fail(f"{kind} metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")
    return {"correct": bool(correct), "attempted": len(results),
            "failed": sum(1 for r in results if not r["ok"]),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def traced_run(args, workload_cls, workdir: Path) -> dict:
    child, record = child_run(args)
    untraced = {k: v["value"] for k, v in child["metrics"].items()}
    workload, before, same_inputs = set_up(workload_cls, args.seed, workdir, SETUP_REPEATS)
    tracer = Tracer()
    tracer.install(workload.lib)
    workload.cli = tracer.wrap("cli.main", workload.cli)
    op_span = tracer.wrap("op", workload.run_op)

    def run_op(op, index):
        tracer.op = op
        return op_span(op, index)

    results, peak_rss_mb = measure(workload, args.seconds, run_op)
    correct = judge(results) and same_inputs and child["correct"]
    mismatched = [r["op"] for r in results if str(r["op"]) in record["summaries"]
                  and record["summaries"][str(r["op"])] != r["digest"]]
    correct &= not mismatched and record["digest"] == workload.digest
    traced = end_to_end(workload, results, peak_rss_mb, before)
    stats = summarise(tracer)
    stats_ok = summarise(tracer, {r["op"] for r in results if r["ok"]})
    metrics = per_layer(workload, results, stats, stats_ok, untraced, traced)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.tsv.gz"
    spans = tracer.write(trace_file)

    total = sum(r["wall"] for r in results)
    shared = sum(1 for r in results if str(r["op"]) in record["summaries"])
    print(f"traced {workload.name}: {len(results)} ops, {spans} spans -> {trace_file.name}")
    print(f"  outputs equal to the untraced run on {shared} shared ops:"
          f" {'yes' if not mismatched else 'NO, ops ' + str(mismatched[:10])}")
    print("  self time by layer:")
    for layer in LAYERS + ("unattributed",):
        s = metrics[f"self.{layer}_s"]
        print(f"    {layer:<13} {s:10.4f} s {100 * s / total:6.2f} %")
    print("  tracing overhead (traced - untraced):")
    units = declared("end_to_end")
    for key in untraced:
        print(f"    {key:<13} {metrics['overhead.' + key]:+.6g} {units[key]}")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g}")
    return result(results, correct, metrics, "per_layer")


def untraced_run(args, workload_cls, workdir: Path) -> dict:
    workload, before, same_inputs = set_up(workload_cls, args.seed, workdir, SETUP_REPEATS)
    results, peak_rss_mb = measure(workload, args.seconds, workload.run_op)
    correct = judge(results) and same_inputs
    metrics = end_to_end(workload, results, peak_rss_mb, before)
    print(f"inputs sha256 {workload.digest} (workload {workload.name}, seed {args.seed})")
    report_table(workload, results, metrics)
    if args.record:
        Path(args.record).write_text(json.dumps({
            "digest": workload.digest,
            "summaries": {str(r["op"]): r["digest"] for r in results}}))
    return result(results, correct, metrics, "end_to_end")


def run_all(args) -> None:
    """Every workload, each in a fresh process, one after another."""
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            sys.exit(proc.returncode)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "frozencol" / "__init__.py").is_file():
        fail(f"no frozencol sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    if args.all:
        run_all(args)
        return
    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            outcome = traced_run(args, WORKLOADS[args.workload], workdir)
        else:
            outcome = untraced_run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(outcome))


if __name__ == "__main__":
    main()
