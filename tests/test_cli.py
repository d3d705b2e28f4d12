"""End-to-end tests for the command line interface."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from frozencol import reconfig, transform
from frozencol.cli import main
from frozencol.families import me_complement
from frozencol.graph import complement, cycle_graph, decode_graph6, encode_graph6
from frozencol.partitions import (
    BlockPartition,
    is_frozen_clique_partition,
    is_proper_colouring,
)

FIXTURE_ROOT = Path(__file__).resolve().parent.parent / "fixtures"
ME2_LEFT = str(FIXTURE_ROOT / "figures/me2.left.json")
ME2_RIGHT = str(FIXTURE_ROOT / "figures/me2.right.json")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def c5_path(tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text(encode_graph6(cycle_graph(5)) + "\n")
    return str(p)


@pytest.fixture
def c6_path(tmp_path):
    p = tmp_path / "c6.g6"
    p.write_text(encode_graph6(cycle_graph(6)) + "\n")
    return str(p)


# -- family ---------------------------------------------------------------------


def test_family_json_payload(runner):
    result = runner.invoke(main, ["family", "--name", "ME", "--q", "2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["family"] == "ME"
    assert data["param"] == 2
    g = decode_graph6(data["graph6"])
    assert g.n == 10
    frozen = BlockPartition.from_json(data["frozen_partition"])
    assert frozen.k == 5
    assert is_frozen_clique_partition(g, frozen)


def test_family_graph6_output(runner):
    result = runner.invoke(main, ["family", "--name", "ME", "--q", "2",
                                  "--format", "graph6"])
    assert result.exit_code == 0
    assert decode_graph6(result.output.strip()).n == 10


def test_family_dimacs_output(runner):
    result = runner.invoke(main, ["family", "--name", "KE", "--q", "1",
                                  "--format", "dimacs"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "p edge 6 9"


def test_family_star_alias(runner):
    result = runner.invoke(main, ["family", "--name", "ME*", "--q", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["family"] == "ME_STAR"


def test_family_unknown_name_is_usage_error(runner):
    result = runner.invoke(main, ["family", "--name", "NOPE", "--q", "2"])
    assert result.exit_code == 2


def test_family_bad_parameter_is_usage_error(runner):
    result = runner.invoke(main, ["family", "--name", "ME", "--q", "1"])
    assert result.exit_code == 2


def test_family_out_file(runner, tmp_path):
    out = tmp_path / "me2.json"
    result = runner.invoke(main, ["family", "--name", "ME", "--q", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["family"] == "ME"


# -- check ----------------------------------------------------------------------


def test_check_frozen_clique_partition_passes(runner):
    result = runner.invoke(main, ["check", ME2_RIGHT, ME2_RIGHT,
                                  "--frozen", "--clique-partition"])
    assert result.exit_code == 0
    assert result.output.startswith("PASS")


def test_check_clique_blocks_fail_as_colouring(runner):
    result = runner.invoke(main, ["check", ME2_LEFT, ME2_LEFT, "--frozen"])
    assert result.exit_code == 1
    assert result.output.startswith("FAIL")


def test_check_plain_clique_partition_passes(runner):
    result = runner.invoke(main, ["check", ME2_LEFT, ME2_LEFT, "--clique-partition"])
    assert result.exit_code == 0


def test_check_colour_line_partition(runner, c6_path, tmp_path):
    line = tmp_path / "cols.txt"
    line.write_text("0 1 0 1 0 1\n")
    ok = runner.invoke(main, ["check", c6_path, str(line), "--k", "2"])
    assert ok.exit_code == 0
    frozen = runner.invoke(main, ["check", c6_path, str(line), "--k", "3",
                                  "--frozen"])
    assert frozen.exit_code == 1


def test_check_size_mismatch_is_usage_error(runner, c5_path, tmp_path):
    line = tmp_path / "cols.txt"
    line.write_text("0 1 0\n")
    result = runner.invoke(main, ["check", c5_path, str(line), "--k", "2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flags", [[], ["--frozen"], ["--clique-partition"],
                                   ["--frozen", "--clique-partition"]])
def test_check_colour_above_order_is_usage_error(runner, c6_path, tmp_path, flags):
    # without --k the top colour sets the block count: refused before it is allocated
    line = tmp_path / "cols.txt"
    line.write_text("0 1 0 1 0 9999999999999999999\n")
    result = runner.invoke(main, ["check", c6_path, str(line), *flags])
    assert result.exit_code == 2
    assert result.stderr == (f"error: colour 9999999999999999999 in partition {line} "
                             "is above the graph's order 6\n")
    assert "Traceback" not in result.output


def test_check_colour_up_to_order_is_read(runner, c6_path, tmp_path):
    line = tmp_path / "cols.txt"
    line.write_text("0 1 0 1 0 6\n")  # k = 7 blocks, some empty
    result = runner.invoke(main, ["check", c6_path, str(line)])
    assert result.exit_code == 0
    assert result.output == "PASS: proper colouring\n"


def test_check_k_must_match_json_partition(runner, c5_path, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"k": 5, "blocks": [[v] for v in range(5)]}))
    result = runner.invoke(main, ["check", c5_path, str(part), "--k", "3"])
    assert result.exit_code == 2
    assert result.stderr == f"error: --k 3 but partition {part} has k=5\n"
    same = runner.invoke(main, ["check", c5_path, str(part), "--k", "5"])
    assert same.exit_code == 0
    assert same.output == "PASS: proper colouring\n"


HUGE_ID = 9999999999999999999


def test_check_json_vertex_id_above_order_is_usage_error(runner, tmp_path):
    # refused before the id is shifted into a block mask
    c3, part = tmp_path / "c3.g6", tmp_path / "part.json"
    c3.write_text(encode_graph6(cycle_graph(3)) + "\n")
    part.write_text(json.dumps({"k": 2, "blocks": [[0, 1], [HUGE_ID]]}))
    result = runner.invoke(main, ["check", str(c3), str(part)])
    assert result.exit_code == 2
    assert result.stderr == (f"error: cannot parse partition {part}: "
                             "blocks must partition a contiguous range 0..n-1\n")
    assert "Traceback" not in result.output


def test_check_unreadable_graph_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["check", str(tmp_path / "absent.g6"), ME2_LEFT])
    assert result.exit_code == 2


# -- solve ----------------------------------------------------------------------


def test_solve_single_invariant(runner, c5_path):
    result = runner.invoke(main, ["solve", c5_path, "--invariant", "chi"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["chi"] == 3
    g = cycle_graph(5)
    witness = BlockPartition.from_json(data["witness"])
    assert is_proper_colouring(g, witness)


def test_solve_full_report(runner):
    result = runner.invoke(main, ["solve", ME2_RIGHT])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["theta"] == 4
    assert data["c4_free"] is True
    assert data["2k2_free"] is False


# -- reconfig -------------------------------------------------------------------


def test_reconfig_counts_and_frozen_states(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["k"] == 3
    assert data["colouring_count"] == 66
    assert len(data["frozen_colourings"]) == 6
    assert data["component_count"] == 7


def test_reconfig_json_is_byte_identical_to_golden(runner, c6_path):
    golden = Path(__file__).resolve().parent / "golden" / "reconfig.json"
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3"])
    assert result.exit_code == 0
    assert result.output == json.loads(golden.read_text())["cli_reconfig_c6_k3"]


def test_reconfig_dot_export(runner, c5_path, tmp_path):
    dot = tmp_path / "moves.dot"
    result = runner.invoke(main, ["reconfig", c5_path, "--k", "3",
                                  "--dot", str(dot)])
    assert result.exit_code == 0
    text = dot.read_text()
    assert text.startswith("graph")
    assert "--" in text


def test_reconfig_cap_flag(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3", "--cap", "5"])
    assert result.exit_code == 2


def test_reconfig_cap_env_var(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3"],
                           env={"FROZENCOL_CAP": "5"})
    assert result.exit_code == 2


def test_reconfig_cap_flag_beats_env_var(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3", "--cap", "100"],
                           env={"FROZENCOL_CAP": "5"})
    assert result.exit_code == 0


def test_reconfig_bad_cap_env_var(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3"],
                           env={"FROZENCOL_CAP": "many"})
    assert result.exit_code == 2


def test_reconfig_huge_k_exits_two_before_allocating(runner, tmp_path):
    # 10^12 colours on K3: the injective colourings alone pass the default cap
    c3 = tmp_path / "c3.g6"
    c3.write_text(encode_graph6(cycle_graph(3)) + "\n")
    result = runner.invoke(main, ["reconfig", str(c3), "--k", "1000000000000"],
                           env={"FROZENCOL_CAP": None})
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 2
    assert result.stderr == "cap exceeded: more than 20000000 proper colourings\n"


@pytest.mark.parametrize("cap", ["0", "-4"])
def test_reconfig_cap_flag_must_be_positive(runner, c6_path, cap):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "3", "--cap", cap])
    assert result.exit_code == 2
    assert result.stderr == f"error: --cap must be positive, got {cap}\n"


# -- subdivide ------------------------------------------------------------------


def test_subdivide_bare_edge(runner, c5_path):
    result = runner.invoke(main, ["subdivide", c5_path, "--x", "0", "--y", "1"])
    assert result.exit_code == 0
    out = decode_graph6(json.loads(result.output)["graph6"])
    assert out.n == 7
    assert out.edge_count == 7


def test_subdivide_non_edge_is_usage_error(runner, c5_path):
    result = runner.invoke(main, ["subdivide", c5_path, "--x", "0", "--y", "2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flag", ["--theta-check", "--no-strict-c4"])
def test_subdivide_certificate_flags_need_certs(runner, c5_path, flag):
    result = runner.invoke(main, ["subdivide", c5_path, "--x", "0", "--y", "1", flag])
    assert result.exit_code == 2
    assert result.stderr == "error: --theta-check and --no-strict-c4 need --certs\n"


def test_subdivide_with_certificates(runner, tmp_path):
    left = json.loads(Path(ME2_LEFT).read_text())
    right = json.loads(Path(ME2_RIGHT).read_text())
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps({
        "clique_partition": {"k": left["k"], "blocks": left["blocks"]},
        "frozen_partition": {"k": right["k"], "blocks": right["blocks"]},
    }))
    result = runner.invoke(main, ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                                  "--certs", str(certs), "--theta-check"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    g = decode_graph6(data["graph6"])
    assert g.n == 12
    assert data["case_used"] == 1
    assert data["theta_incremented"] is True
    f = BlockPartition.from_json(data["frozen_partition"])
    assert is_frozen_clique_partition(g, f)


def test_subdivide_certs_vertex_id_above_order_is_usage_error(runner, c5_path, tmp_path):
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps({
        "clique_partition": {"k": 2, "blocks": [[0, 1, 2, 3], [HUGE_ID]]},
        "frozen_partition": {"k": 5, "blocks": [[v] for v in range(5)]},
    }))
    result = runner.invoke(main, ["subdivide", c5_path, "--x", "0", "--y", "1",
                                  "--certs", str(certs)])
    assert result.exit_code == 2
    assert result.stderr == (f"error: bad certificate file {certs}: "
                             "blocks must partition a contiguous range 0..n-1\n")
    assert "Traceback" not in result.output


def test_subdivide_rechecks_transported_certificates(runner, tmp_path, monkeypatch):
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps({
        key: {k: json.loads(Path(path).read_text())[k] for k in ("k", "blocks")}
        for key, path in (("clique_partition", ME2_LEFT), ("frozen_partition", ME2_RIGHT))
    }))
    checker = transform.is_frozen_clique_partition
    # the input graph has 10 vertices: only the 12-vertex output is refused
    monkeypatch.setattr(transform, "is_frozen_clique_partition",
                        lambda g, p: g.n == 10 and checker(g, p))
    result = runner.invoke(main, ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                                  "--certs", str(certs)])
    assert result.exit_code == 1
    assert result.stderr == ("verification failed: "
                             "transported f certificate failed verification\n")


# -- recolour -------------------------------------------------------------------


def test_recolour_between_endpoints(runner, c5_path):
    result = runner.invoke(main, ["recolour", c5_path, "--ell", "4",
                                  "--start", "0 1 0 1 2",
                                  "--target", "1 0 1 0 2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ell"] == 4
    assert data["per_vertex_max"] <= 14
    assert data["total"] == len(data["moves"])


def test_recolour_sampled_pairs(runner, c5_path):
    result = runner.invoke(main, ["recolour", c5_path, "--ell", "4",
                                  "--sample", "3", "--seed", "7"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["paths"]) == 3


def test_recolour_sampling_is_seed_deterministic(runner, c5_path):
    args = ["recolour", c5_path, "--ell", "4", "--sample", "2", "--seed", "5"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_recolour_rejects_graphs_outside_algorithm_scope(runner, c6_path):
    # The stepwise algorithm needs a graph with no induced pair of
    # disjoint edges; the six-cycle has one.
    result = runner.invoke(main, ["recolour", c6_path, "--ell", "4",
                                  "--sample", "1", "--seed", "0"])
    assert result.exit_code == 2


def test_recolour_requires_endpoints_or_sample(runner, c5_path):
    result = runner.invoke(main, ["recolour", c5_path, "--ell", "4"])
    assert result.exit_code == 2


@pytest.mark.parametrize("extra, message", [
    (["--sample", "0"], "--sample must be positive, got 0"),
    (["--sample", "-1"], "--sample must be positive, got -1"),
    (["--sample", "1", "--start", "0 1 0 1 2"],
     "--sample cannot be combined with --start or --target"),
    (["--sample", "1", "--start", "0 1 0 1 2", "--target", "1 0 1 0 2"],
     "--sample cannot be combined with --start or --target"),
], ids=["zero", "negative", "start", "start-and-target"])
def test_recolour_bad_sample_is_usage_error(runner, c5_path, extra, message):
    result = runner.invoke(main, ["recolour", c5_path, "--ell", "4", *extra])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_recolour_improper_endpoint_is_usage_error(runner, c5_path):
    result = runner.invoke(main, ["recolour", c5_path, "--ell", "4",
                                  "--start", "0 0 0 0 0",
                                  "--target", "0 1 0 1 2"])
    assert result.exit_code == 2


# -- search ---------------------------------------------------------------------


def test_search_stream_from_stdin(runner):
    stream = encode_graph6(cycle_graph(6)) + "\n" + encode_graph6(cycle_graph(5)) + "\n"
    result = runner.invoke(main, ["search", "--stream", "-"], input=stream)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["graphs_scanned"] == 2
    assert len(data["hits"]) == 1
    assert data["hits"][0]["chi"] == 2
    assert data["hits"][0]["k"] == 3


def test_search_exhaustive_small(runner):
    result = runner.invoke(main, ["search", "--exhaustive", "3"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["graphs_scanned"] == 11
    assert data["hits"] == []


def test_search_exhaustive_cap(runner):
    result = runner.invoke(main, ["search", "--exhaustive", "9"])
    assert result.exit_code == 2


def test_search_checkpoint_resumes(runner, tmp_path):
    stream = tmp_path / "stream.g6"
    stream.write_text(encode_graph6(cycle_graph(6)) + "\n"
                      + encode_graph6(cycle_graph(5)) + "\n")
    mark = tmp_path / "mark.txt"
    first = runner.invoke(main, ["search", "--stream", str(stream),
                                 "--checkpoint", str(mark)])
    assert first.exit_code == 0
    assert json.loads(first.output)["graphs_scanned"] == 2
    assert mark.read_text().strip() == "2"
    second = runner.invoke(main, ["search", "--stream", str(stream),
                                  "--checkpoint", str(mark)])
    assert second.exit_code == 0
    assert json.loads(second.output)["graphs_scanned"] == 0


def test_search_negative_checkpoint_is_corrupt(runner, tmp_path):
    stream = tmp_path / "stream.g6"
    stream.write_text(encode_graph6(cycle_graph(6)) + "\n"
                      + encode_graph6(cycle_graph(5)) + "\n")
    mark = tmp_path / "mark.txt"
    mark.write_text("-2\n")
    result = runner.invoke(main, ["search", "--stream", str(stream),
                                  "--checkpoint", str(mark)])
    assert result.exit_code == 2
    assert result.stderr == f"error: corrupt checkpoint file {mark}\n"
    assert mark.read_text() == "-2\n"


def test_search_filter_side(runner):
    line = encode_graph6(cycle_graph(6)) + "\n"
    dropped = runner.invoke(main, ["search", "--stream", "-",
                                   "--two-k2-free", "graph"], input=line)
    assert json.loads(dropped.output)["hits"] == []
    kept = runner.invoke(main, ["search", "--stream", "-",
                                "--two-k2-free", "complement"], input=line)
    assert len(json.loads(kept.output)["hits"]) == 1


# -- regen-fixtures and plumbing ------------------------------------------------


def test_regen_fixtures_writes_all_files(runner, tmp_path):
    result = runner.invoke(main, ["regen-fixtures", "--dir", str(tmp_path / "fx")])
    assert result.exit_code == 0
    written = sorted((tmp_path / "fx").rglob("*.json"))
    assert len(written) == 26


def test_unknown_subcommand_exits_two(runner):
    result = runner.invoke(main, ["bogus"])
    assert result.exit_code == 2


def test_certificate_file_that_is_not_json_exits_two(runner, c5_path, tmp_path):
    certs = tmp_path / "certs.json"
    certs.write_text("not json\n")
    result = runner.invoke(main, ["subdivide", c5_path, "--x", "0", "--y", "1",
                                  "--certs", str(certs)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_out_into_missing_directory_exits_two(runner, c5_path, tmp_path):
    result = runner.invoke(main, ["solve", c5_path, "--invariant", "chi",
                                  "--out", str(tmp_path / "missing" / "chi.json")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_dot_into_missing_directory_exits_two(runner, c5_path, tmp_path):
    result = runner.invoke(main, ["reconfig", c5_path, "--k", "3",
                                  "--dot", str(tmp_path / "missing" / "moves.dot")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_checkpoint_into_missing_directory_exits_two(runner, tmp_path):
    line = encode_graph6(cycle_graph(6)) + "\n"
    result = runner.invoke(main, ["search", "--stream", "-", "--checkpoint",
                                  str(tmp_path / "missing" / "mark.txt")], input=line)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_verification_failure_exits_one(runner, c6_path, monkeypatch):
    monkeypatch.setattr(reconfig, "is_frozen_colouring", lambda g, p: False)
    failed = runner.invoke(main, ["reconfig", c6_path, "--k", "3"])
    assert failed.exit_code == 1
    assert failed.stderr.startswith("verification failed:")


@pytest.mark.parametrize("sub", ["family", "solve", "reconfig", "subdivide", "recolour"])
def test_verify_flags_are_gone(runner, sub):
    for flag in ("--verify", "--no-verify"):
        result = runner.invoke(main, [sub, flag])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and flag in result.stderr


def test_solver_order_limit_exits_two(runner, tmp_path):
    c41 = tmp_path / "c41.g6"
    c41.write_text(encode_graph6(cycle_graph(41)) + "\n")
    result = runner.invoke(main, ["solve", str(c41), "--invariant", "chi"])
    assert result.exit_code == 2
    assert result.stderr == "error: graph order 41 exceeds exactness bound 40\n"


def test_reconfig_negative_k_exits_two(runner, c6_path):
    result = runner.invoke(main, ["reconfig", c6_path, "--k", "-1"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def test_search_dedups_hits_above_order_twenty(runner):
    # two same-k hits of order 22: deduplication keeps one of them
    line = encode_graph6(complement(me_complement(5).graph)) + "\n"
    result = runner.invoke(main, ["search", "--stream", "-", "--max-k", "11"],
                           input=line * 2)
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert [(h["chi"], h["k"]) for h in report["hits"]] == [(9, 11)]
    assert report["dedup_count"] == 1


@pytest.mark.parametrize("extra", [["--stream", "missing.g6"], ["--checkpoint", "ck.txt"]])
def test_search_exhaustive_rejects_stream_and_checkpoint(runner, tmp_path, extra):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, ["search", "--exhaustive", "3", *extra])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert not Path("ck.txt").exists()


# -- golden surface -------------------------------------------------------------
#
# Every subcommand's exit-0, exit-1 and exit-2 paths, every --help text, and
# the files the CLI writes, compared byte for byte with tests/golden/cli.json.
# Exit-1 paths that correct code never reaches are forced by replacing one
# checker, where the module that runs the check binds it, with a stub that
# reports failure.
# To recapture from a checkout whose output is known good, write
# json.dumps(_cli_surface(<empty dir>), indent=1, sort_keys=True) + "\n".

GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli.json"
SUBCOMMANDS = ("family", "check", "solve", "reconfig", "subdivide", "recolour",
               "search", "regen-fixtures")


def _false(*args):
    return False


def _failed_replay(g, seq):
    return SimpleNamespace(valid=False, failure_index=0, end=None)


def _theta_not_raised(result, h, k):
    return dataclasses.replace(result, theta_incremented=False)


def _cli_cases(tmp: Path) -> list[tuple]:
    """(name, argv, stdin, env, patches) for every golden invocation."""
    c5, c6 = tmp / "c5.g6", tmp / "c6.g6"
    c5.write_text(encode_graph6(cycle_graph(5)) + "\n")
    c6.write_text(encode_graph6(cycle_graph(6)) + "\n")
    (tmp / "bad.g6").write_text("{not a graph\n")
    (tmp / "c6-2col.txt").write_text("0 1 0 1 0 1\n")
    (tmp / "c6-flat.txt").write_text("0 0 0 0 0 0\n")
    (tmp / "short.txt").write_text("0 1 0\n")
    (tmp / "junk.txt").write_text("0 x 1\n")
    (tmp / "c5-edges.txt").write_text("0 0 1 1 2\n")
    left = json.loads(Path(ME2_LEFT).read_text())
    right = json.loads(Path(ME2_RIGHT).read_text())
    q = {"k": left["k"], "blocks": left["blocks"]}
    f = {"k": right["k"], "blocks": right["blocks"]}
    (tmp / "certs.json").write_text(json.dumps({"clique_partition": q,
                                                "frozen_partition": f}))
    singletons = {"k": 10, "blocks": [[v] for v in range(10)]}
    (tmp / "unfrozen.json").write_text(json.dumps({"clique_partition": q,
                                                   "frozen_partition": singletons}))
    (tmp / "nocerts.json").write_text(json.dumps({"clique_partition": q}))
    stream = "".join(encode_graph6(cycle_graph(n)) + "\n" for n in (4, 5, 6, 7))
    (tmp / "stream.g6").write_text(stream + "?bogus\n")
    (tmp / "corrupt.txt").write_text("many\n")
    s, c5s, c6s = str(tmp / "stream.g6"), str(c5), str(c6)
    me = ["family", "--name", "ME", "--q", "2"]
    chain = ["family", "--name", "CHAIN", "--q", "6"]
    h4 = ["family", "--name", "H", "--q", "4"]
    cases = [("help", ["--help"], None, {}, {})]
    cases += [(f"{sub}-help", [sub, "--help"], None, {}, {}) for sub in SUBCOMMANDS]
    cases += [
        ("bogus", ["bogus"], None, {}, {}),
        ("family-json", me, None, {}, {}),
        ("family-graph6", me + ["--format", "graph6"], None, {}, {}),
        ("family-dimacs", ["family", "--name", "KE", "--q", "1", "--format", "dimacs"],
         None, {}, {}),
        ("family-star", ["family", "--name", "ME*", "--q", "2"], None, {}, {}),
        ("family-chain-json", chain, None, {}, {}),
        ("family-chain-graph6", chain + ["--format", "graph6"], None, {}, {}),
        ("family-h-json", h4, None, {}, {}),
        ("family-h-graph6", h4 + ["--format", "graph6"], None, {}, {}),
        ("family-out", me + ["--out", str(tmp / "me2.json")], None, {}, {}),
        ("family-unknown", ["family", "--name", "NOPE", "--q", "2"], None, {}, {}),
        ("family-bad-q", ["family", "--name", "ME", "--q", "1"], None, {}, {}),
        ("family-no-q", ["family", "--name", "ME"], None, {}, {}),
        ("family-canonical-fails", me, None, {},
         {"families.is_clique_partition": _false}),
        ("family-frozen-fails", me, None, {},
         {"families.is_frozen_clique_partition": _false}),
        ("check-frozen-clique", ["check", ME2_RIGHT, ME2_RIGHT, "--frozen",
                                 "--clique-partition"], None, {}, {}),
        ("check-clique", ["check", ME2_LEFT, ME2_LEFT, "--clique-partition"],
         None, {}, {}),
        ("check-not-frozen-clique", ["check", c5s, str(tmp / "c5-edges.txt"),
                                     "--frozen", "--clique-partition"], None, {}, {}),
        ("check-clique-as-colouring", ["check", ME2_LEFT, ME2_LEFT, "--frozen"],
         None, {}, {}),
        ("check-colour-line", ["check", c6s, str(tmp / "c6-2col.txt"), "--k", "2"],
         None, {}, {}),
        ("check-not-frozen", ["check", c6s, str(tmp / "c6-2col.txt"), "--k", "3",
                              "--frozen"], None, {}, {}),
        ("check-improper", ["check", c6s, str(tmp / "c6-flat.txt")], None, {}, {}),
        ("check-not-clique", ["check", c6s, str(tmp / "c6-2col.txt"),
                              "--clique-partition"], None, {}, {}),
        ("check-frozen-not-clique", ["check", c6s, str(tmp / "c6-2col.txt"),
                                     "--frozen", "--clique-partition"], None, {}, {}),
        ("check-size-mismatch", ["check", c5s, str(tmp / "short.txt"), "--k", "2"],
         None, {}, {}),
        ("check-absent-graph", ["check", str(tmp / "absent.g6"), ME2_LEFT],
         None, {}, {}),
        ("check-bad-graph", ["check", str(tmp / "bad.g6"), ME2_LEFT], None, {}, {}),
        ("check-bad-partition", ["check", c6s, str(tmp / "junk.txt")], None, {}, {}),
        ("solve-all", ["solve", ME2_RIGHT], None, {}, {}),
        ("solve-chi", ["solve", c5s, "--invariant", "chi"], None, {}, {}),
        ("solve-theta", ["solve", c5s, "--invariant", "theta"], None, {}, {}),
        ("solve-alpha", ["solve", c5s, "--invariant", "alpha"], None, {}, {}),
        ("solve-omega-stdin", ["solve", "-", "--invariant", "omega"],
         encode_graph6(cycle_graph(7)) + "\n", {}, {}),
        ("solve-chi-fails", ["solve", c5s, "--invariant", "chi"], None, {},
         {"solvers.is_proper_colouring": _false}),
        ("solve-theta-fails", ["solve", c5s, "--invariant", "theta"], None, {},
         {"solvers.is_proper_colouring": _false}),
        ("solve-bad-invariant", ["solve", c5s, "--invariant", "chrom"], None, {}, {}),
        ("solve-bad-graph", ["solve", str(tmp / "bad.g6"), "--format", "graph6"],
         None, {}, {}),
        ("reconfig", ["reconfig", c6s, "--k", "3"], None, {}, {}),
        ("reconfig-dot", ["reconfig", c5s, "--k", "3", "--dot", str(tmp / "c5.dot")],
         None, {}, {}),
        ("reconfig-fails", ["reconfig", c6s, "--k", "3"], None, {},
         {"reconfig.is_frozen_colouring": _false}),
        ("reconfig-cap", ["reconfig", c6s, "--k", "3", "--cap", "5"], None, {}, {}),
        ("reconfig-cap-env", ["reconfig", c6s, "--k", "3"], None,
         {"FROZENCOL_CAP": "5"}, {}),
        ("reconfig-cap-beats-env", ["reconfig", c6s, "--k", "3", "--cap", "100"],
         None, {"FROZENCOL_CAP": "5"}, {}),
        ("reconfig-bad-env", ["reconfig", c6s, "--k", "3"], None,
         {"FROZENCOL_CAP": "many"}, {}),
        ("reconfig-zero-env", ["reconfig", c6s, "--k", "3"], None,
         {"FROZENCOL_CAP": "0"}, {}),
        ("subdivide", ["subdivide", c5s, "--x", "0", "--y", "1"], None, {}, {}),
        ("subdivide-certs", ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                             "--certs", str(tmp / "certs.json"), "--theta-check"],
         None, {}, {}),
        ("subdivide-theta-fails", ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                                   "--certs", str(tmp / "certs.json"), "--theta-check"],
         None, {}, {"cli.with_theta_check": _theta_not_raised}),
        ("subdivide-unfrozen-certs", ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                                      "--certs", str(tmp / "unfrozen.json")],
         None, {}, {}),
        ("subdivide-missing-cert", ["subdivide", ME2_RIGHT, "--x", "7", "--y", "8",
                                    "--certs", str(tmp / "nocerts.json")], None, {}, {}),
        ("subdivide-non-edge", ["subdivide", c5s, "--x", "0", "--y", "2"],
         None, {}, {}),
        ("recolour", ["recolour", c5s, "--ell", "4", "--start", "0 1 0 1 2",
                      "--target", "1 0 1 0 2"], None, {}, {}),
        ("recolour-sample", ["recolour", c5s, "--ell", "4", "--sample", "3",
                             "--seed", "7"], None, {}, {}),
        ("recolour-fails", ["recolour", c5s, "--ell", "4", "--sample", "1"], None, {},
         {"recolour.verify_moves": _failed_replay}),
        ("recolour-out-of-scope", ["recolour", c6s, "--ell", "4", "--sample", "1"],
         None, {}, {}),
        ("recolour-no-endpoints", ["recolour", c5s, "--ell", "4"], None, {}, {}),
        ("recolour-improper", ["recolour", c5s, "--ell", "4", "--start", "0 0 0 0 0",
                               "--target", "0 1 0 1 2"], None, {}, {}),
        ("recolour-bad-line", ["recolour", c5s, "--ell", "4", "--start", "0 x",
                               "--target", "0 1 0 1 2"], None, {}, {}),
        ("search-stdin", ["search"], stream, {}, {}),
        ("search-stream", ["search", "--stream", s, "--max-k", "4"], None, {}, {}),
        ("search-filter", ["search", "--stream", s, "--two-k2-free", "complement",
                           "--c4-free", "graph", "--p5-free", "complement"],
         None, {}, {}),
        ("search-checkpoint-1", ["search", "--stream", s, "--checkpoint",
                                 str(tmp / "mark.txt")], None, {}, {}),
        ("search-checkpoint-2", ["search", "--stream", s, "--checkpoint",
                                 str(tmp / "mark.txt")], None, {}, {}),
        ("search-corrupt-checkpoint", ["search", "--stream", s, "--checkpoint",
                                       str(tmp / "corrupt.txt")], None, {}, {}),
        ("search-exhaustive", ["search", "--exhaustive", "3"], None, {}, {}),
        ("search-exhaustive-cap", ["search", "--exhaustive", "9"], None, {}, {}),
        ("search-bad-gap", ["search", "--stream", s, "--gap", "0"], None, {}, {}),
        ("search-absent-stream", ["search", "--stream", str(tmp / "absent.g6")],
         None, {}, {}),
        ("regen-fixtures", ["regen-fixtures", "--dir", str(tmp / "fx")], None, {}, {}),
    ]
    return cases


def _cli_surface(tmp: Path) -> dict:
    """Run every golden case; return its outputs with temporary paths masked."""
    runner = CliRunner()

    def mask(text: str) -> str:
        return text.replace(str(tmp), "<tmp>").replace(str(FIXTURE_ROOT), "<fixtures>")

    surface = {}
    for name, argv, stdin, env, patches in _cli_cases(tmp):
        with pytest.MonkeyPatch.context() as mp:
            for target, stub in patches.items():
                mp.setattr(f"frozencol.{target}", stub)
            result = runner.invoke(main, argv, input=stdin,
                                   env={"FROZENCOL_CAP": None, **env},
                                   terminal_width=80)
        surface[name] = {"exit_code": result.exit_code,
                         "stdout": mask(result.stdout), "stderr": mask(result.stderr)}
        if name.startswith("search-checkpoint"):
            surface[name]["checkpoint"] = (tmp / "mark.txt").read_text()
    surface["reconfig-dot"]["dot"] = (tmp / "c5.dot").read_text()
    surface["family-out"]["file"] = (tmp / "me2.json").read_text()
    return surface


def test_cli_surface_matches_golden(tmp_path):
    golden = json.loads(GOLDEN_CLI.read_text())
    surface = _cli_surface(tmp_path)
    assert sorted(surface) == sorted(golden)
    for name in golden:
        assert surface[name] == golden[name], name
