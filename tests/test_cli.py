import csv
import json
import pathlib
import subprocess
import sys

import pytest

from torusroute import (RoutingGraph, load_report, load_table, load_topology,
                        make_torus, table_to_text, unique_route_stats)
from torusroute import algorithms, cli
from torusroute.cli import main, prepare, run_sweep

from witnesses import make_route, table_of


def write_topo(tmp_path, text, name="t.topo"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_generate_and_verify_round_trip(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = str(tmp_path / "grid.table")
    assert main(["generate", topo, "--algo", "bfs", "--out", out]) == 0
    report = json.loads((tmp_path / "grid.table.report.json").read_text())
    assert report["routes"] == 72 and report["algo"] == "bfs"
    table = load_table(out, load_topology(topo))
    assert report["sigma"] == {"4": load_report(table).sigma[4]}
    capsys.readouterr()
    assert main(["verify", topo, out]) == 0
    shown = capsys.readouterr().out
    assert "completeness: pass" in shown
    assert "deadlock-freedom: pass" in shown


def test_generate_32_node_system(tmp_path):
    topo = write_topo(tmp_path, "dims: 4 2 2 2\n")
    out = str(tmp_path / "big.table")
    assert main(["generate", topo, "--algo", "sssp", "--out", out]) == 0
    report = json.loads((tmp_path / "big.table.report.json").read_text())
    assert report["routes"] == 992 and report["max_d"] == 5
    assert main(["verify", topo, out]) == 0


def test_generate_two_nodes_report(tmp_path):
    topo = write_topo(tmp_path, "dims: 2\n")
    out = str(tmp_path / "pair.table")
    assert main(["generate", topo, "--algo", "bfs", "--out", out]) == 0
    report = json.loads((tmp_path / "pair.table.report.json").read_text())
    assert report["pi"] == 1 and report["max_d"] == 1


def test_verify_detects_order_violation(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = str(tmp_path / "grid.table")
    main(["generate", topo, "--algo", "sssp", "--out", out])
    lines = open(out).read().splitlines()
    target = "(0,0) -> (1,1) : +X +Y | nodes: (0,0) (1,0) (1,1)"
    assert target in lines
    lines[lines.index(target)] = (
        "(0,0) -> (1,1) : +Y +X | nodes: (0,0) (0,1) (1,1)")
    (tmp_path / "tampered.table").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", topo, str(tmp_path / "tampered.table")]) == 1
    assert "direction order" in capsys.readouterr().out


def test_verify_detects_missing_pair(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 2 2\n")
    out = str(tmp_path / "m.table")
    main(["generate", topo, "--algo", "bfs", "--out", out])
    lines = open(out).read().splitlines()
    (tmp_path / "short.table").write_text("\n".join(lines[1:]) + "\n")
    capsys.readouterr()
    assert main(["verify", topo, str(tmp_path / "short.table")]) == 1
    assert "completeness: FAIL" in capsys.readouterr().out


def test_missing_topology_file_is_io_error(tmp_path):
    assert main(["generate", str(tmp_path / "nope.topo")]) == 2


def test_bad_table_file_is_io_error(tmp_path):
    topo = write_topo(tmp_path, "dims: 2\n")
    bad = tmp_path / "bad.table"
    bad.write_text("(0) -> (1) : +Q | nodes: (0) (1)\n")
    assert main(["verify", topo, str(bad)]) == 2


@pytest.mark.parametrize("kind", ["topology", "table"])
def test_undecodable_file_is_io_error(tmp_path, kind):
    """A topology or table file that is not UTF-8 is a parse error, exit 2,
    whose one line names the offset of the first byte that is not."""
    good = (pathlib.Path(__file__).parent / "data"
            / "grid33_bfs.table").read_bytes()
    topo, table = tmp_path / "t.topo", tmp_path / "t.table"
    topo.write_bytes(b"dims: 3 3\n" + (b"# \xff\n" if kind == "topology"
                                       else b""))
    table.write_bytes(good + (b"\xff\xfe bad\n" if kind == "table" else b""))
    bad, at = (topo, 12) if kind == "topology" else (table, len(good))
    proc = subprocess.run(
        [sys.executable, "-m", "torusroute", "verify", str(topo), str(table)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {bad}: invalid UTF-8 at byte {at}\n"


def test_verify_reports_route_to_failed_node(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\nfail-node: 2 2\n")
    out = tmp_path / "f.table"
    assert main(["generate", topo, "--algo", "bfs", "--out", str(out)]) == 0
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("(0,0) -> (2,2) : +X | nodes: (0,0) (2,2)\n")
    capsys.readouterr()
    assert main(["verify", topo, str(out)]) == 1
    shown = capsys.readouterr().out.splitlines()
    i = shown.index("validity: FAIL (1)")
    assert shown[i + 1] == "  (0,0)->(2,2): endpoint (2,2) is a failed node"


def test_one_live_node_is_io_error(tmp_path):
    """One live node, or none, leaves no pair: every command refuses it."""
    table = tmp_path / "empty.table"
    table.write_text("")
    for failed, live in (("0 1", "one live node"), ("0 1 2", "no live node")):
        topo = write_topo(tmp_path, "dims: 3\n" + "".join(
            f"fail-node: {u}\n" for u in failed.split()))
        for argv in (["generate", topo], ["verify", topo, str(table)],
                     ["compare", topo]):
            proc = subprocess.run(
                [sys.executable, "-m", "torusroute", *argv],
                capture_output=True, text=True)
            assert proc.returncode == 2, argv
            assert proc.stderr == (
                f"error: {topo}: {live} leaves no pair to route\n"), argv


def test_unroutable_exit_code(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 2\nfail-link: 0 +X\n")
    assert main(["generate", topo, "--algo", "bfs"]) == 3
    assert "(0) -> (1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "{topo}", "--algo", "sssp", "--population", "1"],
    ["compare", "{topo}", "--mutation", "2"],
    ["compare", "{topo}", "--runs", "0"],
    ["sweep", "--n", "2", "--min-size", "5", "--max-size", "3"],
    ["generate", "{topo}", "--out", "{tmp}/missing/x.table"],
    ["compare", "{topo}", "--out", "{tmp}/missing/x.csv"],
    ["sweep", "--n", "2", "--min-size", "1", "--max-size", "2"],
    ["generate", "{topo}", "--algo", "genetic", "--epsilon", "-0.5"],
    ["compare", "{topo}", "--epsilon", "1"],
    ["generate", "{topo}", "--algo", "genetic", "--stagnation", "-3"],
    ["compare", "{topo}", "--stagnation", "0"],
])
def test_bad_flag_or_unwritable_output_is_io_error(tmp_path, argv):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    argv = [a.format(topo=topo, tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "torusroute", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv", [
    ["generate", "{topo}", "--algo", "genetic", "--out", "{out}"],
    ["compare", "{topo}", "--algos", "genetic", "--out", "{out}"],
    ["sweep", "--n", "2", "--max-size", "3", "--samples", "2",
     "--algos", "bfs", "--out", "{out}"],
])
def test_negative_seed_is_io_error(tmp_path, capsys, argv):
    """numpy cannot seed a generator from a negative integer: each command
    that takes ``--seed`` refuses one with one error line, exit 2 and no
    output file."""
    topo = write_topo(tmp_path, "dims: 4 2\n")
    out = tmp_path / "out"
    argv = [a.format(topo=topo, out=out) for a in argv]
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


def test_node_ceiling_guard(tmp_path):
    topo = write_topo(tmp_path, "dims: 8 8 4 3\n")  # 768 nodes
    assert main(["generate", topo, "--algo", "bfs"]) == 2


def test_sweep_refuses_sizes_over_the_ceiling(capsys, monkeypatch):
    """sweep refuses before drawing a sample when ``--max-size`` to the
    ``--n``-th power exceeds the node ceiling; at the ceiling it runs."""
    drawn = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: drawn.append(args)
                        or [])
    assert main(["sweep", "--n", "4"]) == 2  # --max-size 8: 4,096 nodes
    assert capsys.readouterr().err == (
        "error: --max-size 8 allows 4096 nodes in 4 dimensions, over the "
        "desk-scale ceiling of 512\n")
    assert not drawn
    assert main(["sweep", "--n", "3", "--max-size", "8"]) == 0  # 512 nodes
    assert len(drawn) == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sweep_refuses_samples_below_one(tmp_path, capsys, monkeypatch,
                                         samples):
    """A sweep of no sample is refused before any is drawn: one error line,
    exit 2 and no CSV."""
    drawn = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: drawn.append(args)
                        or [])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--samples", samples,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --samples must be >= 1, got {samples}\n")
    assert not drawn and not out.exists()


def test_run_sweep_propagates_a_generator_failure(monkeypatch):
    """A failing sample is a defect to report, not a row to drop."""
    def fail(*args):
        raise RuntimeError("generator defect")

    monkeypatch.setattr(cli, "generate_table", fail)
    with pytest.raises(RuntimeError, match="generator defect"):
        run_sweep(2, 2, 3, 2, seed=0, algos=["bfs"])


def test_compare_csv(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", topo, "--algos", "bfs", "sssp",
                 "--patterns", "alltoall", "neighbor", "--runs", "2",
                 "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    by_key = {(r["algo"], r["pattern"]): r for r in rows}
    assert by_key[("bfs", "neighbor")]["pi"] == "1"
    assert by_key[("sssp", "neighbor")]["pi"] == "1"
    assert float(by_key[("bfs", "alltoall")]["wall_time_s"]) >= 0


def test_compare_pattern_on_failed_node_is_io_error(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 4 4 2\nfail-node: 0 0 1\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", topo, "--algos", "bfs",
                 "--patterns", "alltoall", "tornado", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: tornado pattern references failed node (0,0,1)\n")
    assert not out.exists()


def test_sweep_shape_and_determinism(tmp_path):
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    args = ["sweep", "--n", "2", "--min-size", "2", "--max-size", "4",
            "--samples", "6", "--seed", "11", "--algos", "bfs", "sssp"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    rows1 = list(csv.DictReader(open(out1)))
    rows2 = list(csv.DictReader(open(out2)))
    assert len(rows1) == 12  # one row per sample per algorithm
    stable = lambda rows: [  # noqa: E731
        {k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]
    assert stable(rows1) == stable(rows2)
    for row in rows1:
        if row["algo"] == "bfs":
            assert row["pi_ratio_vs_bfs"] == "1.000000"


def test_run_sweep_rows_have_unique_fraction():
    rows = run_sweep(2, 2, 3, 3, seed=5, algos=["bfs", "sssp"])
    assert all(0.0 <= row["unique_fraction"] <= 1.0 for row in rows)
    assert all(row["max_d"] >= 1 for row in rows)


@pytest.mark.parametrize("algos", [["bfs", "sssp"], ["bfs"]])
def test_sweep_runs_stage_1_once_per_sample(monkeypatch, algos):
    """Every row's unique fraction is ``unique_route_stats`` of its torus,
    and stage 1 (``_pair_stats``) runs once per sample: sssp's own when
    sssp runs, ``unique_route_stats``' otherwise."""
    real, calls = algorithms._pair_stats, []

    def counted(rg, *orbits):
        calls.append(rg)
        return real(rg, *orbits)

    with monkeypatch.context() as mp:
        mp.setattr(algorithms, "_pair_stats", counted)
        rows = run_sweep(3, 2, 3, 4, seed=7, algos=algos)
    assert len(calls) == 4 and len(rows) == 4 * len(algos)
    for row in rows:
        t = make_torus([int(d) for d in row["dims"].split("x")])
        unique, total = unique_route_stats(prepare(t)[0])
        assert row["unique_fraction"] == unique / total


def test_run_sweep_same_seed_same_rows():
    first = run_sweep(2, 2, 3, 4, seed=9, algos=["bfs"])
    second = run_sweep(2, 2, 3, 4, seed=9, algos=["bfs"])
    strip = lambda rows: [  # noqa: E731
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert strip(first) == strip(second)


def test_generate_genetic_flags(tmp_path):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = str(tmp_path / "ga.table")
    assert main(["generate", topo, "--algo", "genetic", "--seed", "3",
                 "--population", "12", "--stagnation", "4",
                 "--out", out]) == 0
    assert main(["verify", topo, out]) == 0


def test_generate_genetic_on_4x4x4(tmp_path):
    """A population's channel counts outgrow int16 link ids on 4x4x4."""
    topo = write_topo(tmp_path, "dims: 4 4 4\n")
    out = str(tmp_path / "ga.table")
    assert main(["generate", topo, "--algo", "genetic", "--stagnation", "1",
                 "--out", out]) == 0
    assert main(["verify", topo, out]) == 0


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "torusroute", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_verify_rejects_a_pair_given_twice(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = tmp_path / "grid.table"
    assert main(["generate", topo, "--algo", "bfs", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    valid = next(i for i, line in enumerate(lines)
                 if line.startswith("(0,0) -> (1,1) :"))
    lines.insert(valid, "(0,0) -> (1,1) : +Y +X | nodes: (0,0) (0,1) (1,1)")
    twice = tmp_path / "twice.table"
    twice.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", topo, str(twice)]) == 2
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err == (
        f"error: {twice}: line {valid + 2}: pair (0,0)->(1,1) already given "
        f"on line {valid + 1}\n")


def test_verify_refuses_two_first_steps(tmp_path, capsys):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    out = tmp_path / "grid.table"
    assert main(["generate", topo, "--algo", "bfs", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("(0,0) -> (1,1) :"))
    lines[at] = "(0,0) -> (1,1) : FS+Y FS+X +Y | nodes: (0,0) (1,0) (1,1)"
    twice = tmp_path / "twice.table"
    twice.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", topo, str(twice)]) == 2
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err == (
        f"error: {twice}: line {at + 1}: more than one first step\n")


def test_verify_reports_dead_channel_route_once(tmp_path, capsys):
    """A route from a failed node is a validity problem, not a deadlock.

    The minimality lines are the stretch that bfs leaves around the fault.
    """
    topo = write_topo(tmp_path, "dims: 3 3\nfail-node: 2 2\n")
    out = tmp_path / "f.table"
    assert main(["generate", topo, "--algo", "bfs", "--out", str(out)]) == 0
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("(2,2) -> (0,0) : +X | nodes: (2,2) (0,0)\n")
    capsys.readouterr()
    assert main(["verify", topo, str(out)]) == 1
    assert capsys.readouterr().out == (
        "completeness: pass\n"
        "minimality: FAIL (4)\n"
        "  (0,2)->(2,1): length 3, minimal 2\n"
        "  (1,2)->(2,0): length 3, minimal 2\n"
        "  (1,2)->(2,1): length 4, minimal 2\n"
        "  (2,1)->(1,2): length 3, minimal 2\n"
        "validity: FAIL (1)\n"
        "  (2,2)->(0,0): endpoint (2,2) is a failed node\n"
        "deadlock-freedom: pass\n")


def test_verify_reports_route_between_cut_off_nodes(tmp_path, capsys):
    """With both X cables (0)<->(1) and (2)<->(3) failed, no path joins (0)
    and (2): the minimality line says so in place of a minimal length."""
    topo = write_topo(tmp_path, "dims: 4\nfail-link: 0 +X\nfail-link: 2 +X\n")
    table = tmp_path / "cut.table"
    table.write_text("(0) -> (2) : +X +X | nodes: (0) (1) (2)\n")
    capsys.readouterr()
    assert main(["verify", topo, str(table)]) == 1
    shown = capsys.readouterr().out.splitlines()
    i = shown.index("minimality: FAIL (1)")
    assert shown[i + 1:i + 4] == [
        "  (0)->(2): length 2, but no path joins the pair",
        "validity: FAIL (1)",
        "  (0)->(2): step 1 (+X from (0)) uses a dead link"]


def test_verify_report_golden(tmp_path, capsys, monkeypatch):
    """verify's whole output on a 4x2x2x2 table with relaxed turns and more
    than 20 problems of each kind, which pins the first-20 cut and the
    counts. verify reads the rules and the dependency graph only: it builds
    no routing graph."""
    topo = write_topo(tmp_path, "dims: 4 2 2 2\n")
    out = tmp_path / "d.table"
    assert main(["generate", topo, "--algo", "sssp", "--out", str(out)]) == 0
    table = load_table(out, load_topology(topo))
    t = table.topology
    routes = {}
    for i, ((s, d), r) in enumerate(sorted(table.routes.items())):
        if i % 40 == 1:  # a missing pair
            continue
        if i % 40 == 11:  # a detour of two hops along the X ring
            r = make_route(t, s, r.fs, r.body + (0, t.n), r.ls)
        elif i % 20 == 5 and len(set(r.body)) > 1:  # body out of order
            r = make_route(t, s, r.fs, r.body[::-1], r.ls)
        routes[(s, d)] = r
    broken = tmp_path / "broken.table"
    broken.write_text(table_to_text(table_of(t, routes)))
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a routing graph")

    monkeypatch.setattr(RoutingGraph, "__init__", refuse)
    assert main(["verify", topo, str(broken)]) == 1
    golden = pathlib.Path(__file__).parent / "data" / "verify_4222.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
