import csv
import json
import subprocess
import sys

import pytest

from torusroute.cli import main, run_sweep


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
])
def test_bad_flag_or_unwritable_output_is_io_error(tmp_path, argv):
    topo = write_topo(tmp_path, "dims: 3 3\n")
    argv = [a.format(topo=topo, tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "torusroute", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_node_ceiling_guard(tmp_path):
    topo = write_topo(tmp_path, "dims: 8 8 4 3\n")  # 768 nodes
    assert main(["generate", topo, "--algo", "bfs"]) == 2


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


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "torusroute", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
