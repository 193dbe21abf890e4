"""Command-line behavior: exit codes, file outputs, determinism.

Exit code contract: 0 on success, 1 when a verified property fails, 2 on
usage errors (bad parameters, unreadable files).  Identical configurations
must produce byte-identical output files.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramsey_forge import design_from_json, incidence_count, validate_packing
from ramsey_forge.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_projective(tmp_path, capsys):
    out = tmp_path / "fano.json"
    code, stdout, _ = run(
        ["construct", "--family", "projective", "--p", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == "points: 7\nblocks: 7\nincidences: 21\n"
    design = design_from_json(out.read_text())
    assert design.point_count == 7
    assert len(design.blocks) == 7
    assert validate_packing(design).valid


def test_construct_requires_prime(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code, _, stderr = run(
        ["construct", "--family", "projective", "--p", "4", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "prime required" in stderr
    assert not out.exists()


def test_construct_refuses_oversized_designs(tmp_path, capsys):
    out = tmp_path / "huge.json"
    for argv in (
        ["--family", "projective", "--p", "1000000000000000003"],
        ["--family", "grid", "--N", "100"],
    ):
        code, _, stderr = run(["construct", *argv, "--out", str(out)], capsys)
        assert code == 2
        assert "above the construct cap" in stderr
        assert not out.exists()


def test_construct_rejects_negative_block_target(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, stderr = run(
        ["construct", "--family", "random", "--points", "10", "--block-size",
         "3", "--strength", "2", "--blocks", "-4", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "target_blocks" in stderr
    assert not out.exists()


def test_construct_refuses_oversized_subset_sampling(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, stderr = run(
        ["construct", "--family", "random", "--points", "60", "--block-size",
         "60", "--strength", "30", "--blocks", "1", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "30-subsets, above the cap of 10000000" in stderr
    assert not out.exists()


def test_construct_trim_writes_trace(tmp_path, capsys):
    out = tmp_path / "trim10.json"
    code, stdout, _ = run(
        ["construct", "--family", "trim", "--n", "10", "--out", str(out)], capsys
    )
    assert code == 0
    assert "incidences: 10" in stdout
    design = design_from_json(out.read_text())
    assert incidence_count(design) == 10
    trace = json.loads((tmp_path / "trim10.trace.json").read_text())
    assert trace == {"n": 10, "k": 2, "p": 2, "removed": [[5, 3], [4, 1]]}


def test_construct_random_seed_env_override(tmp_path, capsys, monkeypatch):
    argv = [
        "construct", "--family", "random", "--points", "10", "--block-size", "3",
        "--strength", "2", "--blocks", "4",
    ]
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    monkeypatch.setenv("RAMSEY_FORGE_SEED", "7")
    assert run(argv + ["--out", str(a)], capsys)[0] == 0
    assert run(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    # an explicit --seed wins over the environment
    assert run(argv + ["--seed", "8", "--out", str(c)], capsys)[0] == 0
    assert c.read_bytes() != a.read_bytes()


def test_verify_ok(tmp_path, capsys):
    out = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(out)], capsys)
    code, stdout, _ = run(["verify", str(out)], capsys)
    assert code == 0
    assert "packing: valid" in stdout
    assert "triangle-free: yes" in stdout
    assert "ravsky-quadratic: holds" in stdout


def test_verify_reports_duplicated_pair(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"point_count":4,"strength":2,"blocks":[[0,1,2],[0,1,3]]}\n'
    )
    code, stdout, stderr = run(["verify", str(bad)], capsys)
    assert code == 1
    assert "packing: invalid" in stdout
    assert "pair {0, 1} in blocks 0 and 1" in stdout
    assert "verify failed" in stderr


def test_verify_strength3_reports_k4(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(
        [
            "construct", "--family", "random", "--points", "12", "--block-size",
            "4", "--strength", "3", "--blocks", "5", "--seed", "3",
            "--out", str(out),
        ],
        capsys,
    )
    code, stdout, _ = run(["verify", str(out)], capsys)
    assert code == 0
    assert "K4-free: yes" in stdout


def test_verify_parses_the_order_before_printing(tmp_path, capsys):
    design = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(design)], capsys)
    code, stdout, stderr = run(["verify", str(design), "--order", "bogus"], capsys)
    assert code == 2
    assert stdout == ""
    assert "invalid order spec 'bogus'" in stderr


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(["verify", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read" in stderr


def test_analyze_csv(tmp_path, capsys):
    design = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(design)], capsys)
    report = tmp_path / "row.csv"
    code, _, _ = run(
        ["analyze", str(design), "--family", "projective", "--p", "2",
         "--out", str(report)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["family"] == "projective" and row["param"] == "2"
    assert row["greedy"] == "7" and row["upper"] == "14"
    assert row["chromatic_lb_num"] == "3" and row["chromatic_lb_den"] == "2"
    assert row["exact"] != ""  # 21 vertices, inside the default budget
    assert row["order_seed"] == ""


def test_analyze_json_and_random_order(tmp_path, capsys):
    design = tmp_path / "ag22.json"
    run(["construct", "--family", "affine", "--p", "2", "--out", str(design)], capsys)
    code, stdout, _ = run(
        ["analyze", str(design), "--format", "json", "--order", "random:7"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["family"] == "ag22"  # label defaults to the file stem
    assert doc["order_seed"] == 7
    assert doc["n_vertices"] == 12
    assert doc["greedy"] == 6
    assert doc["exact"] is not None
    assert doc["block"] <= doc["exact"] <= doc["upper"]


def test_analyze_exact_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # gadgets {2i, 2i+1} and {2i}: 3,300 vertices holding a 1,100-edge matching
    blocks = []
    for i in range(1100):
        blocks += [[2 * i, 2 * i + 1], [2 * i]]
    design = tmp_path / "matching.json"
    design.write_text(
        json.dumps({"point_count": 2200, "strength": 2, "blocks": blocks})
    )
    code, stdout, _ = run(
        ["analyze", str(design), "--exact-budget", "4000", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_vertices"] == 3300
    assert doc["exact"] == 2200


def test_analyze_rejects_bad_order_spec(tmp_path, capsys):
    design = tmp_path / "d.json"
    run(["construct", "--family", "affine", "--p", "2", "--out", str(design)], capsys)
    code, _, stderr = run(["analyze", str(design), "--order", "sideways"], capsys)
    assert code == 2
    assert "order" in stderr


def test_analyze_rejects_blockless_design(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"point_count":0,"strength":2,"blocks":[]}\n')
    code, _, stderr = run(["analyze", str(empty)], capsys)
    assert code == 2
    assert "no blocks" in stderr


def test_analyze_rejects_negative_budget(tmp_path, capsys):
    design = tmp_path / "d.json"
    run(["construct", "--family", "affine", "--p", "2", "--out", str(design)], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(design), "--exact-budget", "-5"])
    assert exc.value.code == 2
    assert "--exact-budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_invalid_design_is_a_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"point_count":4,"strength":2,"blocks":[[0,1,2],[0,1,3]]}\n'
    )
    code, stdout, stderr = run([command, str(bad)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(
        f"error: {bad}: design violates the packing conditions"
    )


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
def test_oversized_subset_scan_is_a_usage_error(tmp_path, capsys, command):
    # one 60-point block at strength 30: C(60, 30) ~ 1.2e17 subsets to check
    whole = tmp_path / "whole.json"
    whole.write_text(
        json.dumps({"point_count": 60, "strength": 30, "blocks": [list(range(60))]})
    )
    code, stdout, stderr = run([command, str(whole)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: {whole}: design has 118264581564861424 30-subsets")
    assert "above the cap of 10000000" in stderr


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
def test_oversized_graph_is_a_usage_error(tmp_path, capsys, command):
    # 65,537 singleton blocks: a valid packing, one vertex over the graph cap
    singletons = tmp_path / "singletons.json"
    singletons.write_text(
        json.dumps(
            {
                "point_count": 65537,
                "strength": 1,
                "blocks": [[x] for x in range(65537)],
            }
        )
    )
    code, stdout, stderr = run([command, str(singletons)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"error: {singletons}: graph would have 65537 vertices, "
        "above the cap of 65536\n"
    )


def test_export_matches_library(tmp_path, capsys):
    from ramsey_forge import OrderedDesign, build_gamma, export_graph

    design_path = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(design_path)], capsys)
    out = tmp_path / "fano.dimacs"
    code, _, _ = run(
        ["export", str(design_path), "--format", "dimacs", "--out", str(out)],
        capsys,
    )
    assert code == 0
    design = design_from_json(design_path.read_text())
    expected = export_graph(build_gamma(OrderedDesign.id_order(design)), "dimacs")
    assert out.read_bytes() == expected

    out2 = tmp_path / "fano.edges.json"
    run(["export", str(design_path), "--format", "edge-json", "--out", str(out2)], capsys)
    doc = json.loads(out2.read_text())
    assert doc["n"] == 21
    assert len(doc["edges"]) == 42


def test_sweep_range(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--n", "1..50", "--out", str(report)], capsys)
    assert code == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert len(rows) == 50
    assert [row["param"] for row in rows] == [str(n) for n in range(1, 51)]
    assert all(row["n_vertices"] == row["param"] for row in rows)


def test_sweep_single_value_is_exact_fit(tmp_path, capsys):
    report = tmp_path / "one.csv"
    code, _, _ = run(["sweep", "--n", "12..12", "--out", str(report)], capsys)
    assert code == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert len(rows) == 1
    assert rows[0]["n_vertices"] == "12"
    assert rows[0]["a"] == "4" and rows[0]["b"] == "6"  # untrimmed AG(2,2)


def test_sweep_rejects_zero(tmp_path, capsys):
    code, _, stderr = run(["sweep", "--n", "0..0"], capsys)
    assert code == 2
    assert "n >= 1 required" in stderr
    code, _, stderr = run(["sweep", "--n", "5..3"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("400000..400000", "error: n=400000: graph would have 400000 vertices, above the cap of 65536"),
        ("303067..303069", "error: n=303067: graph would have 303067 vertices, above the cap of 65536"),
        ("2000000..2000000", "error: design would have 2000000 incidences, above"),
    ],
)
def test_sweep_stops_at_its_budgets(capsys, spec, message):
    code, stdout, stderr = run(["sweep", "--n", spec], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(message)


def test_sweep_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(["sweep", "--n", "1..20", "--out", str(first)], capsys)[0] == 0
    assert run(["sweep", "--n", "1..20", "--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "fano.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_forge", "construct", "--family",
         "projective", "--p", "2", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "points: 7" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_forge", "construct", "--family",
         "projective"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # --p missing


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
