"""Command-line behavior: exit codes, file outputs, determinism.

Exit code contract: 0 on success, 1 when a verified property fails, 2 on
usage errors (bad parameters, unreadable files, unwritable outputs), 141
when the reader of standard output has gone.  Identical configurations
must produce byte-identical output files.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramsey_forge import (
    design_from_json,
    design_to_json,
    incidence_count,
    projective_plane,
    validate_packing,
)
from ramsey_forge.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(args, *, buffered, **popen_kwargs):
    """Start ``python -m ramsey_forge ARGS`` with ``src`` on the path and its
    standard output block-buffered, as by default, or unbuffered, as with
    ``PYTHONUNBUFFERED=1``.  A failed buffered write surfaces again at the
    interpreter's last flush, so output failures are tested in both modes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "ramsey_forge", *map(str, args)],
        env=env,
        **popen_kwargs,
    )


# One run of each command that writes to standard output; {fano} is the
# Fano plane's design file and {out} a fresh design path.
STDOUT_COMMANDS = {
    "construct": ["construct", "--family", "projective", "--p", "2", "--out", "{out}"],
    "verify": ["verify", "{fano}"],
    "analyze": ["analyze", "{fano}"],
    "sweep": ["sweep", "--n", "1..3"],
    "export": ["export", "{fano}"],
}
BUFFERING = pytest.mark.parametrize(
    "buffered", [True, False], ids=["buffered", "unbuffered"]
)


def _stdout_command(name, tmp_path):
    fano = tmp_path / "fano.json"
    fano.write_text(design_to_json(projective_plane(2)))
    out = tmp_path / "out.json"
    return [a.format(fano=fano, out=out) for a in STDOUT_COMMANDS[name]], out


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
    # each family's closed-form incidence count against the graph cap: far
    # above it, and one step above the largest accepted p = 37, N = 16, n = 65,536
    out = tmp_path / "huge.json"
    for argv, vertices in (
        (["--family", "projective", "--p", "1000000000000000003"],
         (10**36 + 7 * 10**18 + 13) * (10**18 + 4)),
        (["--family", "grid", "--N", "100"], 10**8),
        (["--family", "projective", "--p", "41"], 72366),
        (["--family", "affine", "--p", "41"], 70602),
        (["--family", "grid", "--N", "17"], 83521),
        (["--family", "trim", "--n", "65537"], 65537),
        (["--family", "random", "--points", "1000", "--block-size", "3",
          "--strength", "2", "--blocks", "21843"], 66529),
    ):
        code, stdout, stderr = run(["construct", *argv, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == (
            f"error: graph would have {vertices} vertices, above the cap of 65536\n"
        )
        assert not out.exists()


def test_construct_accepts_a_design_at_the_graph_cap(tmp_path, capsys):
    out = tmp_path / "trim.json"
    code, stdout, _ = run(
        ["construct", "--family", "trim", "--n", "65536", "--out", str(out)], capsys
    )
    assert code == 0
    assert stdout.endswith("incidences: 65536\n")
    assert incidence_count(design_from_json(out.read_text())) == 65536


def test_construct_random_caps_blocks_by_the_packing_bound(tmp_path, capsys):
    # 21,843 blocks of 3 would pass the cap, but 10 points hold at most
    # C(10, 2) // C(3, 2) = 15 of them
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        ["construct", "--family", "random", "--points", "10", "--block-size",
         "3", "--strength", "2", "--blocks", "21843", "--out", str(out)],
        capsys,
    )
    assert (code, stderr) == (0, "")
    design = design_from_json(out.read_text())
    assert validate_packing(design).valid
    assert len(design.blocks) <= 15
    assert stdout == (
        f"points: 10\nblocks: {len(design.blocks)}\n"
        f"incidences: {incidence_count(design)}\n"
    )


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


@pytest.mark.parametrize(
    "out, trace_out",
    [("d.json", "d.json"), ("./d.json", "d.json"), ("d.json", "sub/../d.json")],
)
def test_construct_refuses_a_trace_path_equal_to_the_design_path(
    tmp_path, capsys, monkeypatch, out, trace_out
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, stdout, stderr = run(
        ["construct", "--family", "trim", "--n", "10", "--out", out,
         "--trace-out", trace_out],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: --trace-out names the design path {Path(out)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("value", ["7", "x"])
def test_outputs_do_not_depend_on_the_environment(tmp_path, capsys, monkeypatch, value):
    # a missing --seed means seed 0, whatever RAMSEY_FORGE_SEED says
    argv = [
        "construct", "--family", "random", "--points", "16", "--block-size", "4",
        "--strength", "3", "--blocks", "40",
    ]
    seed0, seed7, ambient = (tmp_path / f"{name}.json" for name in ("0", "7", "env"))
    monkeypatch.delenv("RAMSEY_FORGE_SEED", raising=False)
    assert run(argv + ["--seed", "0", "--out", str(seed0)], capsys)[0] == 0
    assert run(argv + ["--seed", "7", "--out", str(seed7)], capsys)[0] == 0
    assert seed7.read_bytes() != seed0.read_bytes()
    verify = ["verify", str(seed0), "--order", "random:3"]
    expected = run(verify, capsys)
    assert expected[0] == 0
    monkeypatch.setenv("RAMSEY_FORGE_SEED", value)
    assert run(argv + ["--out", str(ambient)], capsys) == (
        0, "points: 16\nblocks: 40\nincidences: 160\n", ""
    )
    assert ambient.read_bytes() == seed0.read_bytes()
    assert run(verify, capsys) == expected


@pytest.mark.parametrize(
    "family, flag", [("projective", "--p"), ("affine", "--p"), ("grid", "--N")]
)
def test_construct_requires_the_family_parameter(tmp_path, capsys, family, flag):
    out = tmp_path / "d.json"
    code, stdout, stderr = run(
        ["construct", "--family", family, "--out", str(out)], capsys
    )
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {flag} is required for this family\n"
    assert not out.exists()


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
    assert stdout == "packing: invalid (pair {0, 1} in blocks 0 and 1)\n"
    assert stderr == "verify failed: pair {0, 1} in blocks 0 and 1\n"


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


@pytest.mark.parametrize("spec", ["bogus", "random", "random:", "random:abc"])
def test_verify_parses_the_order_before_printing(tmp_path, capsys, spec):
    # the order grammar is exactly id|random:<seed>
    design = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(design)], capsys)
    code, stdout, stderr = run(["verify", str(design), "--order", spec], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"error: invalid order spec {spec!r} (expected id or random:<seed>)\n"
    )


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(["verify", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read" in stderr


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
def test_non_utf8_design_file_is_a_usage_error(tmp_path, capsys, command):
    design = tmp_path / "utf16.json"
    design.write_bytes(b"\xff\xfe{\x00}\x00")
    code, stdout, stderr = run([command, str(design)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: cannot read design file {design}: ")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "trim", "--n", "10", "--out", "{missing}"],
        ["construct", "--family", "trim", "--n", "10", "--out", "{ok}",
         "--trace-out", "{missing}"],
        ["analyze", "{fano}", "--out", "{missing}"],
        ["export", "{fano}", "--out", "{missing}"],
        ["sweep", "--n", "1..3", "--out", "{missing}"],
    ],
    ids=["construct", "construct-trace", "analyze", "export", "sweep"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    fano = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(fano)], capsys)
    missing = tmp_path / "no" / "such" / "dir" / "out"
    paths = {"missing": missing, "ok": tmp_path / "ok.json", "fano": fano}
    code, stdout, stderr = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: cannot write {missing}: ")
    assert stderr.count("\n") == 1
    assert not missing.exists()
    assert not paths["ok"].exists()  # no design is left without its trace


def test_construct_trim_to_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the default trace path is worked out before the design is written,
    # even for an --out with an empty name
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(
        ["construct", "--family", "trim", "--n", "10", "--out", "."], capsys
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: cannot write .: ")
    assert list(tmp_path.iterdir()) == []


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
    lines = report.read_text().splitlines()
    assert lines[0] == (
        "family,param,order_seed,n_vertices,a,b,greedy,block,exact,upper,"
        "chromatic_lb_num,chromatic_lb_den,ravsky_lb"
    )
    rows = list(csv.DictReader(lines))
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


def test_analyze_colour_class_search_deeper_than_the_recursion_limit(
    tmp_path, capsys
):
    # 200 disjoint copies of a strength-3 gadget on 7 points: 3,000 vertices
    # with triangles, alpha 9 per copy.  The min-degree incumbent takes 8 per
    # copy, so the search descends about 1,800 frames to prove 1,800.
    gadget = ((3, 4, 6), (1, 3, 6), (0, 5, 6), (1, 3, 5), (1, 2, 5))
    blocks = [[7 * i + x for x in b] for i in range(200) for b in gadget]
    design = tmp_path / "gadgets.json"
    design.write_text(
        json.dumps({"point_count": 1400, "strength": 3, "blocks": blocks})
    )
    code, stdout, _ = run(
        ["analyze", str(design), "--exact-budget", "4000", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_vertices"] == 3000
    assert doc["exact"] == 1800


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
    assert stderr == (
        f"error: {bad}: design violates the packing conditions "
        "(1 violation(s); first: pair {0, 1} in blocks 0 and 1)\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "not a design document: expected a JSON object"),
        ('{"point_count":-1,"strength":2,"blocks":[]}', "point_count must be >= 0"),
        ('{"point_count":1,"strength":2,"blocks":[[0]],"labels":[1]}',
         "labels must be a list of strings"),
    ],
    ids=["array", "negative-points", "integer-label"],
)
def test_malformed_design_file_is_a_usage_error(tmp_path, capsys, text, message):
    design = tmp_path / "bad.json"
    design.write_text(text)
    assert run(["verify", str(design)], capsys) == (2, "", f"error: {design}: {message}\n")


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
@pytest.mark.parametrize(
    "text",
    [
        "[" * 200000,
        '{"point_count":1,"strength":2,"blocks":' + "[" * 5000 + "]" * 5000 + "}",
    ],
    ids=["unclosed", "well-formed"],
)
def test_deeply_nested_design_file_is_a_usage_error(tmp_path, capsys, command, text):
    # the JSON decoder recurses once per level and overflows the stack
    nested = tmp_path / "nested.json"
    nested.write_text(text)
    code, stdout, stderr = run([command, str(nested)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {nested}: not a design document: nested too deeply\n"


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
@pytest.mark.parametrize("points", [65537, 10**12])
def test_design_with_more_points_than_the_graph_cap_is_a_usage_error(
    tmp_path, capsys, command, points
):
    # a valid packing covers every point, so no such design has a graph
    # under the cap; it is refused before the point order is built
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"point_count": points, "strength": 2, "blocks": [[0, 1]]})
    )
    code, stdout, stderr = run([command, str(big)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"error: {big}: design has {points} points, above the graph cap of 65536\n"
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
    # 65,535 singleton blocks and the pair {65534, 65535}: a valid packing
    # on 65,536 points (at the point gate), one vertex over the graph cap
    singletons = tmp_path / "singletons.json"
    singletons.write_text(
        json.dumps(
            {
                "point_count": 65536,
                "strength": 2,
                "blocks": [[x] for x in range(65535)] + [[65534, 65535]],
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
    from ramsey_forge import OrderedDesign, build_gamma, write_graph

    design_path = tmp_path / "fano.json"
    run(["construct", "--family", "projective", "--p", "2", "--out", str(design_path)], capsys)
    out = tmp_path / "fano.dimacs"
    code, _, _ = run(
        ["export", str(design_path), "--format", "dimacs", "--out", str(out)],
        capsys,
    )
    assert code == 0
    design = design_from_json(design_path.read_text())
    expected = io.BytesIO()
    write_graph(build_gamma(OrderedDesign.id_order(design)), "dimacs", expected)
    assert out.read_bytes() == expected.getvalue()

    out2 = tmp_path / "fano.edges.json"
    run(["export", str(design_path), "--format", "edge-json", "--out", str(out2)], capsys)
    doc = json.loads(out2.read_text())
    assert doc["n"] == 21
    assert len(doc["edges"]) == 42


def test_export_to_a_closed_pipe_exits_quietly(tmp_path):
    # `export ... | head -c 20`: about 1 MB of DIMACS, far above a pipe
    # buffer, so the writer is still writing rows when the reader leaves
    design = tmp_path / "plane11.json"
    design.write_text(design_to_json(projective_plane(11)))
    for buffered in (True, False):
        proc = spawn(
            ["export", design],
            buffered=buffered,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
        proc.stderr.close()
        assert head == b"p edge 1596 96558\ne "
        assert (code, stderr) == (141, b""), f"buffered={buffered}"


@BUFFERING
@pytest.mark.parametrize("command", list(STDOUT_COMMANDS))
def test_every_command_to_a_closed_pipe_exits_141(tmp_path, command, buffered):
    # the reader leaves before the first byte: a 141 exit never claims
    # success (exit 0) for work that was never reported
    argv, out = _stdout_command(command, tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = spawn(argv, buffered=buffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""
    assert out.exists() == (command == "construct")  # files come first


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
@pytest.mark.parametrize("command", list(STDOUT_COMMANDS))
def test_every_command_to_a_full_stdout_is_a_usage_error(
    tmp_path, command, buffered
):
    argv, _ = _stdout_command(command, tmp_path)
    with open("/dev/full", "wb") as full:
        proc = spawn(argv, buffered=buffered, stdout=full, stderr=subprocess.PIPE)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stderr == (
        b"error: cannot write standard output: [Errno 28] No space left on device\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("p", [2, 11], ids=["fails-at-close", "fails-mid-write"])
def test_export_to_a_full_device_is_a_usage_error(tmp_path, p):
    design = tmp_path / "plane.json"
    design.write_text(design_to_json(projective_plane(p)))
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_forge", "export", str(design),
         "--out", "/dev/full"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: cannot write /dev/full: [Errno 28] No space left on device\n"
    )


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
    bare = tmp_path / "bare.csv"
    assert run(["sweep", "--n", "12", "--out", str(bare)], capsys)[0] == 0
    assert bare.read_bytes() == report.read_bytes()


def test_sweep_json_is_an_array_for_every_range(capsys):
    # one row or many, sweep writes a JSON array; analyze writes one object
    for spec, params in (("12..12", ["12"]), ("12..13", ["12", "13"])):
        code, stdout, _ = run(["sweep", "--n", spec, "--format", "json"], capsys)
        assert code == 0
        docs = json.loads(stdout)
        assert isinstance(docs, list)
        assert [doc["param"] for doc in docs] == params


def test_sweep_rejects_zero(tmp_path, capsys):
    code, _, stderr = run(["sweep", "--n", "0..0"], capsys)
    assert code == 2
    assert "n >= 1 required" in stderr
    code, _, stderr = run(["sweep", "--n", "5..3"], capsys)
    assert code == 2
    for spec in ("1..2..3", "x", "1.."):
        assert run(["sweep", "--n", spec], capsys) == (
            2, "", f"error: invalid range {spec!r} (expected LO..HI)\n"
        )


@pytest.mark.parametrize(
    "spec", ["400000..400000", "303067..303069", "2000000..2000000", "1..65537"]
)
def test_sweep_stops_at_its_budgets(capsys, spec):
    # a trim of size n has exactly n vertices, so the upper end is checked
    # against the graph cap before any n is built
    hi = spec.split("..")[1]
    code, stdout, stderr = run(["sweep", "--n", spec], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"error: n={hi}: graph would have {hi} vertices, above the cap of 65536\n"
    )


def test_sweep_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(["sweep", "--n", "1..20", "--out", str(first)], capsys)[0] == 0
    assert run(["sweep", "--n", "1..20", "--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "fano.json"

    def entry(*args):
        proc = spawn(
            args,
            buffered=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        stdout, _ = proc.communicate(timeout=60)
        return proc.returncode, stdout

    code, stdout = entry(
        "construct", "--family", "projective", "--p", "2", "--out", out
    )
    assert code == 0
    assert "points: 7" in stdout
    assert entry("construct", "--family", "projective")[0] == 2  # --p missing


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
