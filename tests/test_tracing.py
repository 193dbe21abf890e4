"""The benchmark's layer tracer against the library's public signatures.

``perfbench/tracing.py`` wraps every public layer function in a span and
reads counts off the positional arguments and results of some of them
(``check_clique_free``'s second argument is the clique size m).  Running the
CLI in process under that instrumentation catches a signature change that
would otherwise first break the traced benchmark run: the outputs must equal
those of an uninstrumented run, and the spans must carry their counts.
"""

import importlib.util
from math import comb
from pathlib import Path

from ramsey_forge import (
    OrderedDesign,
    build_gamma,
    cli,
    design_to_json,
    incidence_count,
    projective_plane,
    random_packing,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_all(commands, capsys):
    results = []
    for argv, out in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        data = None if out is None else out.read_bytes()
        results.append((code, captured.out, captured.err, data))
    return results


def test_traced_cli_matches_untraced_and_records_counts(tmp_path, capsys):
    tracing = _load_tracing()
    packing = random_packing(12, 5, 4, 6, seed=3)
    fano = projective_plane(2)
    packing_path = tmp_path / "k5.json"
    fano_path = tmp_path / "fano.json"
    packing_path.write_text(design_to_json(packing))
    fano_path.write_text(design_to_json(fano))
    report = tmp_path / "fano.csv"
    dimacs = tmp_path / "fano.dimacs"
    commands = [
        (["verify", str(packing_path), "--order", "random:1"], None),
        (["analyze", str(fano_path), "--out", str(report)], report),
        (["export", str(fano_path), "--out", str(dimacs)], dimacs),
    ]
    plain = _run_all(commands, capsys)
    assert [r[0] for r in plain] == [0, 0, 0]
    assert plain[0][1] == "packing: valid\nK5-free: yes\n"

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = _run_all(commands, capsys)
    finally:
        restore()
    assert traced == plain

    # verify runs first and ends with its cli.main span; its layer spans
    # are exactly these, so the clique search calls no public, and so
    # traced, function of its own
    names = [span.name for span in tracer.spans if not span.probe]
    assert set(names[: names.index("cli.main") + 1]) == {
        "cli.main",
        "cli.cmd_verify",
        "designs.design_from_json",
        "designs.incidence_count",
        "designs.validate_packing",
        "incidence_graphs.build_gamma",
        "incidence_graphs.check_clique_free",
    }
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span.name, []).append(span.counts)
    assert counts["incidence_graphs.check_clique_free"] == [{"m": 5}]
    packing_graph = build_gamma(OrderedDesign.random_order(packing, 1))
    fano_graph = {"vertices": 21, "edges": 42, "incidences": 21}
    assert counts["incidence_graphs.build_gamma"] == [
        {
            "vertices": packing_graph.n_vertices,
            "edges": packing_graph.edge_count,
            "incidences": incidence_count(packing),
        },
        fano_graph,
        fano_graph,
    ]
    # the packing is validated once per graph command, inside build_gamma
    packing_subsets = sum(comb(len(b), 4) for b in packing.blocks)
    assert counts["designs.validate_packing"] == (
        [{"subsets_registered": packing_subsets}]
        + [{"subsets_registered": 21}] * 2
    )
    assert counts["bounds.exact_max_independent_set"] == [{"exact_alpha": 11}]
    assert len(counts["incidence_graphs.graph_validate"]) == 3
    assert len(counts["cli.main"]) == 3
    # export runs last and streams the file through write_graph, whose
    # traced bytes equal the plain ones above; its layer spans are these
    mains = [i for i, name in enumerate(names) if name == "cli.main"]
    assert set(names[mains[1] + 1 : mains[2] + 1]) == {
        "cli.main",
        "cli.cmd_export",
        "designs.design_from_json",
        "designs.incidence_count",
        "designs.validate_packing",
        "incidence_graphs.build_gamma",
        "incidence_graphs.write_graph",
    }


def test_traced_construct_and_sweep_match_untraced(tmp_path, capsys):
    tracing = _load_tracing()
    trim_path = tmp_path / "trim.json"
    trim_trace = tmp_path / "trim.trace.json"
    random_path = tmp_path / "random.json"
    report = tmp_path / "sweep.csv"
    commands = [
        (["construct", "--family", "trim", "--n", "600", "--out", str(trim_path)],
         trim_path),
        # a target above the packing bound C(16, 3) // C(4, 3) = 140
        (["construct", "--family", "random", "--points", "16", "--block-size",
          "4", "--strength", "3", "--blocks", "400", "--seed", "5",
          "--out", str(random_path)], random_path),
        (["sweep", "--n", "1..30", "--order", "random:2", "--out", str(report)],
         report),
    ]
    plain = _run_all(commands, capsys)
    plain_trace = trim_trace.read_bytes()
    assert [r[0] for r in plain] == [0, 0, 0]
    assert plain[0][1] == "points: 121\nblocks: 132\nincidences: 600\n"

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = _run_all(commands, capsys)
    finally:
        restore()
    assert traced == plain
    assert trim_trace.read_bytes() == plain_trace

    counts = {}
    for span in tracer.spans:
        counts.setdefault(span.name, []).append(span.counts)
    assert len(counts["constructions.random_packing"]) == 1
    # one trim for construct, one per n for sweep
    assert len(counts["constructions.trim_to_n"]) == 1 + 30
    assert len(counts["incidence_graphs.check_clique_free"]) == 30
    assert len(counts["cli.main"]) == 3


def test_traced_construct_of_gated_families_matches_untraced(tmp_path, capsys):
    # each family's graph-cap gate runs inside its constructor, which the
    # tracer wraps, as in the benchmark's traced set-up; the refused
    # projective 41 writes no file
    tracing = _load_tracing()
    commands = []
    for family, flag, value in (
        ("projective", "--p", "3"), ("affine", "--p", "3"), ("grid", "--N", "2")
    ):
        out = tmp_path / f"{family}.json"
        commands.append(
            (["construct", "--family", family, flag, value, "--out", str(out)], out)
        )
    refused = tmp_path / "projective41.json"
    commands.append(
        (["construct", "--family", "projective", "--p", "41", "--out", str(refused)],
         None)
    )
    plain = _run_all(commands, capsys)
    assert [r[0] for r in plain] == [0, 0, 0, 2]
    assert plain[3][1:] == (
        "", "error: graph would have 72366 vertices, above the cap of 65536\n", None
    )

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        traced = _run_all(commands, capsys)
    finally:
        restore()
    assert traced == plain
    assert not refused.exists()
    names = [span.name for span in tracer.spans]
    assert names.count("constructions.projective_plane") == 2
    assert names.count("constructions.affine_plane") == 1
    assert names.count("constructions.grid_line_design") == 1
    assert names.count("cli.main") == 4
