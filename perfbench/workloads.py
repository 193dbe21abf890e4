"""The benchmark's workloads: the ramsey-forge commands they run, and the checks
every command's output must pass.

Every input is derived from the workload seed: the seed picks each
``--order random:<seed>`` and each ``random_packing`` seed, and the program
only ever sees the design files that ``construct`` writes.  Commands name
files relative to the run's work directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb
from pathlib import Path
from typing import Callable

# Column order of analyze and sweep reports (README, "File formats").
REPORT_FIELDS = [
    "family", "param", "order_seed", "n_vertices", "a", "b", "greedy", "block",
    "exact", "upper", "chromatic_lb_num", "chromatic_lb_den", "ravsky_lb",
]

# Checks get (stdout, {output file: bytes}, work directory) and return problems.
Check = Callable[[str, dict, Path], list]


@dataclass(frozen=True)
class Op:
    """One ramsey-forge command; ``args`` follow the program name."""

    role: str  # setup | certify | output
    args: tuple
    check: Check
    outputs: tuple = ()

    @property
    def kind(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]  # seed -> construct ops
    passes: Callable[[int, int], list]  # (seed, pass index) -> ops
    min_passes: int = 1
    # Checks across the passes of one run, given for each pass a list of
    # (op, {output file: its first line}); returns problems.
    across: Callable[[list], list] = field(default=lambda passes: [])


def derive(seed: int, *tags) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and the tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def expect_stdout(expected: str) -> Check:
    def check(stdout, outputs, workdir):
        if stdout != expected:
            return [f"stdout {stdout!r}, expected {expected!r}"]
        return []

    return check


def construct_check(design_file: str, min_blocks: int = 0, **expect) -> Check:
    """The printed counts must match the design file and ``expect``, a subset
    of points, blocks, incidences and strength; random packings must reach
    ``min_blocks`` blocks."""

    def check(stdout, outputs, workdir):
        doc = json.loads(outputs[design_file])
        counts = {
            "points": doc["point_count"],
            "blocks": len(doc["blocks"]),
            "incidences": sum(len(b) for b in doc["blocks"]),
        }
        problems = []
        printed = "".join(f"{k}: {v}\n" for k, v in counts.items())
        if stdout != printed:
            problems.append(f"construct printed {stdout!r}, file holds {printed!r}")
        counts["strength"] = doc["strength"]
        for key, value in expect.items():
            if counts[key] != value:
                problems.append(f"{design_file}: {key} {counts[key]}, expected {value}")
        if counts["blocks"] < min_blocks:
            problems.append(f"{design_file}: {counts['blocks']} blocks, fewer than {min_blocks}")
        return problems

    return check


def parse_report(data: bytes) -> list:
    rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
    if not rows or rows[0] != REPORT_FIELDS:
        raise ValueError(f"report header {rows[:1]}")
    return [dict(zip(REPORT_FIELDS, row)) for row in rows[1:]]


def row_problems(row: dict, *, order_seed: str, exact_budget: int) -> list:
    """Sandwich and closed-form checks shared by analyze and sweep rows."""
    n, a, b = int(row["n_vertices"]), int(row["a"]), int(row["b"])
    greedy, block, upper = int(row["greedy"]), int(row["block"]), int(row["upper"])
    problems = []
    if row["order_seed"] != order_seed:
        problems.append(f"order_seed {row['order_seed']!r}, expected {order_seed!r}")
    if greedy != b:
        problems.append(f"greedy {greedy} != blocks {b}")
    if upper != a + b:
        problems.append(f"upper {upper} != a + b = {a + b}")
    chromatic = Fraction(int(row["chromatic_lb_num"]), int(row["chromatic_lb_den"]))
    if chromatic != Fraction(n, upper):
        problems.append(f"chromatic bound {chromatic} != {n}/{upper}")
    if n <= exact_budget:
        if row["exact"] == "":
            problems.append(f"exact missing for {n} vertices")
        elif not block <= int(row["exact"]) <= upper:
            problems.append(f"block {block} <= exact {row['exact']} <= upper {upper} fails")
    elif row["exact"] != "":
        problems.append(f"exact given above the budget for {n} vertices")
    if not block <= upper:
        problems.append(f"block {block} above upper {upper}")
    return problems


def analyze_check(report_file: str, order_seed: str, exact_budget: int) -> Check:
    def check(stdout, outputs, workdir):
        rows = parse_report(outputs[report_file])
        if len(rows) != 1:
            return [f"{report_file}: {len(rows)} rows"]
        return row_problems(rows[0], order_seed=order_seed, exact_budget=exact_budget)

    return check


VERIFY_STRENGTH2 = "packing: valid\ntriangle-free: yes\nravsky-quadratic: holds\n"


# plane-certify ---------------------------------------------------------------

PLANE_P = 19
PLANE_POINTS = PLANE_P * PLANE_P + PLANE_P + 1
PLANE_VERTICES = PLANE_POINTS * (PLANE_P + 1)
# Points x < y lie on one common line B2; (x, B1)-(y, B2) is an edge for each
# of the p other lines B1 through x, whatever the point order.
PLANE_EDGES = comb(PLANE_POINTS, 2) * PLANE_P
PLANE_HEADER = f"p edge {PLANE_VERTICES} {PLANE_EDGES}"


def _dimacs_check(out: str) -> Check:
    def check(stdout, outputs, workdir):
        data = outputs[out]
        header = data[: data.find(b"\n")].decode("ascii")
        problems = []
        if header != PLANE_HEADER:
            problems.append(f"DIMACS header {header!r}, expected {PLANE_HEADER!r}")
        lines = data.count(b"\n")
        if lines != PLANE_EDGES + 1 or not data.endswith(b"\n"):
            problems.append(f"DIMACS has {lines} lines, expected {PLANE_EDGES + 1}")
        if stdout:
            problems.append(f"export printed {stdout[:80]!r}")
        return problems

    return check


def plane_setup(seed: int) -> list:
    design = "plane.json"
    return [
        Op(
            "setup",
            ("construct", "--family", "projective", "--p", str(PLANE_P), "--out", design),
            construct_check(design, points=PLANE_POINTS, blocks=PLANE_POINTS,
                            incidences=PLANE_VERTICES),
            (design,),
        )
    ]


def plane_passes(seed: int, index: int) -> list:
    # Passes alternate between two order seeds: the edges change, their
    # number must not.
    order = str(derive(seed, "plane-order", index % 2))
    out = f"plane-{order}.dimacs"
    return [
        Op("certify", ("verify", "plane.json", "--order", f"random:{order}"),
           expect_stdout(VERIFY_STRENGTH2)),
        Op("output",
           ("export", "plane.json", "--order", f"random:{order}", "--format", "dimacs",
            "--out", out),
           _dimacs_check(out), (out,)),
    ]


def plane_across(passes: list) -> list:
    headers = {}
    for ops in passes:
        for op, first_lines in ops:
            if op.kind == "export":
                headers[op.args[3]] = first_lines[op.outputs[0]]
    if len(passes) >= 2 and len(headers) < 2:
        return ["plane-certify ran fewer than two order seeds"]
    if len(set(headers.values())) > 1:
        return [f"vertex or edge counts differ between order seeds: {headers}"]
    return []


# trim-sweep -------------------------------------------------------------------

SWEEP_N = 600
TRIM_EXPORT_N = 4000
SWEEP_EXACT_BUDGET = 64  # the CLI default


def _any_n_cap(n: int) -> int:
    return ceil(48.0 * 2.0 ** (1.0 / 3.0) * float(n) ** (2.0 / 3.0))


def _sweep_check(out: str, order: str) -> Check:
    def check(stdout, outputs, workdir):
        rows = parse_report(outputs[out])
        if len(rows) != SWEEP_N:
            return [f"sweep report has {len(rows)} rows, expected {SWEEP_N}"]
        problems = []
        for n, row in enumerate(rows, start=1):
            bad = row_problems(row, order_seed=order, exact_budget=SWEEP_EXACT_BUDGET)
            if row["family"] != "trim" or row["param"] != str(n):
                bad.append(f"labelled {row['family']} {row['param']}")
            if int(row["n_vertices"]) != n:
                bad.append(f"n_vertices {row['n_vertices']}")
            if int(row["a"]) + int(row["b"]) > _any_n_cap(n):
                bad.append("points + blocks above the any-n cap")
            problems.extend(f"sweep n={n}: {p}" for p in bad)
        # The last row must describe the design construct builds for that n.
        doc = json.loads((workdir / f"trim{SWEEP_N}.json").read_text())
        last = rows[-1]
        if (int(last["a"]), int(last["b"])) != (doc["point_count"], len(doc["blocks"])):
            problems.append(f"sweep n={SWEEP_N} row disagrees with construct")
        return problems[:10]

    return check


def _edge_json_check(out: str) -> Check:
    def check(stdout, outputs, workdir):
        doc = json.loads(outputs[out])
        edges = doc["edges"]
        problems = []
        if doc["n"] != TRIM_EXPORT_N:
            problems.append(f"edge-json n {doc['n']}, expected {TRIM_EXPORT_N}")
        if any(not 0 <= u < v < TRIM_EXPORT_N for u, v in edges):
            problems.append("edge-json has an edge outside 0 <= u < v < n")
        if edges != sorted(edges):
            problems.append("edge-json edges not ascending")
        if len({tuple(e) for e in edges}) != len(edges):
            problems.append("edge-json repeats an edge")
        return problems

    return check


def _trim_dimacs_check(out: str, edge_json: str) -> Check:
    """The DIMACS export must list the edge-json export's edges, 1-based."""

    def check(stdout, outputs, workdir):
        edges = json.loads((workdir / edge_json).read_text())["edges"]
        expected = [f"p edge {TRIM_EXPORT_N} {len(edges)}"]
        expected += [f"e {u + 1} {v + 1}" for u, v in edges]
        if outputs[out] != ("\n".join(expected) + "\n").encode("ascii"):
            return ["DIMACS and edge-json exports disagree"]
        return []

    return check


def trim_setup(seed: int) -> list:
    ops = []
    for n in (SWEEP_N, TRIM_EXPORT_N):
        design = f"trim{n}.json"
        ops.append(Op(
            "setup",
            ("construct", "--family", "trim", "--n", str(n), "--out", design),
            construct_check(design, incidences=n),
            (design, f"trim{n}.trace.json"),
        ))
    return ops


def trim_passes(seed: int, index: int) -> list:
    # The exports give this workload output commands, as the others have, and
    # cover both export formats on a large trimmed graph.
    order = str(derive(seed, "trim-order"))
    report = f"sweep-{order}.csv"
    design = f"trim{TRIM_EXPORT_N}.json"
    edge_json = f"trim{TRIM_EXPORT_N}-{order}.json"
    dimacs = f"trim{TRIM_EXPORT_N}-{order}.dimacs"
    return [
        Op("certify",
           ("sweep", "--n", f"1..{SWEEP_N}", "--order", f"random:{order}", "--out", report),
           _sweep_check(report, order), (report,)),
        Op("output",
           ("export", design, "--order", f"random:{order}", "--format", "edge-json",
            "--out", edge_json),
           _edge_json_check(edge_json), (edge_json,)),
        Op("output",
           ("export", design, "--order", f"random:{order}", "--format", "dimacs",
            "--out", dimacs),
           _trim_dimacs_check(dimacs, edge_json), (dimacs,)),
    ]


# packing-exact ----------------------------------------------------------------

K5_PACKING = (80, 8, 4, 400)  # points, block size, strength, target blocks
EXACT_PACKING = (16, 4, 3, 40)
EXACT_PACKINGS = 3
EXACT_ORDERS = 4
EXACT_BUDGET = 200
AFFINE_P = 5


def packing_setup(seed: int) -> list:
    ops = []

    def random_op(design, params, packing_seed):
        points, size, strength, blocks = params
        return Op(
            "setup",
            ("construct", "--family", "random", "--points", str(points),
             "--block-size", str(size), "--strength", str(strength),
             "--blocks", str(blocks), "--seed", str(packing_seed), "--out", design),
            construct_check(design, points=points, strength=strength, min_blocks=blocks),
            (design,),
        )

    ops.append(random_op("k5.json", K5_PACKING, derive(seed, "k5-packing")))
    for j in range(EXACT_PACKINGS):
        ops.append(random_op(f"exact{j}.json", EXACT_PACKING, derive(seed, "exact-packing", j)))
    ops.append(Op(
        "setup",
        ("construct", "--family", "affine", "--p", str(AFFINE_P), "--out", "affine.json"),
        construct_check("affine.json", points=AFFINE_P**2, blocks=AFFINE_P**2 + AFFINE_P),
        ("affine.json",),
    ))
    return ops


def packing_passes(seed: int, index: int) -> list:
    k5_order = derive(seed, "k5-order")
    ops = [Op("certify", ("verify", "k5.json", "--order", f"random:{k5_order}"),
              expect_stdout("packing: valid\nK5-free: yes\n"))]
    budget = str(EXACT_BUDGET)
    # Branch-and-bound work varies by about a quarter from one instance to the
    # next, so the pass solves twelve small seeded instances rather than a few
    # large ones, plus the affine plane in the fixed id order as an anchor.
    for j in range(EXACT_PACKINGS):
        for r in range(EXACT_ORDERS):
            order = str(derive(seed, "exact-order", j, r))
            out = f"exact{j}-{order}.csv"
            ops.append(Op(
                "output",
                ("analyze", f"exact{j}.json", "--family", "random", "--order",
                 f"random:{order}", "--exact-budget", budget, "--out", out),
                analyze_check(out, order, EXACT_BUDGET), (out,)))
    ops.append(Op(
        "output",
        ("analyze", "affine.json", "--family", "affine", "--p", str(AFFINE_P),
         "--exact-budget", budget, "--out", "affine.csv"),
        analyze_check("affine.csv", "", EXACT_BUDGET), ("affine.csv",)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plane-certify",
            "projective plane p=19 (7,620 vertices, 1.4M edges): verify and a 16 MB DIMACS "
            "export, so graph building, the triangle check and export dominate",
            plane_setup, plane_passes, min_passes=2, across=plane_across,
        ),
        Workload(
            "trim-sweep",
            "sweep --n 1..600 builds and certifies 600 small trimmed graphs (per-call "
            "overhead, trim_to_n), plus edge-json and DIMACS exports at n=4000",
            trim_setup, trim_passes,
        ),
        Workload(
            "packing-exact",
            "K5 search on a strength-4 packing, then exact alpha on 13 graphs of 150-160 "
            "vertices: branch and bound dominates, graph building does little",
            packing_setup, packing_passes,
        ),
    )
}
