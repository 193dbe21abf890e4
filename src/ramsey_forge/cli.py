"""Command-line front end.

Subcommands: construct (build a family member and write its design JSON),
verify (packing validity + clique-freeness + the strength-2 incidence
inequality), analyze (one bounds-report row), export (DIMACS or edge-json
graph dumps), sweep (the exact-size family over a range of n, with per-n
assertions).  Exit codes: 0 ok, 1 property failure, 2 usage error or
unwritable output, 141 when the reader of standard output has gone.
``_output`` owns the ``--out`` files and ``main`` owns standard output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .bounds import (
    DEFAULT_EXACT_BUDGET,
    any_n_alpha_cap,
    bounds_report,
    ravsky_quadratic_check,
)
from .constructions import (
    TrimTrace,
    affine_plane,
    grid_line_design,
    projective_plane,
    random_packing,
    trim_to_n,
)
from .designs import (
    Design,
    InvalidPacking,
    design_from_json,
    design_to_json,
    incidence_count,
)
from .incidence_graphs import (
    EXPORT_FORMATS,
    IncidenceGraph,
    OrderedDesign,
    build_gamma,
    check_clique_free,
    write_graph,
)

SEED_ENV_VAR = "RAMSEY_FORGE_SEED"
DEFAULT_SEED = 0


class UsageError(Exception):
    """Bad parameters or unreadable inputs; maps to exit code 2."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _load_design(path: str) -> Design:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read design file {path}: {exc}")
    try:
        return design_from_json(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


@contextmanager
def _output(path: Optional[str | Path], mode: str = "w"):
    """Yield ``path`` opened with ``mode``, or standard output (its binary
    buffer in "wb" mode) when ``path`` is None.  A file's OSError is a usage
    error, and a part-written file stays; standard output's are ``main``'s."""
    if path is None:
        yield sys.stdout.buffer if "b" in mode else sys.stdout
        return
    path = Path(path)
    try:
        with path.open(mode) as out:
            yield out
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _make_ordered(design: Design, spec: str) -> tuple[OrderedDesign, Optional[int]]:
    if spec == "id":
        return OrderedDesign.id_order(design), None
    if spec == "random":
        seed = _default_seed()
        return OrderedDesign.random_order(design, seed), seed
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"invalid order spec {spec!r}")
        return OrderedDesign.random_order(design, seed), seed
    raise UsageError(f"invalid order spec {spec!r} (expected id or random:<seed>)")


def _build_graph(design: Design, spec: str, path: str) -> tuple[IncidenceGraph, Optional[int]]:
    try:
        od, seed = _make_ordered(design, spec)
        return build_gamma(od), seed
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def _clique_label(m: int) -> str:
    return "triangle-free" if m == 3 else f"K{m}-free"


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"{flag} is required for this family")
    return value


def _construct_family(args) -> tuple[Design, Optional[TrimTrace]]:
    family = args.family
    if family == "projective":
        return projective_plane(_require(args.p, "--p")), None
    if family == "affine":
        return affine_plane(_require(args.p, "--p")), None
    if family == "grid":
        return grid_line_design(_require(args.N, "--N")), None
    if family == "trim":
        return trim_to_n(_require(args.n, "--n"))
    points = _require(args.points, "--points")
    block_size = _require(args.block_size, "--block-size")
    strength = _require(args.strength, "--strength")
    blocks = _require(args.blocks, "--blocks")
    seed = args.seed if args.seed is not None else _default_seed()
    return random_packing(points, block_size, strength, blocks, seed), None


def cmd_construct(args) -> int:
    try:
        design, trace = _construct_family(args)
    except ValueError as exc:
        raise UsageError(str(exc))
    out = Path(args.out)
    trace_path = None
    if trace is not None:
        # the default never names the design; unlike with_suffix, it
        # accepts an --out with an empty name (`.`), which fails to open
        trace_path = out.parent / f"{out.stem}.trace.json"
        if args.trace_out is not None:
            trace_path = Path(args.trace_out)
        if os.path.realpath(trace_path) == os.path.realpath(out):
            raise UsageError(f"--trace-out names the design path {out}")
    with _output(out) as stream:
        stream.write(design_to_json(design))
    if trace_path is not None:
        try:
            with _output(trace_path) as stream:
                stream.write(json.dumps(asdict(trace), separators=(",", ":")) + "\n")
        except UsageError:
            out.unlink()  # no design without its trace
            raise
    print(f"points: {design.point_count}")
    print(f"blocks: {len(design.blocks)}")
    print(f"incidences: {incidence_count(design)}")
    return 0


def cmd_verify(args) -> int:
    design = _load_design(args.design)
    try:
        od, _seed = _make_ordered(design, args.order)
        g = build_gamma(od)
    except InvalidPacking as exc:
        first = exc.report.violations[0]
        print(f"packing: invalid ({first})")
        print(f"verify failed: {first}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(f"{args.design}: {exc}")
    print("packing: valid")
    label = _clique_label(g.m)
    witness = check_clique_free(g, g.m)
    if witness is not None:
        print(f"{label}: NO (clique at vertex indices {list(witness)})")
        print(f"verify failed: clique {list(witness)}", file=sys.stderr)
        return 1
    print(f"{label}: yes")
    if design.strength == 2:
        if not ravsky_quadratic_check(design):
            print("ravsky-quadratic: violated")
            print("verify failed: incidence inequality violated", file=sys.stderr)
            return 1
        print("ravsky-quadratic: holds")
    return 0


def _write_report_rows(rows, fmt: str, out: Optional[str], *, array: bool) -> None:
    with _output(out) as stream:
        if fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(rows[0].as_dict().keys())
            writer.writerows(row.csv_row() for row in rows)
        else:
            docs = [row.as_dict() for row in rows]
            stream.write(json.dumps(docs if array else docs[0], indent=2) + "\n")


def cmd_analyze(args) -> int:
    design = _load_design(args.design)
    if not design.blocks:
        raise UsageError(f"{args.design}: design has no blocks to analyze")
    g, seed = _build_graph(design, args.order, args.design)
    family = args.family if args.family else Path(args.design).stem
    param = next(
        (str(v) for v in (args.p, args.N, args.n) if v is not None), ""
    )
    row = bounds_report(
        design,
        g,
        family=family,
        param=param,
        order_seed=seed,
        exact_budget=args.exact_budget,
    )
    _write_report_rows([row], args.format, args.out, array=False)
    return 0


def cmd_export(args) -> int:
    design = _load_design(args.design)
    g, _seed = _build_graph(design, args.order, args.design)
    with _output(args.out, "wb") as out:
        write_graph(g, args.format, out)
    return 0


def _parse_range(spec: str) -> tuple[int, int]:
    parts = spec.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"invalid range {spec!r} (expected LO..HI)")
    if lo < 1:
        raise UsageError("n >= 1 required")
    if lo > hi:
        raise UsageError(f"empty range {spec!r}")
    return lo, hi


def cmd_sweep(args) -> int:
    lo, hi = _parse_range(args.n)
    try:  # trim_to_n refuses an n above the graph cap before building it
        last = trim_to_n(hi)
    except ValueError as exc:
        raise UsageError(f"n={hi}: {exc}")
    rows = []
    for n in range(lo, hi + 1):
        design, _trace = last if n == hi else trim_to_n(n)
        g, seed = _build_graph(design, args.order, f"n={n}")
        if g.n_vertices != n:
            print(f"sweep failed at n={n}: {g.n_vertices} vertices", file=sys.stderr)
            return 1
        if check_clique_free(g, 3) is not None:
            print(f"sweep failed at n={n}: triangle found", file=sys.stderr)
            return 1
        try:
            row = bounds_report(
                design,
                g,
                family="trim",
                param=str(n),
                order_seed=seed,
                exact_budget=args.exact_budget,
            )
        except ValueError as exc:
            print(f"sweep failed at n={n}: {exc}", file=sys.stderr)
            return 1
        cap = math.ceil(any_n_alpha_cap(n))
        if row.upper > cap:
            print(
                f"sweep failed at n={n}: points+blocks {row.upper} above cap {cap}",
                file=sys.stderr,
            )
            return 1
        rows.append(row)
    _write_report_rows(rows, args.format, args.out, array=True)
    return 0


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_order_flag(sub) -> None:
    sub.add_argument(
        "--order",
        default="id",
        metavar="id|random:<seed>",
        help="point order for the incidence graph (default: id)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-forge",
        description="Construct balanced-design incidence graphs and verify their bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    con = subs.add_parser("construct", help="build a design family member")
    con.add_argument(
        "--family",
        required=True,
        choices=("projective", "affine", "grid", "trim", "random"),
    )
    con.add_argument("--p", type=int, help="prime order (projective/affine)")
    con.add_argument("--N", type=int, help="grid parameter")
    con.add_argument("--n", type=int, help="target incidence count (trim)")
    con.add_argument("--points", type=int, help="point count (random)")
    con.add_argument("--block-size", type=int, help="block size (random)")
    con.add_argument("--strength", type=int, help="packing strength (random)")
    con.add_argument("--blocks", type=int, help="target block count (random)")
    con.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    con.add_argument("--out", default="design.json", help="design output path")
    con.add_argument("--trace-out", help="trim trace output path")
    con.set_defaults(func=cmd_construct)

    ver = subs.add_parser("verify", help="verify packing + clique-freeness")
    ver.add_argument("design", help="design JSON file")
    _add_order_flag(ver)
    ver.set_defaults(func=cmd_verify)

    ana = subs.add_parser("analyze", help="emit a bounds report row")
    ana.add_argument("design", help="design JSON file")
    _add_order_flag(ana)
    ana.add_argument("--family", help="family label for the report row")
    ana.add_argument("--p", type=int, help="parameter label")
    ana.add_argument("--N", type=int, help="parameter label")
    ana.add_argument("--n", type=int, help="parameter label")
    ana.add_argument("--exact-budget", type=_budget, default=DEFAULT_EXACT_BUDGET)
    ana.add_argument("--format", choices=("csv", "json"), default="csv")
    ana.add_argument("--out", help="report path (default: stdout)")
    ana.set_defaults(func=cmd_analyze)

    exp = subs.add_parser("export", help="export the incidence graph")
    exp.add_argument("design", help="design JSON file")
    _add_order_flag(exp)
    exp.add_argument("--format", choices=EXPORT_FORMATS, default="dimacs")
    exp.add_argument("--out", help="output path (default: stdout)")
    exp.set_defaults(func=cmd_export)

    swp = subs.add_parser("sweep", help="run the exact-size family over a range")
    swp.add_argument("--n", required=True, metavar="LO..HI", help="inclusive range")
    _add_order_flag(swp)
    swp.add_argument("--exact-budget", type=_budget, default=DEFAULT_EXACT_BUDGET)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--out", help="report path (default: stdout)")
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # `_output` maps the files' OSErrors, so this is standard output's:
        # point fd 1 at the null device, or the interpreter's last flush fails
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader has gone (`... | head`): say nothing
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
