"""Benchmark of the ramsey-forge command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload plane-certify --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, tracing off then on

With ``--trace 0`` the workload's commands run as child processes of
``python3 -m ramsey_forge`` (sources from ``src/``), one at a time in a closed
loop with a single client: set-up first, then passes over the workload's
commands until ``--seconds`` have been measured.  Every command's exit code and
output are checked.  With ``--trace 1`` each command of the set-up and of one
pass runs as above and then again in this process through
``ramsey_forge.cli.main``, with every public function of the layers wrapped in
a span (see ``tracing.py``); the traced outputs must equal the untraced ones
byte for byte.

Details go to standard output, and to ``perfbench/results/``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--record`` stores the output digests and alpha
values of the run as the expected ones for its seed in ``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYERS, Tracer, instrument  # noqa: E402
from workloads import REPORT_FIELDS, WORKLOADS, Op, Workload  # noqa: E402

SRC = ROOT / "src"
EXPECTED_FILE = BENCH_DIR / "expected.json"
RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / ".work"
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# On a shared 2-vCPU virtual machine the CPU speed was seen to swing by up to
# 2x within minutes, on both cores at once.  So while a child runs on one
# core, the idle harness times a fixed loop on the other every
# SAMPLE_INTERVAL_S, and each command's wall time is also given rescaled to the
# speed at which the loop takes CALIBRATION_REF_S ("reference seconds").  The
# end-to-end metrics are in reference seconds; raw wall times are logged
# beside them.  This assumes the program uses one core, as ramsey-forge does.
SAMPLE_INTERVAL_S = 0.05
CALIBRATION_REF_S = 0.0011

# Metrics as BENCHMARK.json lists them; run_workload computes each one.
END_TO_END_UNITS = {"certify_s": "s", "output_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_TIMES = (
    [f"{layer}_s" for layer in LAYERS]
    + ["other_s", "tracing_overhead_s"]
    + [
        "cli.startup_s",
        "designs.design_from_json_s",
        "designs.validate_packing_s",
        "incidence_graphs.build_gamma_s",
        "incidence_graphs.graph_validate_s",
        "incidence_graphs.check_clique_free_s",
    ]
)
PER_LAYER_COUNTS = (
    "vertices", "edges", "incidences", "designs.subsets_registered", "output_bytes", "spans",
)
# Per-command timings, printed beside the end-to-end metrics.
COMMAND_METRICS = {"verify": "verify_s", "export": "export_s", "sweep": "sweep_s",
                   "analyze": "analyze_s"}


def calibration_loop() -> float:
    """Time a fixed pure-Python loop (1.1-2.5 ms on a 2-vCPU Xeon VM, CPython 3.11)."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Times calibration_loop every SAMPLE_INTERVAL_S until the block ends."""

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)

    def _sample(self) -> None:
        while True:
            self.samples.append(calibration_loop())
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """Reference seconds per wall second while the block ran."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


@dataclass
class Outcome:
    """One executed command: timing, memory, output digests and problems.

    ``wall`` is in seconds, ``ref`` in reference seconds and ``rss_mb`` is the
    child's own peak RSS; the last two are None for a command run in process.
    """

    op: Op
    wall: float
    ref: Optional[float]
    rss_mb: Optional[float]
    stdout: str
    problems: list
    digests: dict
    first_lines: dict

    @property
    def ok(self) -> bool:
        return not self.problems


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def count(self, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"{outcome.op.key}: {'; '.join(outcome.problems)}"[:400])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """Executes and checks the commands of one workload run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float,
                 record: bool):
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline
        self.tally = Tally()
        self.env = {k: v for k, v in os.environ.items() if k != "RAMSEY_FORGE_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        expected = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
        self.expected = None
        if not record and expected.get("seed") == seed:
            self.expected = expected["workloads"].get(workload.name)
        # Digests seen in this run: a repeated command must repeat its bytes.
        self.seen: dict = {}
        self.alpha: dict = {}
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def child(self, argv: list, cwd: Path):
        """Run one child to completion through the spawner (see spawner.py).

        Returns (wall, reference seconds, peak RSS MB, exit code, stdout,
        stderr); the exit code and the child's own peak RSS come from
        os.wait4 on that child alone.
        """
        out, err = self.workdir / ".stdout", self.workdir / ".stderr"
        request = {"argv": argv, "env": self.env, "cwd": str(cwd), "stdout": str(out),
                   "stderr": str(err), "timeout": max(1.0, self.deadline - time.monotonic())}
        with SpeedSampler() as speed:
            self.spawner.stdin.write(json.dumps(request) + "\n")
            self.spawner.stdin.flush()
            reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(reply)
        wall = reply["wall"]
        return (wall, wall * speed.factor(), reply["maxrss_kb"] / 1024.0, reply["code"],
                out.read_text(errors="replace"), err.read_text(errors="replace"))

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=30)

    def execute(self, op: Op, tally: Tally | None = None) -> Outcome:
        """Run one command as a child process, check it and count it."""
        argv = [sys.executable, "-m", "ramsey_forge", *op.args]
        for name in op.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        wall, ref, rss, code, stdout, stderr = self.child(argv, self.workdir)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[-200:]}")
        outcome = self.evaluate(op, wall, ref, rss, stdout, problems, self.workdir)
        (tally or self.tally).count(outcome)
        return outcome

    def evaluate(self, op: Op, wall: float, ref, rss, stdout: str, problems: list,
                 workdir: Path) -> Outcome:
        outputs, digests, first_lines = {}, {"stdout": sha256(stdout.encode())}, {}
        if not problems:
            try:
                for name in op.outputs:
                    outputs[name] = (workdir / name).read_bytes()
                    digests[name] = sha256(outputs[name])
                    first_lines[name] = outputs[name].split(b"\n", 1)[0]
                problems.extend(op.check(stdout, outputs, workdir))
                if op.kind == "analyze":
                    row = outputs[op.outputs[0]].decode().splitlines()[1]
                    self.alpha[op.key] = row.split(",")[REPORT_FIELDS.index("exact")]
            except Exception as exc:  # a malformed output must count as a failed op
                problems.append(f"output check raised {exc!r}")
            problems.extend(self.digest_problems(op, digests))
        return Outcome(op, wall, ref, rss, stdout, problems, digests, first_lines)

    def digest_problems(self, op: Op, digests: dict) -> list:
        problems = []
        for name, digest in digests.items():
            key = f"{op.key} :: {name}"
            first = self.seen.setdefault(key, digest)
            if first != digest:
                problems.append(f"{name} differs from an earlier run of the same command")
            if self.expected is not None:
                want = self.expected["digests"].get(key)
                if want != digest:
                    problems.append(f"{name} digest {digest[:12]}, recorded {str(want)[:12]}")
        if self.expected is not None and op.key in self.alpha:
            want = self.expected["alpha"].get(op.key)
            if want != self.alpha[op.key]:
                problems.append(f"exact alpha {self.alpha[op.key]}, recorded {want}")
        return problems


def self_check(run: Run) -> tuple:
    """A deliberately invalid design must come back as one failed op.

    Blocks 0 and 1 share the pair {0, 1}, so verify exits 1; the harness
    must count that, not crash on it or drop it.
    """
    bad = run.workdir / "selfcheck-invalid.json"
    bad.write_text('{"point_count":3,"strength":2,"blocks":[[0,1,2],[0,1]]}\n')
    op = Op("selfcheck", ("verify", bad.name),
            lambda stdout, outputs, workdir: [] if stdout.startswith("packing: valid") else
            [f"verify printed {stdout.strip()!r}"])
    tally = Tally()
    outcome = run.execute(op, tally)
    ok = (tally.attempted == 1 and tally.failed == 1
          and any(p.startswith("exit code 1:") for p in outcome.problems))
    return ok, f"invalid design -> {'; '.join(outcome.problems)[:160]}"


def summarize(samples: list) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)  # nearest-rank percentile
        if n - rank >= 10:
            tail = {"pct": pct, "value": xs[rank - 1]}
            break
    return {"median": statistics.median(xs) if xs else None, "n": n, "tail": tail}


def fmt_summary(s: dict, unit: str) -> str:
    if s["median"] is None:
        return "not run by this workload"
    tail = (f"p{s['tail']['pct']} {s['tail']['value']:.4g} {unit}" if s["tail"]
            else "no tail (under 10 samples beyond p50)")
    return f"median {s['median']:.4g} {unit}, {tail}, n={s['n']}"


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "ramsey_forge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit or None,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "calibration_ms": statistics.median(calibration_loop() for _ in range(21)) * 1e3,
    }


def run_setup(run: Run, log) -> list:
    """Build the inputs SETUP_REPEATS times; returns each repeat's outcomes.

    Repeats overwrite the same files, and each must reproduce the bytes of
    the first (Run.digest_problems).
    """
    ops = run.workload.setup(run.seed)
    reps = []
    for rep in range(SETUP_REPEATS):
        reps.append([run.execute(op) for op in ops])
        log(f"setup {rep}: " + ", ".join(f"{o.op.kind} {o.wall:.3f} s" for o in reps[-1]))
    return reps


def run_cli_pass(run: Run, index: int, log) -> list:
    outcomes = [run.execute(op) for op in run.workload.passes(run.seed, index)]
    by_kind: dict = {}
    for o in outcomes:
        by_kind.setdefault(o.op.kind, []).append(o)
    log(f"pass {index}: " + ", ".join(
        f"{k} {sum(o.wall for o in v):.3f} s wall / {sum(o.ref for o in v):.3f} ref s ({len(v)})"
        for k, v in by_kind.items())
        + f", peak RSS {max(o.rss_mb for o in outcomes):.0f} MB, "
        f"{sum(not o.ok for o in outcomes)} failed")
    return outcomes


def measure_untraced(run: Run, seconds: float, log) -> list:
    """Closed loop of CLI passes for ``seconds``; returns each pass's outcomes."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while len(passes) < run.workload.min_passes or (
        time.monotonic() - start + longest <= seconds
        and time.monotonic() + longest < run.deadline
    ):
        t0 = time.monotonic()
        passes.append(run_cli_pass(run, len(passes), log))
        longest = max(longest, time.monotonic() - t0)
    return passes


def startup_probe(run: Run) -> float:
    wall, _, _, code, _, err = run.child([sys.executable, "-c", "import ramsey_forge.cli"],
                                         run.workdir)
    if code != 0:
        raise RuntimeError(f"importing ramsey_forge.cli failed: {err.strip()[-200:]}")
    return wall


def traced_op(run: Run, cli, tracer: Tracer, op: Op, workdir: Path):
    """Run one command in process under the tracer.

    The untraced CLI run of the same command came first, so the digest check
    in Run.evaluate requires the traced outputs to equal its bytes.
    """
    first = len(tracer.spans)
    tracer.add("cli.startup", startup_probe(run))
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the op fails; the run goes on
                code = f"exception {exc!r}"
            inproc = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    record = tracer.op_record(first, inproc)
    if code != 0:
        problems.append(f"exit code {code}: {err.getvalue().strip()[-200:]}")
    outcome = run.evaluate(op, record["wall_s"], None, None, out.getvalue(), problems, workdir)
    run.tally.count(outcome)
    record.update(op=op.key, ok=outcome.ok,
                  output_bytes=len(outcome.stdout.encode()) + sum(
                      (workdir / n).stat().st_size for n in op.outputs if (workdir / n).exists()))
    return outcome, record


def measure_traced(run: Run, seconds: float, log) -> list:
    """Traced passes, set-up commands included, until ``seconds`` have passed.

    Each command runs first as a child process, untraced, then in this
    process under the tracer, so that both see the same machine speed and the
    traced outputs can be compared with the untraced ones.  Returns, per
    pass, (tracer, traced records, untraced outcomes).
    """
    sys.path.insert(0, str(SRC))
    import ramsey_forge
    import ramsey_forge.cli as cli

    if not Path(ramsey_forge.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ramsey_forge imported from {ramsey_forge.__file__}, not {SRC}")
    passes = []
    start = time.monotonic()
    longest = 0.0
    while not passes or (time.monotonic() - start + longest <= seconds
                         and time.monotonic() + longest < run.deadline):
        t0 = time.monotonic()
        workdir = run.workdir / f"traced{len(passes)}"
        workdir.mkdir()
        tracer = Tracer()
        records, untraced = [], []
        restore = instrument(tracer)
        try:
            for op in run.workload.setup(run.seed) + run.workload.passes(run.seed, 0):
                untraced.append(run.execute(op))
                records.append(traced_op(run, cli, tracer, op, workdir)[1])
        finally:
            restore()
        shutil.rmtree(workdir)
        passes.append((tracer, records, untraced))
        longest = max(longest, time.monotonic() - t0)
        log(f"traced pass {len(passes) - 1}: wall {sum(r['wall_s'] for r in records):.3f} s "
            f"(+{sum(r['probe_s'] for r in records):.3f} s probes), untraced "
            f"{sum(o.wall for o in untraced):.3f} s, {sum(not r['ok'] for r in records)} failed")
    return passes


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, self time total, per-call summary and counts."""
    table: dict = {}
    for s in tracer.spans:
        if s.name == "counts":
            continue
        entry = table.setdefault(s.name, {"calls": 0, "self": [], "counts": {}})
        entry["calls"] += 1
        entry["self"].append(s.self_time)
        for key, value in s.counts.items():
            if key == "m":  # the clique size searched: list the values seen
                entry["counts"]["m"] = sorted(set(entry["counts"].get("m", [])) | {value})
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return table


def traced_metrics(tracer: Tracer, records: list, untraced_wall: float) -> dict:
    table = span_table(tracer)

    def total(name):
        return sum(table[name]["self"]) if name in table else 0.0

    def count(name, key):
        return table.get(name, {"counts": {}})["counts"].get(key, 0)

    traced_wall = sum(r["wall_s"] for r in records)
    metrics = {f"{layer}_s": sum(r["layers_s"][layer] for r in records) for layer in LAYERS}
    metrics["other_s"] = sum(r["other_s"] for r in records)
    metrics["tracing_overhead_s"] = traced_wall - untraced_wall
    for name in PER_LAYER_TIMES:
        if "." in name:
            metrics[name] = total(name[: -len("_s")])
    metrics["vertices"] = count("incidence_graphs.build_gamma", "vertices")
    metrics["edges"] = count("incidence_graphs.build_gamma", "edges")
    metrics["incidences"] = count("incidence_graphs.build_gamma", "incidences")
    metrics["designs.subsets_registered"] = count("designs.validate_packing", "subsets_registered")
    metrics["output_bytes"] = sum(r["output_bytes"] for r in records)
    metrics["spans"] = sum(entry["calls"] for entry in table.values())
    return metrics


def print_span_table(tracer: Tracer, log) -> None:
    for name, entry in sorted(span_table(tracer).items()):
        s = summarize(entry["self"])
        counts = ", ".join(f"{k}={v}" for k, v in entry["counts"].items())
        log(f"  {name + '_s':44} total {sum(entry['self']):9.4f} s, calls {entry['calls']:5d}, "
            f"per call {fmt_summary(s, 's')}" + (f"; {counts}" if counts else ""))


def end_to_end(setup_reps: list, passes: list) -> dict:
    """Summaries of the untraced samples: times in reference seconds under
    "value" and in wall seconds under "wall"; one sample per pass, or per
    set-up repeat, or per call for the per-call entries."""

    def times(groups, select):
        groups = [[o for o in g if select(o)] for g in groups]
        groups = [g for g in groups if g]
        return {"value": summarize([sum(o.ref for o in g) for g in groups]),
                "wall": summarize([sum(o.wall for o in g) for g in groups])}

    e2e = {
        "certify_s": times(passes, lambda o: o.op.role == "certify"),
        "output_s": times(passes, lambda o: o.op.role == "output"),
        "peak_rss_mb": {"value": summarize([max(o.rss_mb for o in p) for p in passes])},
        "setup_s": times(setup_reps, lambda o: True),
    }
    for kind, metric in COMMAND_METRICS.items():
        e2e[metric] = times(passes, lambda o: o.op.kind == kind)
        calls = [[o] for p in passes for o in p if o.op.kind == kind]
        if len(calls) > len(passes):
            e2e[f"{kind}_call_s"] = times(calls, lambda o: True)
    return e2e


def report_traced(traced: list, result: dict, log) -> dict:
    """Log the traced run and add it to ``result``; returns the per-layer
    metrics, each the median over the traced passes."""
    per_pass = [traced_metrics(t, r, sum(o.wall for o in u)) for t, r, u in traced]
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    tracer, records, untraced = traced[0]
    log("traced run, per operation (layer self times + other = traced wall):")
    for r, o in zip(records, untraced):
        parts = " ".join(f"{k}={v:.4f}" for k, v in r["layers_s"].items() if v)
        log(f"  {r['op'][:60]:60} wall {r['wall_s']:.4f} s = {parts} "
            f"other={r['other_s']:.4f} (untraced {o.wall:.4f} s)")
        if abs(sum(r["layers_s"].values()) + r["other_s"] - r["wall_s"]) > 1e-9:
            raise AssertionError("layer self times do not add up to the wall time")
    log(f"traced run, per span (pass 0 of {len(traced)}):")
    print_span_table(tracer, log)
    log(f"tracing overhead: traced wall minus untraced wall = "
        f"{metrics['tracing_overhead_s']:+.4f} s (median of {len(traced)} passes)")
    result["per_layer"] = metrics
    result["traced_ops"] = records
    result["spans"] = {name: {"calls": e["calls"], "self_s": sum(e["self"]), "counts": e["counts"]}
                       for name, e in span_table(tracer).items()}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, record: bool) -> dict:
    workload = WORKLOADS[name]
    lines: list = []

    def log(message: str) -> None:
        lines.append(message)
        print(message, flush=True)

    started = time.monotonic()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    run = Run(workload, seed, workdir, started + RUN_DEADLINE_S, record)
    try:
        env = environment(seed)
        log(f"== {name} seed={seed} seconds={seconds:g} trace={trace}: {workload.why}")
        log("env: " + json.dumps(env))
        checked_ok, message = self_check(run)
        log(f"harness self-check {'ok' if checked_ok else 'FAILED'}: {message}")
        setup_reps = run_setup(run, log)
        if trace:
            traced = measure_traced(run, seconds, log)
            setup_count = len(workload.setup(seed))
            passes = [untraced[setup_count:] for _, _, untraced in traced]
        else:
            passes = measure_untraced(run, seconds, log)
        across = workload.across([[(o.op, o.first_lines) for o in p] for p in passes])
        for problem in across:
            log(f"check across passes FAILED: {problem}")

        result = {"workload": name, "why": workload.why, "seed": seed, "trace": trace,
                  "seconds": seconds, "env": env, "self_check_ok": checked_ok}
        e2e = end_to_end(setup_reps, passes)
        log("end-to-end, tracing off (reference seconds; raw wall after the bar):")
        for metric, entry in e2e.items():
            unit = "MB" if metric.endswith("_mb") else "s"
            line = f"  {metric:16} {fmt_summary(entry['value'], unit)}"
            if "wall" in entry and entry["wall"]["median"] is not None:
                line += f" | wall median {entry['wall']['median']:.4g} s"
            log(line)
        total = run.tally.attempted
        log(f"  {'error_rate':16} {run.tally.failed / total:.4f} (failed {run.tally.failed} "
            f"of ops={total})")
        for failure in run.tally.failures[:20]:
            log(f"  FAILED {failure}")
        if run.alpha:
            log("exact alpha: " + ", ".join(f"{k.split()[1]} {k.split()[5] if '--order' in k else 'id'}"
                                            f"={v}" for k, v in run.alpha.items()))
        result["end_to_end"] = e2e
        result["error_rate"] = run.tally.failed / total
        result["alpha"] = run.alpha
        result["digests"] = dict(run.seen)

        if trace:
            metrics = report_traced(traced, result, log)
            reported = {m: metrics[m] for m in PER_LAYER_TIMES + list(PER_LAYER_COUNTS)}
            units = {m: ("s" if m.endswith("_s") else "count") for m in reported}
        else:
            reported = {m: e2e[m]["value"]["median"] for m in END_TO_END_UNITS}
            units = END_TO_END_UNITS
        summary = {
            "correct": checked_ok and not across and run.tally.failed == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in reported.items()},
        }
        result["summary"] = summary
        result["log"] = lines
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(result, indent=1, default=str) + "\n")
        if record:
            record_expected(name, seed, run)
        return summary
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def record_expected(name: str, seed: int, run: Run) -> None:
    expected = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    if expected.get("seed") != seed:
        expected = {"seed": seed, "workloads": {}}
    expected["workloads"][name] = {"digests": dict(sorted(run.seen.items())),
                                   "alpha": dict(sorted(run.alpha.items()))}
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests and alpha values as the expected ones")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if not (SRC / "ramsey_forge" / "cli.py").is_file():
        print(f"perfbench: no ramsey_forge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace, args.record)
        print(json.dumps(summary))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            summary = run_workload(name, args.seed, args.seconds, trace, args.record and not trace)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for metric, value in summary["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
