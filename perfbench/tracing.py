"""Layer spans for the traced benchmark run, recorded from outside the library.

:func:`instrument` replaces every public function of the ramsey_forge layer
modules, in every layer module namespace that refers to it, by a wrapper that
records a span named ``<module>.<function>``.  Calls between layers, and
calls inside one module through its globals (``trim_to_n`` calling
``affine_plane``, ``build_gamma`` calling ``validate_packing``), therefore get
their own spans, while the library itself stays unchanged.  Methods and
constructors of the library's classes are not wrapped; their time counts as
the self time of the calling function.

A span's self time is its duration minus the time its direct children cover.
Probes are timed regions the benchmark adds for its own measurements (graph
validation re-run from outside, counts): they are children of the enclosing
span, so they come out of its self time, and :meth:`Tracer.op_record` takes
them out of the operation's wall time as well.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from math import comb

LAYERS = ("constructions", "designs", "incidence_graphs", "bounds", "cli")


class Span:
    __slots__ = ("name", "probe", "start", "end", "child_time", "counts")

    def __init__(self, name: str, probe: bool) -> None:
        self.name = name
        self.probe = probe
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Keeps finished spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        s = Span(name, probe)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_time += s.duration
            self.spans.append(s)

    def probe(self, name: str):
        return self.span(name, probe=True)

    def add(self, name: str, duration: float) -> None:
        """Record a span measured elsewhere (the child-process start-up probe)."""
        s = Span(name, probe=False)
        s.end = s.start + duration
        self.spans.append(s)

    def op_record(self, first: int, inproc_wall: float) -> dict:
        """Account the spans recorded since index ``first`` as one operation.

        ``inproc_wall`` is the harness's own timing of the in-process call.
        The traced wall time adds the start-up span and removes probe time;
        ``other`` is the part of it no layer span covers, so the layer self
        times plus ``other`` add up to the traced wall time exactly.
        """
        spans = self.spans[first:]
        probe_time = sum(s.duration for s in spans if s.probe)
        startup = sum(s.duration for s in spans if s.name == "cli.startup")
        wall = inproc_wall - probe_time + startup
        layers = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            if not s.probe:
                layers[s.name.split(".", 1)[0]] += s.self_time
        return {
            "wall_s": wall,
            "layers_s": layers,
            "other_s": wall - sum(layers.values()),
            "probe_s": probe_time,
        }


def _record_counts(name: str, span: Span, args: tuple, result) -> None:
    """Counts taken at a layer boundary, in a probe so their cost is excluded."""
    if name == "incidence_graphs.build_gamma":
        span.counts.update(
            vertices=result.n_vertices,
            edges=result.edge_count,
            incidences=sum(len(b) for b in args[0].design.blocks),
        )
    elif name == "designs.validate_packing":
        design = args[0]
        span.counts["subsets_registered"] = sum(
            comb(len(b), design.strength) for b in design.blocks
        )
    elif name == "incidence_graphs.check_clique_free":
        span.counts["m"] = args[1]
    elif name == "incidence_graphs.export_graph":
        span.counts["export_bytes"] = len(result)
    elif name == "bounds.exact_max_independent_set":
        span.counts["exact_alpha"] = result.size


def _traced(tracer: Tracer, name: str, fn, graph_class):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        with tracer.probe("counts"):
            _record_counts(name, span, args, result)
        if name == "incidence_graphs.build_gamma":
            # The O(edges) validation in IncidenceGraph.__post_init__, timed
            # on its own by building the same graph again from outside.
            with tracer.probe("incidence_graphs.graph_validate"):
                graph_class(result.vertices, result.adjacency, result.m)
        return result

    return wrapper


def instrument(tracer: Tracer, package: str = "ramsey_forge"):
    """Wrap the layers' public functions; returns a function that undoes it."""
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    graph_class = modules[LAYERS.index("incidence_graphs")].IncidenceGraph
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                wrappers[obj] = _traced(tracer, f"{layer}.{attr}", obj, graph_class)
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def restore() -> None:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)

    return restore
