"""Span tracing from outside the program.

`install` replaces the public functions of the traced dipolekit modules by
wrappers that record one span per call: name, parent span, task, start and
end (ns), plus the segment count for mesh-sized stages and the bytes a CSV
emitter wrote. It replaces the module attributes and every alias the
traced modules imported (`from .mom import sweep` in `cli`, ...), so calls
between modules are seen as well. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread, so children never overlap and self time
is never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

TRACED_MODULES = ("mom", "metrics", "farfield", "studies", "design",
                  "microstrip", "cli")

#: stages whose cost depends on the mesh: span records the segment count
_MESH_ARG = {"mom.assemble_system": 0, "mom.solve_current": 1,
             "farfield.pattern_from_current": 1}

#: spans a study or optimizer result comes from, for the solves-per-result ratio
STUDY_RESULTS = ("studies.length_study", "studies.width_study",
                 "studies.optimize_length", "studies.optimize_for_max_rl")

# span fields
NAME, PARENT, TASK, START, END, N, SIZE = range(7)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = -1

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, self.task,
                time.perf_counter_ns(), 0, None, None]
        self.spans.append(span)
        self._stack.append(idx)
        emitted = name.startswith("cli.emit_")
        if emitted:
            pos = sys.stdout.tell()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        if name in _MESH_ARG:
            span[N] = args[_MESH_ARG[name]].n
        elif name == "mom.build_mesh":
            span[N] = result.n
        elif emitted:
            span[SIZE] = sys.stdout.tell() - pos
        elif name in STUDY_RESULTS:
            span[SIZE] = len(result) if isinstance(result, list) else 1
        return result


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer):
    """Wrap the traced modules' public functions; returns an undo callable."""
    package = importlib.import_module("dipolekit")
    modules = {m: importlib.import_module("dipolekit." + m)
               for m in TRACED_MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = _wrap(tracer, "%s.%s" % (short, attr), obj)
    undo = []
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
                undo.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)
    return uninstall


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans: list[list], scales: list[float]) -> dict:
    """Per-name calls, self and total ms, computed counts and per-n medians.

    Times are multiplied by the host scale of the task the span belongs to.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    per_n: dict[str, list[float]] = {}
    study_of = [None] * len(spans)
    solves = meshes = 0

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, s in enumerate(spans):
        name, n = s[NAME], s[N]
        scale = scales[s[TASK]] / 1e6
        dur = (s[END] - s[START]) * scale
        add(name + ".calls", 1)
        add(name + ".self_ms", own[i] * scale)
        add(name + ".total_ms", dur)
        if n is not None:
            per_n.setdefault("%s.n%d.ms" % (name, n), []).append(dur)
            if name == "mom.assemble_system":
                add(name + ".kernel_evals", 96 * n)   # 3 centers x 2 halves x 16 nodes
            elif name == "mom.solve_current":
                add(name + ".matrix_bytes", 16 * n * n)   # complex128 n x n
        if name.startswith("cli.emit_"):
            add(name + ".bytes", s[SIZE] or 0)
        if name in STUDY_RESULTS:
            study_of[i] = name
            add("studies.results", s[SIZE] or 0)
        elif s[PARENT] >= 0:
            study_of[i] = study_of[s[PARENT]]
        if study_of[i] and name == "mom.solve_current":
            solves += 1
        elif study_of[i] and name == "mom.build_mesh":
            meshes += 1
    if out.get("studies.results"):
        out["studies.solves_per_result"] = solves / out["studies.results"]
        out["studies.meshes_per_result"] = meshes / out["studies.results"]
    for key, durations in per_n.items():
        out[key] = statistics.median(durations)
    return out
