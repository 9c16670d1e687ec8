#!/usr/bin/env python3
"""dipolekit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload band_sweep --seed 0 --seconds 40 --trace 0

Workloads are defined in `workloads.py`. One run:

1. measures set-up: a fresh interpreter runs `import dipolekit` and
   `load_substrates()`, once to warm the file cache and then `SETUP_PROBES`
   times spread over the run; `setup_s` is the median.
2. imports dipolekit from `src/` and runs passes of the workload in this
   process, one task after another (a closed loop with one client), until
   `--seconds` have passed and at least `MIN_TASKS` tasks ran. Every output
   is checked against `reference/<workload>.json`. Each task is followed by
   the host-speed probe of `hostspeed.py`, and times are reported normalized
   by it (raw times are printed beside them).
3. prints the metrics by name with units, writes the full result to
   `bench/out/`, and prints one JSON object as the last line.

With `--trace 1` the run alternates untraced and traced passes over the same
inputs, reports the per-layer metrics of the traced passes (medians over
passes), the `-X importtime` set-up breakdown, the trace overhead, and
checks that the CSV output is byte-identical with and without tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import Plan, task_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads, kept at 1 (<= nproc): a single-threaded baseline, and no
#: contention with the other vCPU on small machines
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: each run holds at least this many tasks, so p90 has >= 10 samples beyond it
MIN_TASKS = 100
SETUP_PROBES = 5

_PROBE = ("import time; t0 = time.perf_counter(); import dipolekit; "
          "dipolekit.load_substrates(); print(time.perf_counter() - t0)")


def pin_blas_threads():
    """Fix the BLAS thread count; call before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_breakdown(stderr: str) -> dict[str, float]:
    """Import ms of dipolekit and of numpy and scipy as dipolekit imports them.

    From `-X importtime`: a dependency's figure is the cumulative time of
    the imports dipolekit's own modules make of it, so it includes whatever
    that dependency pulls in that was not loaded yet.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    totals = {"numpy": 0.0, "scipy": 0.0, "dipolekit": 0.0}
    stack: list[tuple[int, str]] = []   # enclosing imports, outermost first
    for depth, name, ms in reversed(entries):   # parents follow children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        parent = stack[-1][1].split(".")[0] if stack else None
        if top == "dipolekit":
            if parent is None:
                totals[top] += ms
        elif top in totals and parent == "dipolekit":
            totals[top] += ms
        stack.append((depth, name))
    return totals


class Setup:
    """Set-up probes: fresh interpreters importing dipolekit from src/.

    One warm-up probe fills the file cache and writes __pycache__; the
    measured probes are spread over the run (`due`), so that they sample
    the machine at different moments rather than one burst. Each is
    normalized by the host probe run just before it.
    """

    def __init__(self, importtime: bool, host):
        self.cmd = [sys.executable, *(("-X", "importtime") if importtime else ()),
                    "-c", _PROBE]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.host = host
        self.raw: list[float] = []
        self.seconds: list[float] = []
        self.imports: list[dict] = []
        self._run()

    def _run(self) -> subprocess.CompletedProcess:
        return subprocess.run(self.cmd, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)

    def _probe(self):
        scale = self.host.scale([self.host() for _ in range(3)])
        res = self._run()
        self.raw.append(float(res.stdout.split()[-1]))
        self.seconds.append(self.raw[-1] * scale)
        self.imports.append({k: ms * scale for k, ms in
                             _import_breakdown(res.stderr).items()})

    def due(self, elapsed: float, window: float):
        """Probe if the run has reached the next of SETUP_PROBES slots."""
        if len(self.seconds) < SETUP_PROBES and \
                elapsed >= len(self.seconds) * window / SETUP_PROBES:
            self._probe()

    def result(self) -> tuple[float, float, dict[str, float]]:
        """Median set-up seconds, normalized and raw, and import ms."""
        while len(self.seconds) < SETUP_PROBES:
            self._probe()
        return (statistics.median(self.seconds), statistics.median(self.raw),
                {k: statistics.median(i[k] for i in self.imports)
                 for k in self.imports[0]})


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dipolekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass    # no git: the src hash still identifies the code
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Pass:
    """One pass: per-task raw latency, host probe time and outcome."""

    def __init__(self):
        self.latencies: list[float] = []   # ms, as measured
        self.probe_ms: list[float] = []    # host probe right after the task
        self.scales: list[float] = []      # host scale per task
        self.outcomes = []

    @property
    def normalized(self) -> list[float]:
        return [ms * k for ms, k in zip(self.latencies, self.scales)]

    @property
    def wall_s(self) -> float:
        return sum(self.normalized) / 1e3


class Run:
    """Passes over one workload's seeded plan, with output checks."""

    def __init__(self, plan, reference, host):
        import tasks
        self.tasks = tasks
        self.plan = plan
        self.reference = reference
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def one_pass(self, argvs, tracer=None) -> Pass:
        """Run the tasks one after another, probing the host after each."""
        run_task = self.tasks.run_task
        result = Pass()
        for i, argv in enumerate(argvs):
            t0 = time.perf_counter_ns()
            if tracer is None:
                outcome = run_task(argv)
            else:
                tracer.task = i
                outcome = tracer.call("task." + argv[0], run_task, (argv,), {})
            result.latencies.append((time.perf_counter_ns() - t0) / 1e6)
            result.probe_ms.append(self.host())
            result.outcomes.append(outcome)
        result.scales = self.host.scales(result.probe_ms)
        self.check(argvs, result.outcomes)
        return result

    def check(self, argvs, outcomes):
        for argv, outcome in zip(argvs, outcomes):
            self.attempted += 1
            key = task_key(argv)
            bad = self.tasks.compare(self.tasks.extract(argv, outcome),
                                     self.reference.get(key))
            if bad:
                self.failed += 1
                if len(self.mismatches) < 20:
                    self.mismatches.append("%s: %s" % (key, "; ".join(bad)))

    def rounds(self, seconds: float, setup: Setup, min_tasks: int = 0):
        """Yield round numbers until the next round would overrun `seconds`.

        Set-up probes run between rounds when due.
        """
        start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            yield k
            k += 1
            took = time.perf_counter() - t0
            setup.due(time.perf_counter() - start, seconds)
            if self.attempted >= min_tasks and \
                    time.perf_counter() - start + took > seconds:
                return


def _p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def run_untraced(run: Run, seconds: float, setup: Setup) -> dict:
    passes = [run.one_pass(run.plan.pass_tasks(k))
              for k in run.rounds(seconds, setup, MIN_TASKS)]
    normalized = [ms for p in passes for ms in p.normalized]
    raw = [ms for p in passes for ms in p.latencies]
    out = {"wall_s": statistics.fmean(p.wall_s for p in passes),
           "wall_s.raw": statistics.fmean(sum(p.latencies) / 1e3
                                          for p in passes),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "passes": len(passes), "tasks": len(raw),
           "latencies_ms": raw,
           "probe_ms": [ms for p in passes for ms in p.probe_ms]}
    out["task_ms_p50"], out["task_ms_p90"] = _p50_p90(normalized)
    out["task_ms_p50.raw"], out["task_ms_p90.raw"] = _p50_p90(raw)
    return out


def run_traced(run: Run, seconds: float, setup: Setup,
               spans_path: Path) -> dict:
    """Alternate untraced and traced passes over identical inputs."""
    import spans
    walls = {False: [], True: []}
    layers, tracers = [], []
    identical = True
    for k in run.rounds(seconds, setup):
        argvs = run.plan.pass_tasks(k)
        outputs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer = spans.Tracer() if traced else None
            uninstall = spans.install(tracer) if traced else None
            try:
                result = run.one_pass(argvs, tracer)
            finally:
                if uninstall:
                    uninstall()
            walls[traced].append(result.wall_s)
            outputs[traced] = [(o.exit, o.stdout) for o in result.outcomes]
            if traced:
                tracers.append(tracer)
                layers.append(spans.aggregate(tracer.spans, result.scales))
        identical &= outputs[False] == outputs[True]
    table = {key: statistics.median(layer.get(key, 0) for layer in layers)
             for key in sorted(set().union(*layers))}
    table["wall_s.untraced"] = statistics.fmean(walls[False])
    table["wall_s.traced"] = statistics.fmean(walls[True])
    table["trace.overhead_frac"] = \
        table["wall_s.traced"] / table["wall_s.untraced"] - 1.0
    with open(spans_path, "w") as fh:
        fh.write(json.dumps(["pass", "id", "name", "parent", "task",
                             "start_ns", "end_ns", "n", "size"]) + "\n")
        for p, tracer in enumerate(tracers):
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps([p, i, *span]) + "\n")
    return {"passes": len(tracers), "csv_identical": identical,
            "layers": table}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dipolekit" / "__init__.py").is_file():
        print("error: %s has no dipolekit sources; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    try:
        plan = Plan(args.workload, args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    pin_blas_threads()
    import hostspeed
    host = hostspeed.HostProbe()
    setup = Setup(bool(args.trace), host)

    sys.path.insert(0, str(SRC))
    with open(HERE / "reference" / ("%s.json" % args.workload)) as fh:
        reference = json.load(fh)["records"]
    run = Run(plan, reference, host)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds}
    if args.trace:
        traced = run_traced(run, args.seconds, setup,
                            OUT / (stem + "-spans.jsonl"))
        layers = traced["layers"]
        for name, ms in setup.result()[2].items():
            layers["setup.import.%s.ms" % name] = ms
        correct = run.failed == 0 and traced["csv_identical"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        result.update(passes=traced["passes"],
                      csv_identical=traced["csv_identical"], layers=layers)
        print("per-layer medians over %d traced passes (per pass unless "
              "named .nN.ms, which is ms per call):" % traced["passes"])
        for key in sorted(layers):
            print("  %-46s %.6g" % (key, layers[key]))
        print("trace overhead: wall_s %.4f s untraced vs %.4f s traced (%+.1f%%)"
              % (layers["wall_s.untraced"], layers["wall_s.traced"],
                 100 * layers["trace.overhead_frac"]))
        print("csv byte-identical with tracing on and off: %s"
              % traced["csv_identical"])
    else:
        e2e = run_untraced(run, args.seconds, setup)
        e2e["setup_s"], e2e["setup_s.raw"], _ = setup.result()
        correct = run.failed == 0
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        result.update(e2e)
        print("host-normalized (raw as measured):")
        for k, m in metrics.items():
            raw = e2e.get(k + ".raw")
            print("%-12s %12.6g %-3s %s" % (k, m["value"], m["unit"],
                                          "" if raw is None else "(%.6g)" % raw))
        print("%-12s %12.6g (%d of %d tasks)" % (
            "fail_frac", run.failed / run.attempted, run.failed, run.attempted))
        print("samples: %d tasks in %d passes of %d; p90 has %d beyond it"
              % (e2e["tasks"], e2e["passes"], e2e["tasks"] // e2e["passes"],
                 e2e["tasks"] // 10))
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    for line in run.mismatches:
        print("mismatch: " + line)
    result.update(env=env, metrics=metrics, attempted=run.attempted,
                  failed=run.failed, fail_frac=run.failed / run.attempted,
                  mismatches=run.mismatches)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
