"""Tests of the benchmark itself: inputs, output checks and span accounting.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import tasks  # noqa: E402
from dipolekit import DipoleGeometry, check_design_rules, load_substrates, mom  # noqa: E402
from run import Run, _import_breakdown  # noqa: E402
from workloads import MIXES, SUBSTRATES, WORKLOADS, Plan, pool, task_key  # noqa: E402

SEEDS = (0, 1, 2, 7, 12345)
CATALOG = load_substrates()


def _reference(workload):
    with open(BENCH / "reference" / ("%s.json" % workload)) as fh:
        return json.load(fh)["records"]


def _check_geometry(sub, length, width, mesh=None):
    geometry = DipoleGeometry(L=length, W=width)
    assert check_design_rules(geometry, sub, 1.8e9).ok, (length, width)
    model = mom.geometry_model(geometry, sub)
    assert length > 20.0 * model.radius                  # thin-wire limit
    n = mesh or mom.default_segments(length, model.radius)
    assert length / n >= model.radius                    # mesh limit
    mom.build_mesh(model, n)


def _geometries(argv):
    """(length, width, mesh) of every geometry a task solves."""
    f = tasks._flags(argv)
    if argv[0] == "analyze":
        return [(float(f["--length"]), float(f["--width"]),
                 int(f["--mesh"]) if "--mesh" in f else None)]
    if argv[0] == "pattern":
        return [(float(f["--length"]), float(f["--width"]), None)]
    if argv[0] in ("optimize", "optimize-max-rl"):
        return [(float(f["--opt-low"]), float(f["--width"]), None),
                (float(f["--opt-high"]), float(f["--width"]), None)]
    if argv[0] == "study-length":
        return [(float(x), float(f["--width"]), None)
                for x in f["--lengths"].split(",")]
    if argv[0] == "study-width":
        h = SUBSTRATES[f["--substrate"]][1]
        # a width of 21 h is the deliberate design-rule violation
        return [(float(f["--length"]), float(x), None)
                for x in f["--widths"].split(",") if float(x) != round(21 * h, 1)]
    return []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_yields_valid_inputs_for_several_seeds(workload):
    reference = _reference(workload)
    per_pass = sum(MIXES[workload].values())
    seen = set()
    for seed in SEEDS:
        plan = Plan(workload, seed)
        for k in range(3):
            argvs = plan.pass_tasks(k)
            assert argvs == Plan(workload, seed).pass_tasks(k)
            assert len(argvs) == per_pass
            for argv in argvs:
                assert task_key(argv) in reference
                sub = CATALOG[tasks._flags(argv)["--substrate"]]
                for length, width, mesh in _geometries(argv):
                    _check_geometry(sub, length, width, mesh)
            seen.add(tuple(map(tuple, argvs)))
    assert len(seen) == 3 * len(SEEDS)      # seeds and passes differ


def test_band_sweep_and_fine_mesh_hit_their_meshes():
    for argv in Plan("band_sweep", 3).pass_tasks(0):
        f = tasks._flags(argv)
        radius = mom.strip_to_wire(float(f["--width"]))
        assert mom.default_segments(float(f["--length"]), radius) in (19, 21, 23)
        assert f["--band"] == "1000:2600:10"
    meshes = {int(tasks._flags(a)["--mesh"]) for a in Plan("fine_mesh", 3).pass_tasks(0)}
    assert meshes == {21, 41, 83, 161, 321}


#: a 5-frequency analyze at n = 21 on fr4 from the fine_mesh pool
FINE_TASK = pool("fine_mesh")["n21"][0]


def test_perturbed_z_in_is_caught(monkeypatch):
    reference = _reference("fine_mesh")
    key = task_key(FINE_TASK)
    outcome = tasks.run_task(FINE_TASK)
    assert tasks.compare(tasks.extract(FINE_TASK, outcome), reference[key]) == []

    exact = mom.input_impedance
    monkeypatch.setattr(mom, "input_impedance",
                        lambda current: exact(current) * (1 + 1e-8))
    perturbed = tasks.run_task(FINE_TASK)
    bad = tasks.compare(tasks.extract(FINE_TASK, perturbed), reference[key])
    assert any("Z_in differs" in b for b in bad)

    run = Run(Plan("fine_mesh", 0), reference, host=None)
    run.check([FINE_TASK, FINE_TASK], [outcome, perturbed])
    assert (run.attempted, run.failed) == (2, 1)


def test_tolerances_on_records():
    ref = next(r for k, r in _reference("design_loop").items()
               if k.startswith("optimize-max-rl"))
    rec = copy.deepcopy(ref)
    rec["z"] = [rec["z"][0] * (1 + 1e-12), rec["z"][1]]
    rec["length_mm"] += 5e-7
    assert tasks.compare(rec, ref) == []
    rec["z"][0] = ref["z"][0] * (1 + 1e-8)
    assert tasks.compare(rec, ref)
    # printed values may differ by one unit in the last printed place
    assert tasks._close_printed("L=42.4554 mm, S11 -36.58 dB",
                                "L=42.4553 mm, S11 -36.59 dB")
    assert not tasks._close_printed("L=42.4555 mm", "L=42.4553 mm")
    assert not tasks._close_printed("resonance none in band",
                                    "resonance 1119.4 MHz")


def test_expected_error_matches_reference():
    reference = _reference("design_loop")
    key, ref = next((k, r) for k, r in reference.items() if r["exit"] == 4)
    argv = key.split()
    rec = tasks.extract(argv, tasks.run_task(argv))
    assert rec["exit"] == 4 and tasks.compare(rec, ref) == []
    assert tasks.compare({"exit": 0, "text": ""}, ref)


def test_self_times_are_never_negative_and_sum_within_parent():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.call("task.pattern", tasks.run_task,
                    (["pattern", "--freq", "1120"],), {})
    finally:
        uninstall()
    assert mom.build_mesh.__name__ == "build_mesh" and \
        not hasattr(mom.build_mesh, "__wrapped__")
    records = tracer.spans
    names = {s[spans.NAME] for s in records}
    assert {"cli.main", "studies.study_pattern", "mom.solve_current",
            "farfield.pattern_from_current"} <= names
    own = spans.self_times(records)
    assert min(own) >= 0
    children = {}
    for s in records:
        if s[spans.PARENT] >= 0:
            children.setdefault(s[spans.PARENT], []).append(s)
    for parent, kids in children.items():
        p = records[parent]
        assert sum(k[spans.END] - k[spans.START] for k in kids) <= \
            p[spans.END] - p[spans.START]
    root = records[0]
    assert sum(own) == root[spans.END] - root[spans.START]


def test_aggregate_counts_work_per_mesh_size():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tasks.run_task(FINE_TASK)
    finally:
        uninstall()
    table = spans.aggregate(tracer.spans, [1.0])
    assert table["mom.assemble_system.calls"] == 5
    assert table["mom.assemble_system.kernel_evals"] == 5 * 96 * 21
    assert table["mom.solve_current.matrix_bytes"] == 5 * 16 * 21 ** 2
    assert table["cli.emit_sweep_csv.bytes"] > 0
    assert "mom.solve_current.n21.ms" in table


def test_host_scale_ignores_one_slow_probe():
    import hostspeed
    host = hostspeed.HostProbe()
    assert host.scales([2.0, 2.0, 20.0, 2.0, 2.0]) == [hostspeed.REF_MS / 2.0] * 5
    assert host() > 0


def test_import_breakdown_attributes_nested_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.ma",
        "import time:       300 |        400 |     scipy.linalg",
        "import time:       500 |        500 |     numpy",
        "import time:        50 |        950 |   dipolekit.mom",
        "import time:        10 |        960 | dipolekit",
    ])
    assert _import_breakdown(log) == {"numpy": 0.5, "scipy": 0.4,
                                      "dipolekit": 0.96}
