"""Seeded task lists for the three benchmark workloads.

Every task is one CLI-level call, written as the argv the program sees.
Two tasks have no CLI command and are run as library calls by `tasks.py`:
`optimize-max-rl` (`studies.optimize_for_max_rl`) and the feed-line half of
`design` (`microstrip.feed_spec_for`).

Each workload draws from a fixed, finite pool of tasks so that every task a
seed can produce has a recorded reference output (`reference/`). A pool
is split into cost classes, and every pass of a run draws the same number of
tasks from each class (the workload's *mix*). Pass cost therefore depends on
the mix, not on the seed, which keeps runs with different seeds comparable.

The generator does not import dipolekit: sizes come from the catalog values
below and the design-wavelength rule, so the inputs stay fixed when the
program changes.
"""

from __future__ import annotations

import math
import random

#: catalog substrates as (eps_r, h_mm); mirrors src/dipolekit/data/substrates.txt
SUBSTRATES = {
    "fr4": (4.3, 1.6),
    "fr4_h2.08": (4.3, 2.08),
    "arlon_ad300": (3.0, 2.36),
    "rogers_rt5880": (2.2, 2.64),
}

C_MM_PER_S = 2.99792458e11

#: ROADMAP analysis band (161 points) and the README study band (61 points)
SWEEP_BAND = "1000:2600:10"
STUDY_BAND = "1000:1600:10"

WORKLOADS = ("band_sweep", "fine_mesh", "design_loop")

#: tasks drawn per pass from each cost class
MIXES = {
    # one geometry at 161 frequencies; auto mesh lands on n = 19, 21 or 23
    "band_sweep": {"n19": 4, "n21": 4, "n23": 4},
    # few frequencies on fine meshes; p50 falls in n83, p90 in n321
    "fine_mesh": {"n21": 2, "n41": 2, "n83": 5, "n161": 3, "n321": 3},
    # single-frequency, many-geometry work; p50 falls in the optimizers,
    # p90 in the (3-row) studies
    "design_loop": {"design": 2, "pattern": 6, "optimize": 5,
                    "optimize-bracket-error": 1, "optimize-max-rl": 6,
                    "study-length": 2, "study-width": 2},
}

FINE_MESHES = (21, 41, 83, 161, 321)


def design_wavelength(substrate: str, f_mhz: float) -> float:
    """Guided wavelength in mm from the averaged permittivity (eps_r+1)/2."""
    eps_r = SUBSTRATES[substrate][0]
    return C_MM_PER_S / (f_mhz * 1e6) / math.sqrt((eps_r + 1.0) / 2.0)


def _mm(x: float) -> str:
    return "%.1f" % x


def _band_sweep_pool() -> dict[str, list[list[str]]]:
    # 2L/W = m + 0.5 puts the auto mesh int(2L/W) - 1 (made odd) on
    # n = 19, 21, 23 for m = 20, 22, 24
    pool = {}
    for cls, m in (("n19", 20), ("n21", 22), ("n23", 24)):
        entries = []
        for sub in SUBSTRATES:
            for length in (48.0, 60.0, 72.0):
                width = 2.0 * length / (m + 0.5)
                entries.append(["analyze", "--substrate", sub,
                                "--length", _mm(length), "--width", "%.3f" % width,
                                "--band", SWEEP_BAND])
        pool[cls] = entries
    return pool


def _fine_mesh_pool() -> dict[str, list[list[str]]]:
    # strips thin enough that n = 321 keeps delta = L/n >= a = W/4
    geometries = ((55.0, 0.5), (67.0, 0.6), (80.0, 0.8))
    starts = (1000, 1400, 1800, 2200)
    pool = {}
    for n in FINE_MESHES:
        entries = []
        for i, sub in enumerate(SUBSTRATES):
            for j, (length, width) in enumerate(geometries):
                start = starts[(i + j + n) % len(starts)]
                entries.append(["analyze", "--substrate", sub,
                                "--length", _mm(length), "--width", _mm(width),
                                "--band", "%d:%d:50" % (start, start + 200),
                                "--mesh", str(n)])
        pool["n%d" % n] = entries
    return pool


_FREQS_MHZ = (900, 1200, 1500, 1800, 2100, 2400)
_STUDY_FREQS_MHZ = (1100, 1300, 1500)


def _design_loop_pool() -> dict[str, list[list[str]]]:
    pool = {k: [] for k in MIXES["design_loop"]}
    for i, sub in enumerate(SUBSTRATES):
        h = SUBSTRATES[sub][1]
        for j, f in enumerate(_FREQS_MHZ):
            lam = design_wavelength(sub, f)
            freq = ["--substrate", sub, "--freq", str(f)]
            feed = ("ideal", "stub", "via")[(i + j) % 3]
            pool["design"].append(["design", *freq, "--feed", feed])
            # brackets scaled from the design wavelength; the wire model's
            # fringing permittivity puts the reactance zero near 0.42 lambda.
            # Every fourth bracket lies below it, on a wire thin enough for
            # the thin-wire limit, and must end in a BracketError.
            low = (0.32, 0.34, 0.36)[(i + j) % 3] * lam
            high = (0.46, 0.48)[(i + j) % 2] * lam
            width = 0.05 * lam
            optimize = "optimize"
            if (i + j) % 4 == 3:
                low, high, width = 0.20 * lam, 0.30 * lam, 0.03 * lam
                optimize = "optimize-bracket-error"
            bracket = ["--width", _mm(width),
                       "--opt-low", _mm(low), "--opt-high", _mm(high)]
            pool[optimize].append(["optimize", *freq, *bracket])
            pool["optimize-max-rl"].append(["optimize-max-rl", *freq, *bracket])
            pool["pattern"].append(
                ["pattern", *freq,
                 "--length", _mm((0.42, 0.5, 0.6)[(i + j) % 3] * lam),
                 "--width", _mm(0.06 * lam), "--plane", "EH"[j % 2]])
        for j, f in enumerate(_STUDY_FREQS_MHZ):
            lam = design_wavelength(sub, f)
            freq = ["--substrate", sub, "--freq", str(f), "--band", STUDY_BAND]
            lengths = [_mm(k * lam) for k in (0.40, 0.45, 0.50)]
            pool["study-length"].append(
                ["study-length", *freq, "--width", _mm(0.05 * lam),
                 "--lengths", ",".join(lengths)])
            widths = [_mm(k * lam) for k in (0.04, 0.06, 0.08)]
            if (i + j) % 2:
                # a fourth row with W/h = 21 violates the w_over_h restriction
                # and must come back as an error row
                widths.append(_mm(21.0 * h))
            pool["study-width"].append(
                ["study-width", *freq, "--length", _mm(0.45 * lam),
                 "--widths", ",".join(widths)])
    return pool


_POOLS = {
    "band_sweep": _band_sweep_pool,
    "fine_mesh": _fine_mesh_pool,
    "design_loop": _design_loop_pool,
}


def pool(workload: str) -> dict[str, list[list[str]]]:
    """All tasks a seed can draw for the workload, by cost class."""
    return _POOLS[workload]()


class Plan:
    """The seeded sequence of passes of one workload.

    Pass k is drawn from `random.Random(f"{workload}:{seed}:{k}")`, so a seed
    fixes every pass's inputs and their order.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in _POOLS:
            raise ValueError("unknown workload %r (have: %s)"
                             % (workload, ", ".join(WORKLOADS)))
        self.workload = workload
        self.seed = seed
        self._pool = pool(workload)

    def pass_tasks(self, k: int) -> list[list[str]]:
        rng = random.Random("%s:%d:%d" % (self.workload, self.seed, k))
        tasks = []
        for cls, count in MIXES[self.workload].items():
            tasks.extend(rng.sample(self._pool[cls], count))
        rng.shuffle(tasks)
        return tasks


def task_key(argv: list[str]) -> str:
    return " ".join(argv)
