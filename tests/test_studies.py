import numpy as np
import pytest

from dipolekit import mom, studies
from dipolekit.design import DipoleGeometry, Substrate
from dipolekit.errors import BracketError
from dipolekit.studies import (
    OptimizeResult,
    StudyRow,
    length_study,
    optimize_for_max_rl,
    optimize_length,
    width_study,
)

FR4 = Substrate("fr4", 4.3, 1.6, 0.002)
BAND = (1.0e9, 1.6e9, 20e6)


@pytest.fixture(scope="module")
def length_rows():
    return length_study([63.0, 65.0, 67.0], FR4, *BAND)


def test_length_study_shape(length_rows):
    assert [r.param_mm for r in length_rows] == [63.0, 65.0, 67.0]
    assert all(r.error is None for r in length_rows)
    assert all(isinstance(r, StudyRow) for r in length_rows)


def test_length_study_figures(length_rows):
    for r in length_rows:
        assert r.vswr >= 1.0
        assert r.rl_db < -10.0
        assert r.bw_pct > 0.0
        assert 1.5 < r.directivity_dbi < 3.0
        # vswr and rl are reported at the same sample, so they round-trip
        gamma = (r.vswr - 1.0) / (r.vswr + 1.0)
        assert 20 * np.log10(gamma) == pytest.approx(r.rl_db, abs=1e-9)


def test_length_study_error_rows():
    rows = length_study([63.0, -5.0], FR4, *BAND)
    assert rows[0].error is None
    assert rows[1].error is not None
    assert rows[1].z_in is None


def test_width_study_rule_violation_row_keeps_its_message():
    # W/h = 40 breaks the w_over_h restriction before any mesh is built
    rows = width_study([6.0, 64.0], FR4, *BAND, length_mm=300.0)
    assert rows[0].error is None
    assert rows[1].error == "geometry violates restriction(s): w_over_h"


def test_study_row_keeps_the_first_failing_stage_message():
    # the design rules run inside the sweep, before the bandwidth refuses
    # the threshold
    rows = width_study([6.0, 40.0], FR4, 1.7e9, 1.9e9, 0.1e9,
                       length_mm=60.0, threshold_db=0.0)
    assert [r.error for r in rows] == [
        "threshold must be negative dB",
        "geometry violates restriction(s): w_over_h"]


def test_width_study_bandwidth_trend():
    rows = width_study([5.0, 6.0, 7.0, 8.0], FR4, *BAND, length_mm=60.0)
    bws = [r.bw_pct for r in rows]
    assert all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))


def test_optimize_length_resonates():
    res = optimize_length(FR4, 1.8e9, 35.0, 48.0)
    assert isinstance(res, OptimizeResult)
    assert res.converged
    assert res.iterations <= 60
    assert abs(res.z_in.imag) < 1.0
    assert 35.0 < res.length_mm < 48.0


def test_optimize_length_deterministic():
    a = optimize_length(FR4, 1.8e9, 35.0, 48.0)
    b = optimize_length(FR4, 1.8e9, 35.0, 48.0)
    assert a.length_mm == b.length_mm


def test_optimize_length_no_bracket():
    with pytest.raises(BracketError, match="ohm"):
        optimize_length(FR4, 1.8e9, 50.0, 58.0)


def test_optimize_max_rl():
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert res.converged
    assert res.s11_db < -15.0
    assert 35.0 < res.length_mm < 48.0


def test_max_rl_solves_final_length_once(monkeypatch):
    calls = []
    solve = studies.impedance_at

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(studies, "impedance_at", counted)
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    # 9 presamples, 2 initial golden points, one per further iteration,
    # and one for the final length
    assert len(calls) == res.iterations + 3


def test_study_row_builds_one_mesh(monkeypatch):
    meshes = []
    build = mom.build_mesh

    def counted(*args, **kwargs):
        meshes.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(mom, "build_mesh", counted)
    monkeypatch.setattr(studies, "build_mesh", counted)
    rows = length_study([65.0], FR4, *BAND)
    assert rows[0].error is None
    # the band sweep's mesh also serves the probe and pattern solves
    assert len(meshes) == 1


def test_every_solve_takes_the_one_path(monkeypatch):
    counts = dict.fromkeys(("solve_at", "assemble_system", "solve_current"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        wrapper = counted(name, getattr(mom, name))
        for module in (mom, studies):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    geometry = DipoleGeometry(L=67.0, W=6.0)
    mom.sweep(geometry, FR4, *BAND)
    length_study([65.0], FR4, *BAND)
    studies.study_pattern(geometry, FR4, 1.8e9)
    optimize_length(FR4, 1.8e9, 35.0, 48.0)
    # no solve pairs the column with its mesh outside solve_at
    assert counts["solve_at"] > 0
    assert counts["assemble_system"] == counts["solve_at"] \
        == counts["solve_current"]


def test_optimizers_agree():
    a = optimize_length(FR4, 1.8e9, 35.0, 48.0)
    b = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert abs(a.length_mm - b.length_mm) < 2.0


def test_max_rl_non_unimodal_flagged(monkeypatch):
    # an injected two-dip S11(L) defeats the golden-section precondition
    def two_dips(model, f, n=None):
        L = model.total_length
        s11 = -10.0 * np.exp(-((L - 38.0) ** 2)) - 9.0 * np.exp(-((L - 46.0) ** 2))
        gamma = 10.0 ** (s11 / 20.0)
        return complex(50.0 * (1.0 + gamma) / (1.0 - gamma))

    monkeypatch.setattr(studies, "impedance_at", two_dips)
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert not res.converged
    assert res.note == "non-unimodal"
    assert res.length_mm == pytest.approx(38.0, abs=1.0)


def test_max_rl_non_unimodal_reuses_grid_solves(monkeypatch):
    # two reactance dips, at 38 and 46 mm, seen through the S11 search
    calls = []

    def two_dips(model, f, n=None):
        L = model.total_length
        calls.append(L)
        return complex(50.0, 20.0 * min(abs(L - 38.0), abs(L - 46.0) + 0.5))

    monkeypatch.setattr(studies, "impedance_at", two_dips)
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert res.note == "non-unimodal"
    assert not res.converged
    assert res.length_mm == 38.25          # grid point 2 of 9
    assert res.z_in == 50 + 5j
    # the nine presamples only: the returned grid point is not solved again
    assert len(calls) == 9


def test_max_rl_degenerate_flagged(monkeypatch):
    monkeypatch.setattr(studies, "impedance_at",
                        lambda model, f, n=None: complex(30.0, 0.0))
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert res.note == "degenerate"
    assert not res.converged
    assert res.length_mm == 41.5          # the middle of the interval
    assert res.z_in == 30.0
