import math

import numpy as np
import pytest

from dipolekit import mom, studies
from dipolekit.design import DipoleGeometry, Substrate
from dipolekit.errors import BracketError, DesignRuleError
from dipolekit.studies import (
    OptimizeResult,
    StudyRow,
    length_study,
    optimize_for_max_rl,
    optimize_length,
    width_study,
)

FR4 = Substrate("fr4", 4.3, 1.6)
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
    assert str(rows[1].error) == "geometry violates restriction(s): w_over_h"


def test_study_refuses_a_bad_threshold_before_any_row(monkeypatch):
    # every row shares the threshold, so the study refuses it once, before
    # the first row's design rules (W = 40 mm breaks w_over_h) or solves;
    # with solve_band unset, a row that ran would fail with a TypeError
    monkeypatch.setattr(studies, "solve_band", None)
    with pytest.raises(ValueError, match="^threshold must be negative dB$"):
        width_study([6.0, 40.0], FR4, 1.7e9, 1.9e9, 0.1e9,
                    length_mm=60.0, threshold_db=0.0)


@pytest.mark.parametrize("route", [
    lambda z0: mom.sweep(DipoleGeometry(L=67.0, W=6.0), FR4, *BAND, z0=z0),
    lambda z0: length_study([65.0], FR4, *BAND, z0=z0),
    lambda z0: width_study([6.0], FR4, *BAND, z0=z0),
    lambda z0: optimize_length(FR4, 1.8e9, 35.0, 48.0, z0=z0),
    lambda z0: optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0, z0=z0),
], ids=["sweep", "length_study", "width_study", "optimize_length",
        "optimize_for_max_rl"])
def test_infinite_z0_is_refused_before_any_solve(route, monkeypatch):
    # an infinite z0 would give nan S11 and VSWR for every solved sample
    calls = []
    solve_at = mom.solve_at

    def counted(*args):
        calls.append(args)
        return solve_at(*args)

    for module in (mom, studies):
        monkeypatch.setattr(module, "solve_at", counted)
    route(50.0)
    assert calls   # the wrapper sees the route's solves
    calls.clear()
    with pytest.raises(ValueError, match="^reference impedance must be "
                       "finite and > 0, got inf$"):
        route(math.inf)
    assert calls == []


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
    # ends 1e-7 mm apart print as two numbers, not as [40, 40]
    with pytest.raises(BracketError, match=r"on \[40, 40\.0000001\] mm"):
        optimize_length(FR4, 1.8e9, 40.0, 40.0000001)


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


def test_study_checks_its_band_and_z0_once(monkeypatch):
    # every row solves the grid the study refused or accepted once;
    # reflection_coefficient's own z0 check goes through metrics, uncounted
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("frequency_grid", "check_z0"):
        wrapper = counted(name, getattr(studies, name))
        for module in (mom, studies):
            monkeypatch.setattr(module, name, wrapper)
    rows = length_study([63.0, 65.0, 67.0], FR4, 1.7e9, 1.9e9, 0.1e9)
    assert all(row.error is None for row in rows)
    assert sorted(calls) == ["check_z0", "frequency_grid"]


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


# W = 33 mm on 1.6 mm FR4 is W/h = 20.6, past the 20:1 restriction
@pytest.mark.parametrize("solve", [
    lambda: studies.study_pattern(DipoleGeometry(L=700.0, W=33.0), FR4, 1.8e9),
    lambda: optimize_length(FR4, 0.3e9, 250.0, 500.0, width_mm=33.0),
    lambda: optimize_for_max_rl(FR4, 0.3e9, 200.0, 400.0, width_mm=33.0),
    # the restrictions read no f, so they are checked before f is first used
    lambda: studies.study_pattern(DipoleGeometry(L=700.0, W=33.0), FR4,
                                  -1.8e9),
    lambda: optimize_length(FR4, -0.3e9, 250.0, 500.0, width_mm=33.0),
], ids=["study_pattern", "optimize_length", "optimize_for_max_rl",
        "study_pattern_at_a_negative_f", "optimize_length_at_a_negative_f"])
def test_every_route_to_a_solve_checks_the_design_rules(solve):
    with pytest.raises(DesignRuleError,
                       match="^geometry violates restriction\\(s\\): w_over_h$"):
        solve()


@pytest.fixture
def restriction_checks(monkeypatch):
    """The argument tuples of every evaluation of the restriction table."""
    calls = []
    check = mom.check_restrictions

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(mom, "check_restrictions", counted)
    return calls


def test_optimizer_evaluates_the_rule_table_once(restriction_checks):
    # the restrictions do not depend on L, so no length re-checks them
    res = optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    assert res.converged
    assert len(restriction_checks) == 1


@pytest.mark.parametrize("route, evaluations", [
    (lambda: mom.sweep(DipoleGeometry(L=67.0, W=6.0), FR4, *BAND), 1),
    (lambda: length_study([63.0, 65.0, 67.0], FR4, 1.7e9, 1.9e9, 0.1e9), 3),
    (lambda: studies.study_pattern(DipoleGeometry(L=67.0, W=6.0), FR4,
                                   1.8e9), 1),
    (lambda: optimize_length(FR4, 1.8e9, 35.0, 48.0), 1),
    (lambda: optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0), 1),
], ids=["sweep", "length_study", "study_pattern", "optimize_length",
        "optimize_for_max_rl"])
def test_every_route_evaluates_the_restrictions_once(route, evaluations,
                                                     restriction_checks):
    # once per geometry solved: a study row's sweep is its only gate
    route()
    assert len(restriction_checks) == evaluations


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
