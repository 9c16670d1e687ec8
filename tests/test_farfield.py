from dataclasses import replace

import numpy as np
import pytest

from dipolekit.farfield import (
    DegeneratePattern,
    PatternCut,
    directivity_from_intensity,
    h_plane_cut,
    hpbw_from_cut,
    pattern_from_current,
    radiation_intensity,
)
from dipolekit.mom import (
    WireModel,
    assemble_system,
    build_mesh,
    solve_current,
)

LAMBDA = 166.55136555555555   # mm at 1.8 GHz
THETA = np.arange(0.5, 180.0, 0.5)


def test_sin_theta_directivity_and_hpbw():
    # Hertzian pattern: D = 1.5 (1.7609 dBi), HPBW = 90 deg
    u = np.sin(np.radians(THETA)) ** 2
    d = directivity_from_intensity(THETA, u)
    assert 10 * np.log10(d) == pytest.approx(1.7609125905568124, abs=0.02)
    db = 10 * np.log10(u / u.max())
    assert hpbw_from_cut(THETA, db) == pytest.approx(90.0, abs=0.5)


def test_isotropic_directivity():
    u = np.ones_like(THETA)
    assert directivity_from_intensity(THETA, u) == pytest.approx(1.0, abs=1e-3)


def test_hpbw_full_span_sentinel():
    db = np.zeros_like(THETA)   # never drops 3 dB
    assert hpbw_from_cut(THETA, db) == THETA[-1] - THETA[0]


def test_degenerate_pattern():
    with pytest.raises(DegeneratePattern):
        directivity_from_intensity(THETA, np.zeros_like(THETA))


def _half_wave_cut():
    model = WireModel(total_length=LAMBDA / 2, radius=LAMBDA / 1000)
    mesh = build_mesh(model, n=41)
    cur = solve_current(assemble_system(mesh, 1.8e9), mesh)
    return pattern_from_current(cur, mesh, 1.8e9)


def test_half_wave_pattern():
    cut = _half_wave_cut()
    assert cut.plane == "E"
    assert cut.field_db.max() == 0.0
    # broadside peak
    assert cut.angles_deg[np.argmax(cut.field_db)] == pytest.approx(90.0, abs=1.0)
    assert cut.directivity_dbi == pytest.approx(2.15, abs=0.05)
    assert cut.hpbw_deg == pytest.approx(78.0, abs=2.0)


def test_pattern_symmetric_about_broadside():
    cut = _half_wave_cut()
    assert np.allclose(cut.field_db, cut.field_db[::-1], atol=1e-9)


def test_cut_angles_cannot_alter_the_next_cut():
    first = _half_wave_cut()
    try:
        first.angles_deg[:] = 0.0
    except ValueError:      # the shared grid is read-only
        pass
    second = _half_wave_cut()
    assert np.array_equal(second.angles_deg, THETA)
    assert second.directivity_dbi == pytest.approx(2.15, abs=0.05)


def test_radiation_intensity_scales_with_current():
    model = WireModel(total_length=LAMBDA / 2, radius=LAMBDA / 1000)
    mesh = build_mesh(model, n=21)
    cur = solve_current(assemble_system(mesh, 1.8e9), mesh)
    u1 = radiation_intensity(cur, mesh, 1.8e9)
    u2 = radiation_intensity(replace(cur, currents=2.0 * cur.currents),
                             mesh, 1.8e9)
    assert np.allclose(u2, 4.0 * u1, rtol=1e-9)


def test_pattern_effective_medium_scaling():
    # the medium of the mesh's wire model sets k: the E-plane cut of a wire
    # in eps_e at f is that of the same wire in free space at f*sqrt(eps_e)
    eps_e = 2.25
    cuts = []
    for eps, f in ((eps_e, 1.2e9), (1.0, 1.2e9 * np.sqrt(eps_e))):
        mesh = build_mesh(WireModel(40.0, 0.2, eps), n=31)
        cur = solve_current(assemble_system(mesh, f), mesh)
        cuts.append(pattern_from_current(cur, mesh, f))
    medium, free = cuts
    assert medium.directivity_dbi == pytest.approx(free.directivity_dbi,
                                                   abs=1e-9)
    assert np.abs(medium.field_db - free.field_db).max() <= 1e-9


def test_h_plane_flat():
    cut = h_plane_cut(2.15)
    assert cut.plane == "H"
    assert isinstance(cut, PatternCut)
    assert np.max(np.abs(cut.field_db)) <= 1e-9
    assert cut.directivity_dbi == 2.15
