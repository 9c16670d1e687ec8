from dataclasses import replace

import numpy as np
import pytest

from dipolekit.farfield import (
    DEFAULT_THETA_DEG,
    DegeneratePattern,
    PatternCut,
    directivity_from_intensity,
    h_plane_cut,
    hpbw_from_cut,
    pattern_from_current,
    radiation_intensity,
)
from dipolekit.design import DipoleGeometry, load_substrates
from dipolekit.errors import MeshError
from dipolekit.mom import CurrentDistribution, WireModel, build_mesh, \
    geometry_model, solve_at, wavenumber

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
    # no power, a nan one, and one whose integral overflows to inf
    for u in (np.zeros_like(THETA), np.full_like(THETA, np.nan),
              np.full_like(THETA, 1e308)):
        with np.errstate(over="ignore"), \
                pytest.raises(DegeneratePattern, match="^radiated power "
                              "must be finite and > 0, got "):
            directivity_from_intensity(THETA, u)


def _half_wave_cut():
    model = WireModel(total_length=LAMBDA / 2, radius=LAMBDA / 1000)
    mesh = build_mesh(model, n=41)
    cur = solve_at(mesh, 1.8e9)
    return pattern_from_current(cur, mesh)


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
    cur = solve_at(mesh, 1.8e9)
    u1 = radiation_intensity(cur, mesh)
    u2 = radiation_intensity(replace(cur, currents=2.0 * cur.currents),
                             mesh)
    assert np.allclose(u2, 4.0 * u1, rtol=1e-9)


def test_current_from_another_mesh_raises_mesh_error():
    model = WireModel(total_length=LAMBDA / 2, radius=LAMBDA / 1000)
    cur = solve_at(build_mesh(model, n=21), 1.8e9)
    # another n, and the same n on a longer wire (whose nodes differ)
    for other in (build_mesh(model, n=41),
                  build_mesh(replace(model, total_length=120.0), n=21)):
        with pytest.raises(MeshError, match="21 nodes"):
            radiation_intensity(cur, other)
        with pytest.raises(MeshError, match="21 nodes"):
            pattern_from_current(cur, other)
    # a second build of the current's own model and n is the same mesh
    pattern_from_current(cur, build_mesh(model, n=21))
    # currents that do not fit the mesh they name
    bad = CurrentDistribution(np.ones(41, dtype=complex), cur.mesh, cur.f)
    with pytest.raises(MeshError, match="41 nodes"):
        radiation_intensity(bad, cur.mesh)


def test_pattern_effective_medium_scaling():
    # the medium of the mesh's wire model sets k: the E-plane cut of a wire
    # in eps_e at f is that of the same wire in free space at f*sqrt(eps_e)
    eps_e = 2.25
    cuts = []
    for eps, f in ((eps_e, 1.2e9), (1.0, 1.2e9 * np.sqrt(eps_e))):
        mesh = build_mesh(WireModel(40.0, 0.2, eps), n=31)
        cur = solve_at(mesh, f)
        cuts.append(pattern_from_current(cur, mesh))
    medium, free = cuts
    assert medium.directivity_dbi == pytest.approx(free.directivity_dbi,
                                                   abs=1e-9)
    assert np.abs(medium.field_db - free.field_db).max() <= 1e-9


def test_each_current_is_cut_at_the_frequency_it_was_solved_at():
    # one mesh of the 67x6 mm FR4 strip (n = 21) solved at two frequencies:
    # each cut takes k from its own current's f, so the 1.1 GHz current
    # reads 2.13 dBi, not the 2.89 dBi that k at 2.0 GHz would give it
    model = geometry_model(DipoleGeometry(L=67.0, W=6.0),
                           load_substrates()["fr4"])
    mesh = build_mesh(model, n=21)
    theta = np.radians(DEFAULT_THETA_DEG)
    cuts = []
    for f in (1.1e9, 2.0e9):
        cur = solve_at(mesh, f)
        assert cur.f == f
        k = wavenumber(f, model.eps_e)
        phase = np.exp(1j * k * np.outer(np.cos(theta), mesh.nodes))
        u = np.abs(np.sin(theta) * (phase @ cur.currents)) ** 2
        assert np.allclose(radiation_intensity(cur, mesh), u, rtol=1e-12,
                           atol=0.0)
        cut = pattern_from_current(cur, mesh)
        d = directivity_from_intensity(DEFAULT_THETA_DEG, u)
        assert cut.directivity_dbi == pytest.approx(10 * np.log10(d),
                                                    rel=1e-12)
        cuts.append(cut)
    assert [round(c.directivity_dbi, 2) for c in cuts] == [2.13, 3.29]


def test_h_plane_flat():
    cut = h_plane_cut(2.15)
    assert cut.plane == "H"
    assert isinstance(cut, PatternCut)
    assert np.max(np.abs(cut.field_db)) <= 1e-9
    assert cut.directivity_dbi == 2.15


def _reference_hpbw(angles_deg, field_db):
    """hpbw_from_cut as written before metrics.level_crossings existed."""
    angles = np.asarray(angles_deg, dtype=float)
    db = np.asarray(field_db, dtype=float)
    i_pk = int(np.argmax(db))
    level = db[i_pk] - 3.0

    def _edge(idx_range):
        prev = i_pk
        for i in idx_range:
            if db[i] <= level:
                # interpolate between prev (above) and i (at/below)
                frac = (db[prev] - level) / (db[prev] - db[i])
                return angles[prev] + frac * (angles[i] - angles[prev])
            prev = i
        return None

    right = _edge(range(i_pk + 1, len(db)))
    left = _edge(range(i_pk - 1, -1, -1))
    if right is None or left is None:
        return float(angles[-1] - angles[0])
    return float(right - left)


def _random_cuts(angles, count, seed):
    rng = np.random.default_rng(seed)
    t = np.radians(angles)
    for _ in range(count):
        # a lobe of random width and place, plus ripple: every run length,
        # and a cut that never drops 3 dB
        lobe = rng.uniform(0.0, 40.0) * (np.cos(t - rng.uniform(0, np.pi)) - 1)
        ripple = rng.normal(0.0, rng.uniform(0.0, 2.0), angles.size)
        db = lobe + ripple
        yield db - db.max()


def test_hpbw_matches_reference_bit_for_bit_on_default_grid():
    full = 0
    for db in _random_cuts(DEFAULT_THETA_DEG, 3000, 14):
        hpbw = hpbw_from_cut(DEFAULT_THETA_DEG, db)
        assert hpbw == _reference_hpbw(DEFAULT_THETA_DEG, db)
        assert type(hpbw) is float
        full += hpbw == DEFAULT_THETA_DEG[-1] - DEFAULT_THETA_DEG[0]
    assert 0 < full < 3000


def test_hpbw_matches_reference_on_another_step():
    theta = np.linspace(0.3, 179.7, 301)   # step 0.598 deg, not a power of 2
    for db in _random_cuts(theta, 1000, 15):
        assert hpbw_from_cut(theta, db) == pytest.approx(
            _reference_hpbw(theta, db), rel=0, abs=1e-12)
