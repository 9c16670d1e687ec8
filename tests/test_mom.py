from dataclasses import fields

import numpy as np
import pytest

from dipolekit.design import DipoleGeometry, Substrate
from dipolekit.errors import DesignRuleError, MeshError, SolverError
from dipolekit.metrics import SweepResult
from dipolekit.mom import (
    ETA0,
    SegmentMesh,
    WireModel,
    assemble_system,
    build_mesh,
    default_segments,
    frequency_grid,
    geometry_model,
    impedance_at,
    input_impedance,
    max_segments,
    solve_current,
    strip_to_wire,
    sweep,
    wavenumber,
)

FR4 = Substrate("fr4", 4.3, 1.6, 0.002)
LAMBDA_18 = 166.55136555555555   # mm at 1.8 GHz in free space


def thin_half_wave():
    return WireModel(total_length=LAMBDA_18 / 2, radius=LAMBDA_18 / 1000)


def loop_assemble(n: int, f: float, model: WireModel) -> np.ndarray:
    """Reference Galerkin fill: the six quadrature blocks in a Python loop,
    all geometry recomputed from (n, h, a) at every frequency."""
    k = wavenumber(f, model.eps_e)
    eta = ETA0 / np.sqrt(model.eps_e)
    a = model.radius
    h = model.total_length / (n + 1)
    sk = np.sin(k * h)
    xq, wq = np.polynomial.legendre.leggauss(16)
    offsets = np.arange(n) * h
    col = np.zeros(n, dtype=complex)
    for j, c in zip((-1.0, 0.0, 1.0), (1.0, -2.0 * np.cos(k * h), 1.0)):
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            t1 = np.arcsinh((offsets + (lo - j) * h) / a)
            t2 = np.arcsinh((offsets + (hi - j) * h) / a)
            tm = (t2 + t1) / 2.0
            td = (t2 - t1) / 2.0
            t = tm[:, None] + xq[None, :] * td[:, None]
            z_rel = a * np.sinh(t) + j * h - offsets[:, None]
            R = a * np.cosh(t)
            fm = np.sin(k * (h - np.abs(z_rel))) / sk
            col += c * td * np.sum(wq[None, :] * fm * np.exp(-1j * k * R), axis=1)
    col *= 1j * eta / (4.0 * np.pi * sk)
    return np.array([[col[abs(r - s)] for s in range(n)] for r in range(n)])


def test_strip_to_wire():
    assert strip_to_wire(6.0) == 1.5
    with pytest.raises(ValueError):
        strip_to_wire(0.0)


def test_wire_model_validation():
    with pytest.raises(ValueError):
        WireModel(total_length=10.0, radius=1.0)    # L <= 20a
    with pytest.raises(ValueError):
        WireModel(total_length=100.0, radius=-1.0)
    with pytest.raises(ValueError):
        WireModel(total_length=100.0, radius=1.0, eps_e=0.5)


def test_wavenumber():
    k = wavenumber(1.8e9, 1.0)
    assert k == pytest.approx(2 * np.pi / LAMBDA_18)
    assert wavenumber(1.8e9, 4.0) == pytest.approx(2 * k)


def test_build_mesh_basics():
    mesh = build_mesh(thin_half_wave(), n=41)
    assert mesh.n == 41
    assert mesh.feed_index == 20
    assert mesh.delta == pytest.approx(LAMBDA_18 / 2 / 41)
    # interior nodes symmetric about the feed, half-bases pinned to the tips
    assert mesh.nodes[20] == 0.0
    h = mesh.total_length / 42
    assert mesh.nodes[-1] + h == pytest.approx(mesh.total_length / 2)
    assert np.allclose(mesh.nodes, -mesh.nodes[::-1])


def test_build_mesh_rejects_bad_n():
    model = thin_half_wave()
    with pytest.raises(MeshError, match="odd"):
        build_mesh(model, n=40)
    with pytest.raises(MeshError):
        build_mesh(model, n=5)
    fat = WireModel(total_length=67.0, radius=1.5)
    with pytest.raises(MeshError, match="n <="):
        build_mesh(fat, n=45)
    assert max_segments(67.0, 1.5) == 43


def test_build_mesh_defaults_to_default_segments():
    for model in (thin_half_wave(), WireModel(67.0, 1.5, 3.3)):
        auto = build_mesh(model)
        explicit = build_mesh(model, default_segments(model.total_length,
                                                      model.radius))
        for name in fields(SegmentMesh):
            assert np.array_equal(getattr(auto, name.name),
                                  getattr(explicit, name.name))


def test_degenerate_systems_raise_solver_error():
    model = WireModel(67.0, 1.5, 3.3)
    mesh = build_mesh(model)
    with pytest.raises(SolverError, match="underflows"):
        assemble_system(mesh, 1e-294, model)
    with pytest.raises(SolverError, match="condition"):
        solve_current(np.full((mesh.n, mesh.n), np.nan, dtype=complex), mesh)
    # L/(2a) overflows to inf: still the capped count, not an OverflowError
    assert default_segments(1e300, 1e-10) == 41


def test_default_segments_cap():
    # thin wire: full default resolution
    assert default_segments(LAMBDA_18 / 2, LAMBDA_18 / 1000) == 41
    # fat strip (a=1.5 mm, L=67 mm): capped so node spacing >= 2a
    n = default_segments(67.0, 1.5)
    assert n % 2 == 1
    assert 67.0 / (n + 1) >= 2 * 1.5
    assert n >= 11


def test_system_is_symmetric_toeplitz():
    model = thin_half_wave()
    mesh = build_mesh(model, n=21)
    A = assemble_system(mesh, 1.8e9, model)
    assert np.allclose(A, A.T)
    for d in range(1, 5):
        diag = np.diagonal(A, offset=d)
        assert np.allclose(diag, diag[0])


@pytest.mark.parametrize("n", [11, 21, 83, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_assemble_matches_loop_reference(n, eps_e):
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    for f in (0.9e9, 1.8e9, 2.6e9):
        ref = loop_assemble(n, f, model)
        # relative to the matrix scale: the far entries come out of a
        # three-term cancellation, so any change in summation order moves
        # them by a few ulps of the near entries
        err = np.abs(assemble_system(mesh, f, model) - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()


def test_mesh_reused_across_frequencies():
    model = WireModel(60.0, 0.3, 3.3)
    shared = build_mesh(model, n=83)
    for f in (0.9e9, 1.8e9, 2.6e9):
        fresh = build_mesh(model, n=83)
        assert np.array_equal(assemble_system(shared, f, model),
                              assemble_system(fresh, f, model))


def test_assemble_rejects_mesh_of_another_wire():
    model = WireModel(60.0, 0.3, 3.3)
    mesh = build_mesh(model, n=21)
    with pytest.raises(MeshError, match="L=61"):
        assemble_system(mesh, 1.8e9, WireModel(61.0, 0.3, 3.3))
    with pytest.raises(MeshError, match="a=0.25"):
        assemble_system(mesh, 1.8e9, WireModel(60.0, 0.25, 3.3))
    # the medium is not baked into the mesh
    other = WireModel(60.0, 0.3, 1.0)
    assert np.array_equal(assemble_system(mesh, 1.8e9, other),
                          assemble_system(build_mesh(other, n=21), 1.8e9, other))


def test_current_symmetric_and_peaked_at_feed():
    model = thin_half_wave()
    mesh = build_mesh(model, n=41)
    cur = solve_current(assemble_system(mesh, 1.8e9, model), mesh)
    mags = np.abs(cur.currents)
    # the delta-gap feed leaves a small kink, so the peak may sit a node
    # or two off center; it must still be essentially at the feed
    assert mags[mesh.feed_index] >= 0.97 * mags.max()
    assert abs(int(np.argmax(mags)) - mesh.feed_index) <= 2
    assert np.allclose(mags, mags[::-1], rtol=1e-9)


def test_half_wave_impedance_reference():
    # classical MoM/NEC-style value for a = lambda/1000 at L = lambda/2;
    # the real part sits well above the 73-ohm sinusoidal approximation
    z = impedance_at(thin_half_wave(), 1.8e9, n=41)
    assert z.real == pytest.approx(85.8, abs=2.0)
    assert z.imag == pytest.approx(45.8, abs=3.0)


def test_short_dipole_radiation_resistance():
    # L = 0.1 lambda: R ~ 20 pi^2 (L/lambda)^2 ~ 1.97 ohm, X strongly capacitive
    model = WireModel(total_length=0.1 * LAMBDA_18, radius=LAMBDA_18 / 5000)
    z = impedance_at(model, 1.8e9, n=41)
    assert z.real == pytest.approx(20 * np.pi ** 2 * 0.01, rel=0.15)
    assert z.imag < -500


def test_effective_medium_scaling():
    # Z(eps_e) at f equals Z(free space at f*sqrt(eps_e)) / sqrt(eps_e)
    eps_e = 2.25
    L, a = 40.0, 0.2
    z_med = impedance_at(WireModel(L, a, eps_e), 1.2e9, n=31)
    z_free = impedance_at(WireModel(L, a, 1.0), 1.2e9 * np.sqrt(eps_e), n=31)
    assert z_med == pytest.approx(z_free / np.sqrt(eps_e), rel=1e-9)


def test_input_impedance_reciprocal_of_feed_current():
    model = thin_half_wave()
    mesh = build_mesh(model, n=21)
    cur = solve_current(assemble_system(mesh, 1.8e9, model), mesh, voltage=2.0)
    assert input_impedance(cur) == 2.0 / cur.feed_current


def test_frequency_grid():
    g = frequency_grid(1.0e9, 1.3e9, 0.1e9)
    assert np.allclose(g, [1.0e9, 1.1e9, 1.2e9, 1.3e9])
    assert frequency_grid(1.8e9, 1.8e9, 0.1e9).tolist() == [1.8e9]
    with pytest.raises(ValueError):
        frequency_grid(2e9, 1e9, 0.1e9)
    with pytest.raises(ValueError):
        frequency_grid(1e9, 2e9, 0.0)
    for step in (1e-310, 1e-3):     # inf steps; 1e12 steps
        with pytest.raises(ValueError, match="limit"):
            frequency_grid(1e9, 2e9, step)


def test_geometry_model_uses_fringing_eps():
    model = geometry_model(DipoleGeometry(L=67, W=6, g=3), FR4)
    assert model.radius == 1.5
    assert model.eps_e == pytest.approx(3.45511756018254, rel=1e-12)


def test_sweep_returns_metrics_result():
    res = sweep(DipoleGeometry(L=67, W=6, g=3), FR4, 1.0e9, 1.2e9, 0.1e9)
    assert isinstance(res, SweepResult)
    assert len(res.f) == 3
    assert res.f.tolist() == [1.0e9, 1.1e9, 1.2e9]
    assert all(res.z_in.real > 0)


def test_sweep_rejects_rule_violations():
    # w/h = 40 breaks the hard w/h <= 20 restriction
    wide = DipoleGeometry(L=300.0, W=64.0)
    with pytest.raises(DesignRuleError, match="w_over_h"):
        sweep(wide, FR4, 1.0e9, 1.2e9, 0.1e9)
