import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from dipolekit import mom
from dipolekit.design import DipoleGeometry, Substrate
from dipolekit.errors import DesignRuleError, MeshError, SolverError
from dipolekit.metrics import SweepResult
from dipolekit.mom import (
    ETA0,
    SegmentMesh,
    WireModel,
    _certified,
    _condition,
    _fold,
    assemble_system,
    build_mesh,
    default_segments,
    frequency_grid,
    geometry_model,
    impedance_at,
    input_impedance,
    max_segments,
    solve_at,
    solve_current,
    strip_to_wire,
    sweep,
    wavenumber,
)

FR4 = Substrate("fr4", 4.3, 1.6, 0.002)
LAMBDA_18 = 166.55136555555555   # mm at 1.8 GHz in free space


def thin_half_wave():
    return WireModel(total_length=LAMBDA_18 / 2, radius=LAMBDA_18 / 1000)


def loop_assemble(n: int, f: float, model: WireModel,
                  sign: float = 1.0) -> np.ndarray:
    """Reference Galerkin column: the six quadrature blocks in a Python loop,
    all geometry recomputed from (n, h, a) at every frequency. sign=-1.0
    places the source basis below the test basis instead of above it: the
    row of the matrix rather than its column."""
    k = wavenumber(f, model.eps_e)
    eta = ETA0 / np.sqrt(model.eps_e)
    a = model.radius
    h = model.total_length / (n + 1)
    sk = np.sin(k * h)
    xq, wq = np.polynomial.legendre.leggauss(16)
    offsets = sign * np.arange(n) * h
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
    return col


def toeplitz(col: np.ndarray) -> np.ndarray:
    """The dense matrix A[i, j] = col[|i - j|] that a column stands for."""
    i = np.arange(col.size)
    return col[np.abs(i[:, None] - i)]


def dense_fold(system: np.ndarray, p: int) -> np.ndarray:
    """Reference fold of a dense centrosymmetric matrix about p, read entry
    by entry from the matrix: _fold's oracle, and the way to hand _certified
    and _condition matrices that no column can write."""
    m = p + 1
    blocks = np.zeros((2, m, m), dtype=complex)
    a = system[:p, :p]
    right = system[:p, :p:-1]
    np.add(a, right, out=blocks[0, :p, :p])
    np.subtract(a, right, out=blocks[1, :p, :p])
    np.multiply(system[:m, p], np.sqrt(2.0), out=blocks[0, :, p])
    np.multiply(system[p, :p], np.sqrt(2.0), out=blocks[0, p, :p])
    blocks[0, p, p] = system[p, p]
    return blocks


def unit_column(n: int) -> np.ndarray:
    """e_0: the column of the identity."""
    col = np.zeros(n)
    col[0] = 1.0
    return col


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
    model = thin_half_wave()
    mesh = build_mesh(model, n=41)
    assert mesh.model is model
    assert mesh.n == 41
    assert mesh.feed_index == 20
    # interior nodes symmetric about the feed, half-bases pinned to the tips
    assert mesh.nodes[20] == 0.0
    h = model.total_length / 42
    assert mesh.nodes[-1] + h == pytest.approx(model.total_length / 2)
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


def test_build_mesh_refuses_a_count_above_max_segments():
    # refused before any array is built: the folded blocks of this n would
    # take 8 (n+1)^2 bytes
    with pytest.raises(MeshError, match="<= 4001"):
        build_mesh(WireModel(1e5, 0.025), n=mom.MAX_SEGMENTS + 2)


def test_build_mesh_defaults_to_default_segments():
    for model in (thin_half_wave(), WireModel(67.0, 1.5, 3.3)):
        auto = build_mesh(model)
        explicit = build_mesh(model, default_segments(model.total_length,
                                                      model.radius))
        for name in fields(SegmentMesh):
            assert np.array_equal(getattr(auto, name.name),
                                  getattr(explicit, name.name))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_systems_raise_solver_error():
    model = WireModel(67.0, 1.5, 3.3)
    mesh = build_mesh(model)
    # sin^2(kh) subnormal, where eta/(4 pi sin^2(kh)) overflows, or 0
    for f in (1e-144, 1e-151, 1e-294):
        with pytest.raises(SolverError, match="sin\\(kh\\) underflows"):
            assemble_system(mesh, f)
    # non-finite; sigma_min = 0; overflow in the fold: refused, no warning
    for value in (np.nan, 0.0, np.inf, 1e308):
        with pytest.raises(SolverError, match="condition"):
            solve_current(np.full(mesh.n, value, dtype=complex), mesh)
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
    # the upper triangle from the column, the lower from the reference at
    # mirrored separations: symmetry is reciprocity checked, not assumed
    model = thin_half_wave()
    mesh = build_mesh(model, n=21)
    upper = toeplitz(assemble_system(mesh, 1.8e9))
    lower = toeplitz(loop_assemble(21, 1.8e9, model, sign=-1.0))
    A = np.triu(upper) + np.tril(lower, -1)
    assert np.allclose(A, A.T)
    for d in range(-4, 5):
        diag = np.diagonal(A, offset=d)
        assert np.allclose(diag, diag[0])


@pytest.mark.parametrize("n", [11, 21, 83])
def test_mesh_lays_out_each_separation_once(n):
    mesh = build_mesh(thin_half_wave(), n=n)
    for quad in (mesh.quad_dz, mesh.quad_r, mesh.quad_w):
        assert quad.shape == (2, n + 2, 16)
    # assemble_system's k*R overflow check reads the largest R there
    assert mesh.quad_r[1, -1, -1] == mesh.quad_r.max()


@pytest.mark.parametrize("n", [11, 21, 83, 321])
def test_system_is_exactly_symmetric_toeplitz(n):
    # the blocks solve_current reads from the column are, bit for bit, the
    # fold of the exactly symmetric Toeplitz matrix the column stands for
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, 3.3)
    col = assemble_system(build_mesh(model, n=n), 1.8e9)
    blocks = _fold(col)
    assert blocks.tobytes() == dense_fold(toeplitz(col), n // 2).tobytes()
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))


@pytest.mark.parametrize("n", [3, 11, 21, 83, 321])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fold_matches_the_dense_fold_for_any_column(n, dtype):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n).astype(dtype)
    if dtype is complex:
        col += 1j * rng.standard_normal(n)
    blocks = _fold(col)
    assert blocks.dtype == complex
    assert blocks.tobytes() == dense_fold(toeplitz(col), n // 2).tobytes()
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))


def test_assemble_returns_an_owned_writeable_column():
    model = WireModel(60.0, 0.3, 3.3)
    mesh = build_mesh(model, n=21)
    col = assemble_system(mesh, 1.8e9)
    assert col.shape == (mesh.n,) and col.dtype == complex
    assert col.flags.c_contiguous and col.flags.writeable and col.flags.owndata
    expected = col.copy()
    col[:] = 0.0
    assert np.array_equal(assemble_system(mesh, 1.8e9), expected)


@pytest.mark.parametrize("n", [11, 21, 83, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_assemble_matches_loop_reference(n, eps_e):
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    for f in (0.9e9, 1.8e9, 2.6e9):
        ref = loop_assemble(n, f, model)
        # relative to the column scale: the far entries come out of a
        # three-term cancellation, so any change in summation order moves
        # them by a few ulps of the near entries
        err = np.abs(assemble_system(mesh, f) - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()


def test_mesh_reused_across_frequencies():
    model = WireModel(60.0, 0.3, 3.3)
    shared = build_mesh(model, n=83)
    for f in (0.9e9, 1.8e9, 2.6e9):
        fresh = build_mesh(model, n=83)
        assert np.array_equal(assemble_system(shared, f),
                              assemble_system(fresh, f))


def test_current_symmetric_and_peaked_at_feed():
    model = thin_half_wave()
    mesh = build_mesh(model, n=41)
    cur = solve_at(mesh, 1.8e9)
    mags = np.abs(cur.currents)
    # the delta-gap feed leaves a small kink, so the peak may sit a node
    # or two off center; it must still be essentially at the feed
    assert mags[mesh.feed_index] >= 0.97 * mags.max()
    assert abs(int(np.argmax(mags)) - mesh.feed_index) <= 2
    assert np.allclose(mags, mags[::-1], rtol=1e-9)


@pytest.mark.parametrize("n", [11, 21, 83, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_even_mode_solve_matches_full_solve(n, eps_e):
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    p = mesh.feed_index
    for f in (0.9e9, 1.8e9, 2.6e9):
        col = assemble_system(mesh, f)
        system = toeplitz(col)
        b = np.zeros(n, dtype=complex)
        b[p] = 1.0
        z_full = 1.0 / np.linalg.solve(system, b)[p]
        cur = solve_current(col, mesh)
        assert input_impedance(cur) == pytest.approx(z_full, rel=1e-12)
        assert np.array_equal(cur.currents, cur.currents[::-1])
        # sigma(A) = sigma(even) | sigma(odd): the guard sees cond(A) itself
        assert _condition(_fold(col)) \
            == pytest.approx(np.linalg.cond(system), rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_odd_mode_singularity_still_refused():
    # col - lambda e_0, lambda the odd block's lowest eigenvalue: only the
    # odd block is singular and the feed never excites the odd mode, but
    # the guard covers the whole system
    mesh = build_mesh(thin_half_wave(), n=21)
    col = odd_mode_column(mesh.n, 0.0)
    assert np.linalg.cond(_fold(col)[0]) < 1e4
    with pytest.raises(SolverError, match="condition"):
        solve_current(col, mesh)


def condition_spy(monkeypatch):
    """Record each call of the SVD condition number that solve_current makes."""
    calls = []
    condition = mom._condition

    def spy(blocks):
        calls.append(condition(blocks))
        return calls[-1]

    monkeypatch.setattr(mom, "_condition", spy)
    return calls


def odd_mode_column(n, delta):
    """Toeplitz column, positive definite at cond about 1/delta, whose
    lowest eigenvalue lies in the odd mode, which the feed never excites.

    The pentadiagonal column [0, 1/2, 1] has its lowest eigenvalue in the
    odd block (at n = 21, checked here); the diagonal shift lifts it to
    delta times the spread of the spectrum.
    """
    col = np.zeros(n)
    col[1:3] = 0.5, 1.0
    blocks = dense_fold(toeplitz(col), n // 2)
    even = np.linalg.eigvalsh(blocks[0].real)
    odd = np.linalg.eigvalsh(blocks[1, :-1, :-1].real)
    assert odd[0] < even[0]
    col[0] = delta * (max(even[-1], odd[-1]) - odd[0]) - odd[0]
    return col


@pytest.mark.parametrize("n", [11, 21, 83, 161, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_assembled_systems_are_certified_without_svd(n, eps_e, monkeypatch):
    calls = condition_spy(monkeypatch)
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    for f in (0.9e9, 1.8e9, 2.6e9):
        solve_at(mesh, f)
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertified_condition_falls_back_to_svd(monkeypatch):
    calls = condition_spy(monkeypatch)
    mesh = build_mesh(thin_half_wave(), n=21)
    # positive definite at cond 1e4 and 1e10: certified
    solve_current(odd_mode_column(mesh.n, 1e-4), mesh)
    solve_current(odd_mode_column(mesh.n, 1e-10), mesh)
    assert calls == []
    # -I has cond 1, but its turned real part is negative definite: the
    # SVD accepts it
    cur = solve_current(-unit_column(mesh.n), mesh)
    assert calls == [pytest.approx(1.0)]
    assert cur.feed_current == -1.0
    with pytest.raises(SolverError, match="condition estimate"):
        solve_current(odd_mode_column(mesh.n, 1e-13), mesh)
    assert calls[1] == pytest.approx(1e13, rel=1e-2)


def test_certificate_uses_the_conjugate_transpose():
    # E = [[1, 1e5 j], [0, 1e-3]] has cond ~1e13, but the lower triangle a
    # Cholesky reads, taken as a whole symmetric matrix, is well scaled
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = [[1.0, 1e5j], [0.0, 1e-3]]
    blocks[1, 0, 0] = 1.0
    assert _condition(blocks) > 1e12
    assert not _certified(blocks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ill_conditioned_non_symmetric_system_refused():
    # I - t u w^T with u, w odd and orthogonal is centrosymmetric but not
    # symmetric; its eigenvalues are all 1, but cond ~t^2. In the odd block
    # u w^T lies above the diagonal, so the lower triangle alone is I. No
    # column writes it, so the guard gets its dense fold.
    mesh = build_mesh(thin_half_wave(), n=21)
    p = mesh.feed_index
    u = np.zeros(mesh.n)
    w = np.zeros(mesh.n)
    u[:3] = 1.0
    w[p - 3:p] = 1.0
    u -= u[::-1]
    w -= w[::-1]
    system = np.eye(mesh.n) - 1e7 * np.outer(u, w)
    assert np.array_equal(system, system[::-1, ::-1])
    assert np.linalg.cond(system) > 1e12
    blocks = dense_fold(system, p)
    assert not _certified(blocks.copy())
    assert _condition(blocks) > 1e12


@pytest.mark.parametrize("delta", np.logspace(-14, -10, 17))
def test_odd_mode_certificate_is_sound(delta):
    mesh = build_mesh(thin_half_wave(), n=21)
    blocks = _fold(odd_mode_column(mesh.n, delta))
    assert not _certified(blocks.copy()) or _condition(blocks) <= 1e12


def planted_blocks(p, cond, rng):
    """Complex-symmetric Q diag(l) Q^T blocks (Q real orthogonal) in _fold's
    layout, odd block padded; |l| spans cond, the phases of l lie within
    60 degrees of the real axis, so the rotated real part is definite."""
    blocks = np.zeros((2, p + 1, p + 1), dtype=complex)
    for b, size in ((0, p + 1), (1, p)):
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        mag = np.logspace(0.0, -np.log10(cond), size)
        lam = mag * np.exp(1j * np.deg2rad(rng.uniform(-60, 60, size)))
        e = (q * lam) @ q.T
        blocks[b, :size, :size] = (e + e.T) / 2
    return blocks


@pytest.mark.parametrize("cond", np.logspace(10, 14, 17))
def test_planted_spectrum_certificate_is_sound(cond):
    rng = np.random.default_rng(int(np.log10(cond) * 4))
    for p in (5, 10, 40):
        blocks = planted_blocks(p, cond, rng)
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
        certified = _certified(blocks.copy())
        assert not certified or _condition(blocks) <= 1e12
        if cond <= 1e11:
            assert certified


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
@pytest.mark.parametrize("n", [21, 83])
def test_scaled_system_solved_silently(scale, n, capfd):
    # the squared norm under- or overflows at these scales, the SVD does not
    model = thin_half_wave()
    mesh = build_mesh(model, n=n)
    system = assemble_system(mesh, 1.8e9)
    cur = solve_current(system, mesh).currents
    scaled = solve_current(system * scale, mesh).currents
    assert np.abs(scaled * scale - cur).max() <= 1e-11 * np.abs(cur).max()
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_system_from_another_mesh_raises_mesh_error():
    model = thin_half_wave()
    col = assemble_system(build_mesh(model, n=41), 1.8e9)
    with pytest.raises(MeshError, match=r"\(41,\) .* n = 21"):
        solve_current(col, build_mesh(model, n=21))


def test_singular_even_block_behind_a_passing_guard_raises_solver_error(
        monkeypatch):
    # a zero column: the even block is exactly zero, so its LU stops; the
    # guard is forced to pass
    mesh = build_mesh(thin_half_wave(), n=21)
    monkeypatch.setattr(mom, "_certified", lambda blocks: True)
    with pytest.raises(SolverError, match="singular"):
        solve_current(np.zeros(mesh.n, dtype=complex), mesh)


def test_solve_allocates_less_than_the_system():
    # assembly and solve together stay below one dense n x n complex matrix
    # (16 n^2 bytes), so none is ever built: the folded blocks are half of
    # that and Cholesky's real factor a quarter (numpy's fixed ufunc
    # buffers dominate below about n = 321)
    mesh = build_mesh(thin_half_wave(), n=321)
    solve_at(mesh, 1.8e9)
    tracemalloc.start()
    try:
        solve_at(mesh, 1.8e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * mesh.n ** 2


def test_solve_leaves_the_system_bit_identical():
    # certified, accepted by the SVD fallback, and refused by it
    mesh = build_mesh(thin_half_wave(), n=21)
    for col in (assemble_system(mesh, 1.8e9), -unit_column(mesh.n),
                odd_mode_column(mesh.n, 1e-13)):
        kept = col.copy()
        try:
            solve_current(col, mesh)
        except SolverError:
            pass
        assert col.tobytes() == kept.tobytes()


def test_non_centrosymmetric_system_fails_residual():
    # no column writes it: on its dense fold the guard accepts it (not
    # certified, but cond < 10), and the even-mode solve misses the full
    # system by far more than the residual limit
    mesh = build_mesh(thin_half_wave(), n=21)
    p = mesh.feed_index
    rng = np.random.default_rng(6)
    system = np.eye(mesh.n) + 0.1 * rng.standard_normal((mesh.n, mesh.n))
    assert np.linalg.cond(system) < 10
    blocks = dense_fold(system, p)
    assert not _certified(blocks.copy())
    assert _condition(blocks) < 10
    y = np.linalg.solve(blocks[0], np.eye(p + 1)[p])
    x = np.concatenate((y[:p], y[p::-1])) / np.sqrt(2.0)
    x[p] = y[p]
    assert np.linalg.norm(system @ x - np.eye(mesh.n)[p]) > 1e-8


def test_perturbed_even_solve_fails_residual(monkeypatch):
    mesh = build_mesh(thin_half_wave(), n=21)
    col = assemble_system(mesh, 1.8e9)
    solve_current(col, mesh)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="residual"):
        solve_current(col, mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
def test_non_finite_system_refused_without_lapack_output(value, capfd):
    # LAPACK reports bad arguments by printing to the process's fd 2
    mesh = build_mesh(thin_half_wave(), n=21)
    with pytest.raises(SolverError, match="condition"):
        solve_current(np.full(mesh.n, value, dtype=complex), mesh)
    out, err = capfd.readouterr()
    assert out == "" and err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_kr_raises_solver_error(capfd):
    # k*R overflows although k and sin(kh) are finite: refused before the
    # kernel's arithmetic would print an overflow warning
    model = geometry_model(DipoleGeometry(L=3.6894994835786546e289,
                                          W=1261007895663703.0), FR4)
    mesh = build_mesh(model)
    with pytest.raises(SolverError, match="k\\*R overflows"):
        assemble_system(mesh, 1.1212699280039864e29)
    with pytest.raises(SolverError, match="k\\*R overflows"):
        impedance_at(model, 1.1212699280039864e29)
    out, err = capfd.readouterr()
    assert out == "" and err == ""


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
    cur = solve_at(mesh, 1.8e9)
    assert input_impedance(cur) == 1 / cur.feed_current


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
