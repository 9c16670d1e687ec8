import math
import os
import re
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from dipolekit import mom
from dipolekit.design import DipoleGeometry, Substrate, eps_eff_microstrip
from dipolekit.errors import DesignRuleError, MeshError, SolverError
from dipolekit.metrics import SweepResult
from dipolekit.mom import (
    ETA0,
    _WF,
    _WQ,
    _XF,
    _XQ,
    SegmentMesh,
    WireModel,
    _certified,
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
    solve_band,
    solve_current,
    strip_to_wire,
    sweep,
    wavenumber,
)

FR4 = Substrate("fr4", 4.3, 1.6)
LAMBDA_18 = 166.55136555555555   # mm at 1.8 GHz in free space


def fold(col):
    """_fold of col into a new complex (2, m, m) buffer, m = (n + 1)/2."""
    m = (col.size + 1) // 2
    return _fold(col, np.empty((2, m, m), dtype=complex))


def certify(col):
    """_certified of col with a new float (2, m, m) buffer for its
    Cholesky tier, m = (n + 1)/2."""
    m = (col.size + 1) // 2
    return _certified(col, np.empty((2, m, m)))


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


def dense_t_h(system: np.ndarray) -> np.ndarray:
    """T + H and T - H of a dense matrix about its center p, read entry by
    entry as A[:m, :m] +- A[:m, n-1-j] (m = p + 1): _fold's oracle, and the
    way to fold matrices that no column can write."""
    n = len(system)
    m = n // 2 + 1
    a = system[:m, :m]
    mirror = system[:m, n - 1 - np.arange(m)]
    blocks = np.empty((2, m, m), dtype=complex)
    np.add(a, mirror, out=blocks[0])
    np.subtract(a, mirror, out=blocks[1])
    return blocks


def dense_fold(system: np.ndarray, p: int) -> np.ndarray:
    """Orthogonal fold Q^T A Q of a dense centrosymmetric matrix about p,
    read entry by entry from the matrix: the blocks whose spectra are the
    even and odd modes' (T + H is S times the even block times S, S =
    diag(1, ..., 1, sqrt(2)))."""
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


_FINITE_FIELDS = (
    [(DipoleGeometry, dict(L=67.0, W=6.0), name)
     for name in ("L", "W", "T")]
    + [(WireModel, dict(total_length=67.0, radius=1.0), name)
       for name in ("total_length", "radius", "eps_e")])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, valid, name", _FINITE_FIELDS,
                         ids=["%s.%s" % (c.__name__, n)
                              for c, _, n in _FINITE_FIELDS])
def test_geometry_and_wire_model_refuse_non_finite_values(cls, valid, name,
                                                          value):
    # refused where it is given, not as an overflow in the mesh or the solve
    with pytest.raises(ValueError, match="must be finite"):
        cls(**{**valid, name: value})


def test_wavenumber():
    k = wavenumber(1.8e9, 1.0)
    assert k == pytest.approx(2 * np.pi / LAMBDA_18)
    assert wavenumber(1.8e9, 4.0) == pytest.approx(2 * k)


@pytest.mark.parametrize("f", [0.0, -1.8e9, math.inf, -math.inf, math.nan])
def test_wavenumber_refuses_a_frequency_outside_the_open_half_line(f):
    # the first use of f in a solve; design.free_space_wavelength's reason
    with pytest.raises(ValueError, match="^frequency must be finite and > 0, "
                       "got %s$" % re.escape("%g" % f)):
        wavenumber(f, 1.0)


def test_build_mesh_basics():
    model = thin_half_wave()
    mesh = build_mesh(model, n=41)
    assert mesh.model is model
    assert mesh.n == 41
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


@pytest.mark.parametrize("n", [math.nan, 21.5, 21.0, np.float64(21.0), "21"])
def test_build_mesh_refuses_a_count_that_is_not_an_integer(n):
    with pytest.raises(MeshError, match="segment count must be an integer, "
                       "got %s$" % re.escape(repr(n))):
        build_mesh(thin_half_wave(), n=n)


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
    # one (n+8, 8) table of subrows over the source intervals [mh, (m+1)h],
    # m = -2..n, and the sine argument of both test halves at each node
    model = thin_half_wave()
    a = model.radius
    mesh = build_mesh(model, n=n)
    h = model.total_length / (n + 1)
    assert mesh.quad_r.shape == mesh.quad_w.shape == (n + 8, 8)
    assert mesh.quad_sine_arg.shape == (2, n + 8, 8)
    # assemble_system's k*R overflow check reads the largest R there
    assert mesh.quad_r[-1, -1] == mesh.quad_r.max()
    # flattened, interval i's terms run from quad_starts[i] to the next
    # start, by the 16-point rule where the interval has knots in [-2h, 3h]
    # and the 8-point rule elsewhere, recomputed from (n, h, a); the lower
    # test half's sine argument is z - mh and the upper's (m+1)h - z
    r, w = mesh.quad_r.reshape(-1), mesh.quad_w.reshape(-1)
    lower, upper = mesh.quad_sine_arg.reshape(2, -1)
    starts = mesh.quad_starts
    assert starts.shape == (n + 3,) and starts[0] == 0
    assert np.all(np.diff(starts) > 0)
    assert np.all(w != 0)
    for i, run in enumerate(np.split(np.arange(r.size), starts[1:])):
        m = i - 2
        xq, wq = np.polynomial.legendre.leggauss(16 if m <= 2 else 8)
        t1, t2 = np.arcsinh(m * h / a), np.arcsinh((m + 1) * h / a)
        td = (t2 - t1) / 2.0
        t = (t2 + t1) / 2.0 + xq * td
        z = a * np.sinh(t)
        assert run.shape == t.shape
        assert np.allclose(r[run], a * np.cosh(t), rtol=1e-14, atol=0)
        assert np.allclose(w[run], td * wq, rtol=1e-13, atol=0)
        assert np.allclose(lower[run], z - m * h, rtol=0, atol=1e-14 * n * h)
        assert np.allclose(upper[run], (m + 1) * h - z,
                           rtol=0, atol=1e-14 * n * h)


def test_gauss_legendre_rule_matches_numpy_polynomial():
    # mom builds its 16- and 8-point rules without importing numpy.polynomial
    for points, nodes, weights in ((16, _XQ, _WQ), (8, _XF, _WF)):
        x, w = np.polynomial.legendre.leggauss(points)
        assert np.abs(nodes - x).max() <= 1e-14
        assert (np.abs(weights - w) / w).max() <= 1e-14
        # exact through degree 2 points - 1: the odd moments vanish by symmetry
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        for degree in range(0, 2 * points, 2):
            assert np.sum(weights * nodes ** degree) == pytest.approx(
                2.0 / (degree + 1), rel=1e-14)


def test_meshes_and_currents_compare_by_identity():
    model = thin_half_wave()
    mesh, again = build_mesh(model, n=21), build_mesh(model, n=21)
    assert mesh == mesh and mesh != again
    assert len({mesh, again}) == 2
    current = solve_at(mesh, 1.8e9)
    assert current == current and current != solve_at(mesh, 1.8e9)


@pytest.mark.parametrize("n", [11, 21, 83, 321])
def test_system_is_exactly_symmetric_toeplitz(n):
    # the blocks solve_current reads from the column are, bit for bit, the
    # T +- H of the exactly symmetric Toeplitz matrix the column stands for
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, 3.3)
    col = assemble_system(build_mesh(model, n=n), 1.8e9)
    blocks = fold(col)
    assert blocks.tobytes() == dense_t_h(toeplitz(col)).tobytes()
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))


@pytest.mark.parametrize("n", [3, 11, 21, 83, 321])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fold_matches_the_dense_fold_for_any_column(n, dtype):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n).astype(dtype)
    if dtype is complex:
        col += 1j * rng.standard_normal(n)
    blocks = fold(col)
    assert blocks.dtype == complex
    assert blocks.tobytes() == dense_t_h(toeplitz(col)).tobytes()
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
    # the real column folds into a float out, and an out of one block gets
    # only T + H
    real = _fold(col.real, np.empty(blocks.shape))
    assert real.tobytes() == blocks.real.copy().tobytes()
    even = _fold(col, np.empty((1,) + blocks.shape[1:], dtype=complex))
    assert even.tobytes() == blocks[:1].tobytes()


@pytest.mark.parametrize("n", [11, 21, 83, 321])
def test_fold_keeps_the_column_dtype(n):
    # a complex column does not fit a float out, so no fold silently drops
    # its imaginary parts; its real column folds to the real parts exactly
    col = assemble_system(build_mesh(thin_half_wave(), n=n), 1.8e9)
    m = (n + 1) // 2
    with pytest.raises(TypeError):
        _fold(col, np.empty((2, m, m)))
    real = _fold(col.real, np.empty((2, m, m)))
    assert real.tobytes() == fold(col).real.copy().tobytes()


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
    # the 16-point reference on every interval, against the table's 8-point
    # rule past the near ones: on the thin half-wave and at h/a from 1 (a
    # thin wire, L > 20a, from n = 21 on) to 1000, up to the lambda_e/4 limit
    base = thin_half_wave()
    h = base.total_length / (n + 1)
    for h_over_a in (h / base.radius, 1.0, 2.0, 30.0, 1000.0):
        if n + 1 <= 20.0 / h_over_a:
            continue
        model = WireModel(base.total_length, h / h_over_a, eps_e)
        mesh = build_mesh(model, n=n)
        for kh in (0.05, 0.5, 1.0, math.pi / 2 * (1 - 1e-9)):
            f = kh / h * mom.C_MM_PER_S / (2.0 * math.pi * math.sqrt(eps_e))
            ref = loop_assemble(n, f, model)
            # relative to the column scale: the far entries come out of a
            # three-term cancellation, so any change in summation order
            # moves them by a few ulps of the near entries
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
    assert mags[mesh.n // 2] >= 0.97 * mags.max()
    assert abs(int(np.argmax(mags)) - mesh.n // 2) <= 2
    assert np.allclose(mags, mags[::-1], rtol=1e-9)


@pytest.mark.parametrize("n", [11, 21, 83, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_even_mode_solve_matches_full_solve(n, eps_e):
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    p = mesh.n // 2
    for f in (0.9e9, 1.8e9, 2.6e9):
        col = assemble_system(mesh, f)
        system = toeplitz(col)
        b = np.zeros(n, dtype=complex)
        b[p] = 1.0
        z_full = 1.0 / np.linalg.solve(system, b)[p]
        currents = solve_current(col, mesh)
        assert 1.0 / currents[p] == pytest.approx(z_full, rel=1e-12)
        assert np.array_equal(currents, currents[::-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_odd_mode_singularity_still_refused():
    # col - lambda e_0, lambda the odd block's lowest eigenvalue: only the
    # odd block is singular and the feed never excites the odd mode, but
    # the guard covers the whole system
    mesh = build_mesh(thin_half_wave(), n=21)
    col = mode_column(mesh.n, 0.0)
    assert np.linalg.cond(fold(col)[0]) < 1e4
    with pytest.raises(SolverError, match="condition"):
        solve_current(col, mesh)


def fold_spy(monkeypatch):
    """Record the out dtype of each _fold call: complex for the LU's even
    block, float for the Cholesky tier's blocks."""
    calls = []
    kernel = mom._fold

    def spy(col, out):
        calls.append(out.dtype)
        return kernel(col, out)

    monkeypatch.setattr(mom, "_fold", spy)
    return calls


def mode_column(n, delta, mode=1):
    """Toeplitz column, positive definite at cond about 1/delta, whose
    lowest eigenvalue lies in the even (mode 0) or the odd mode (mode 1),
    which the feed never excites.

    The tridiagonal column [0, 1] has its lowest eigenvalue in the even
    block; the first of the pentadiagonal [0, 1/2, 1], [0, 0, 1] and
    [0, 1, 1] that has it in the odd block at this n (checked here) serves
    the odd mode. The diagonal shift lifts it to delta times the spread of
    the spectrum.
    """
    for base in ([[0.0, 1.0]], [[0.0, 0.5, 1.0], [0.0, 0.0, 1.0],
                                [0.0, 1.0, 1.0]])[mode]:
        col = np.zeros(n)
        col[:len(base)] = base
        blocks = dense_fold(toeplitz(col), n // 2)
        spectra = (np.linalg.eigvalsh(blocks[0].real),
                   np.linalg.eigvalsh(blocks[1, :-1, :-1].real))
        low = spectra[mode][0]
        if low < spectra[1 - mode][0]:
            col[0] = delta * (max(spectra[0][-1], spectra[1][-1]) - low) - low
            return col
    raise AssertionError("no base column has its lowest eigenvalue in mode %d"
                         % mode)


@pytest.mark.parametrize("n", [11, 21, 83, 161, 321])
@pytest.mark.parametrize("eps_e", [1.0, 3.3])
def test_assembled_systems_are_certified_without_svd(n, eps_e, monkeypatch):
    folds = fold_spy(monkeypatch)
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, eps_e)
    mesh = build_mesh(model, n=n)
    for f in (0.9e9, 1.8e9, 2.6e9):
        solve_at(mesh, f)
    # decided by the circulant tier: each solve folds once, for its LU
    assert folds == [np.complex128] * 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertified_condition_is_refused():
    mesh = build_mesh(thin_half_wave(), n=21)
    # positive definite at cond 1e4 and 1e10: certified
    for delta in (1e-4, 1e-10):
        assert certify(mode_column(mesh.n, delta))
        solve_current(mode_column(mesh.n, delta), mesh)
    # -I has cond 1, but its turned real part is negative definite; the
    # other has cond 1e13: both unproven, so both refused
    for col in (-unit_column(mesh.n), mode_column(mesh.n, 1e-13)):
        assert not certify(col)
        with pytest.raises(SolverError, match="^system condition not proven "
                           "<= 1e\\+12$"):
            solve_current(col, mesh)


@pytest.mark.parametrize("delta", np.logspace(-14, -10, 17))
def test_odd_mode_certificate_is_sound(delta):
    col = mode_column(21, delta)
    assert not certify(col) or np.linalg.cond(toeplitz(col)) <= 1e12


def planted_column(n, cond, rng):
    """Complex-symmetric Toeplitz column of alpha (T - mu I) + beta d I: T
    the real Kac-Murdock-Szego matrix q^|i-j|, mu its lowest eigenvalue and
    d its spread over cond. With T = Q diag(t) Q^T (Q real orthogonal) the
    eigenvalues alpha (t - mu) + beta d lie between the phases of alpha and
    beta, within 60 degrees of the real axis, so the turned real part is
    definite, and their moduli span about cond."""
    col = rng.uniform(0.5, 0.95) ** np.arange(n)
    t = np.linalg.eigvalsh(toeplitz(col))
    alpha, beta = np.exp(1j * np.deg2rad(rng.uniform(-60, 60, 2)))
    col = alpha * col
    col[0] += beta * (t[-1] - t[0]) / cond - alpha * t[0]
    return col


@pytest.mark.parametrize("cond", np.logspace(10, 14, 17))
def test_planted_spectrum_certificate_is_sound(cond):
    rng = np.random.default_rng(int(np.log10(cond) * 4))
    for n in (11, 21, 81):
        col = planted_column(n, cond, rng)
        dense = np.linalg.cond(toeplitz(col))
        certified = certify(col)
        assert not certified or dense <= 1e12
        if dense <= 1e11:
            assert certified


def tight_column(n, cond):
    """Column of A = alpha J + beta I (J all ones) with alpha = conj(rho)
    and beta = alpha n/(cond - 1) up to rounding, and the exact cond(A)^2.

    A is normal with singular values |alpha n + beta| and |beta|, so the
    exact condition number is known; Re(rho A) is about J + (n/cond) I,
    whose Frobenius norm is its largest eigenvalue, where the certificate's
    bound is tight."""
    alpha = np.conj(mom._ROTATION)
    col = np.full(n, alpha)
    col[0] = alpha * (1.0 + n / (cond - 1.0))
    are, aim = Fraction(alpha.real), Fraction(alpha.imag)
    bre, bim = Fraction(col[0].real) - are, Fraction(col[0].imag) - aim
    return col, ((n * are + bre) ** 2 + (n * aim + bim) ** 2) \
        / (bre ** 2 + bim ** 2)


@pytest.mark.parametrize("n", [11, 21, 83])
def test_certificate_soundness_grid(n):
    """The certificate never accepts a column whose cond exceeds 1e12."""
    def check(col):
        certified = certify(col)
        assert not certified or np.linalg.cond(toeplitz(col)) <= 1e12
        return certified

    # near the limit, the lowest eigenvalue in either mode, turned by up
    # to 80 degrees either way
    for mode in (0, 1):
        for delta in np.logspace(-12.5, -11.5, 9):
            for deg in (-80, -5, 0, 40, 80):
                check(mode_column(n, delta, mode) * np.exp(1j * np.deg2rad(deg)))
    # exactly known cond, around the limit, where the bound is tight
    for excess in np.concatenate((-np.logspace(-1, -8, 8), np.logspace(-8, 0, 9))):
        col, cond2 = tight_column(n, 1e12 * (1.0 + excess))
        certified = certify(col)
        assert not certified or cond2 <= Fraction(10) ** 24
        if excess <= -0.1:
            assert certified
    # cond 1 but definite the wrong way; zero; not finite
    assert not check(-unit_column(n))
    assert not certify(np.zeros(n, dtype=complex))
    for value in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        col = unit_column(n).astype(complex)
        col[n // 3] = value
        assert not certify(col)
    # scaled to both ends of the covered squared norms: the same verdict
    # just outside as just inside, since cond does not see scale
    low, high = mom._SQUARED_NORM_RANGE
    for col, verdict in ((unit_column(n), True), (mode_column(n, 1e-11), True),
                         (mode_column(n, 1e-13, 0), False),
                         (tight_column(n, 2e12)[0], False)):
        assert certify(col) == verdict
        s2 = np.linalg.norm(toeplitz(col)) ** 2
        for end, outward in ((low, 0.99), (high, 1.01)):
            for scale in (outward, 1.0 / outward):
                assert check(col * (np.sqrt(end / s2) * scale)) == verdict


def exact_claim(col):
    """Whether lambda_min(Re(rho A)) > |rho| s/L, s = ||A||_F, holds in
    exact rational arithmetic: the claim _certified's proof derives from a
    completed Cholesky, and the whole matrix holds both folded blocks."""
    rr, ri = Fraction(mom._ROTATION.real), Fraction(mom._ROTATION.imag)
    c = [(Fraction(z.real), Fraction(z.imag)) for z in col.astype(complex)]
    n = len(c)
    s2 = sum((2 * (n - k) if k else n) * (a * a + b * b)
             for k, (a, b) in enumerate(c))
    t2 = (rr * rr + ri * ri) * s2 / Fraction(10) ** 24
    t = Fraction(math.sqrt(t2))
    while t * t < t2:
        t *= 1 + Fraction(1, 2 ** 50)
    rc = [rr * a - ri * b for a, b in c]
    h = [[rc[abs(i - j)] - (t if i == j else 0) for j in range(n)]
         for i in range(n)]
    for k in range(n):   # definite iff every elimination pivot is positive
        if h[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = h[i][k] / h[k][k]
            for j in range(k + 1, n):
                h[i][j] -= f * h[k][j]
    return True


def threshold_column(n, excess, rng):
    """Random complex symmetric Toeplitz column, shifted along conj(rho) so
    that lambda_min(Re(rho A)) is about (1 + excess) |rho| s/L: where the
    certificate's bound is tight, so only its margin covers rounding."""
    col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.arange(1, n + 1)
    rho = mom._ROTATION
    for _ in range(3):
        a = toeplitz(col)
        low = np.linalg.eigvalsh((rho * a).real)[0]
        target = abs(rho) * np.linalg.norm(a) / 1e12 * (1.0 + excess)
        col[0] += np.conj(rho) * (target - low) / abs(rho) ** 2
    return col


def test_certificate_claim_holds_exactly():
    # within 1e-5 of the bound rounding decides a margin-free Cholesky
    # test; an accepted column must meet the proof's claim exactly
    rng = np.random.default_rng(11)
    for _ in range(40):
        for excess in (-1e-5, -3e-6, -1e-6, 1e-6, 3e-6, 1e-5, 1e-2):
            col = threshold_column(11, excess, rng)
            certified = certify(col)
            assert not certified or exact_claim(col)
            if excess >= 1e-2:
                assert certified


def circulant_cosines(n):
    """cos(2 pi jk/G), j = 0..G/2 by k = 0..n-1, for the order G = 2^k >=
    2n - 1 of _certified's circulant tier."""
    g = 2 ** (2 * n - 2).bit_length()
    jk = np.outer(np.arange(g // 2 + 1), np.arange(n)) % g
    return np.cos(2 * np.pi * jk / g)


def circulant_threshold_column(n, excess, rng):
    """Random complex symmetric Toeplitz column whose turned real part,
    less tau, embeds in a circulant whose lowest eigenvalue, summed over its
    cosines, is about (1 + excess) times the circulant tier's margin
    64(k+2) sqrt(G) u s: where that tier's test is decided."""
    col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / np.arange(1, n + 1)
    rho, u = mom._ROTATION, mom._UNIT_ROUNDOFF
    m, k = (n + 1) // 2, (2 * n - 2).bit_length()
    for _ in range(3):
        s = np.linalg.norm(toeplitz(col))
        x = (rho * col).real
        x[0] -= s * (1e-12 + 2 * (m + 1) ** 1.5 * u)
        low = (circulant_cosines(n) @ np.concatenate((x[:1], 2.0 * x[1:]))).min()
        target = 64 * (k + 2) * 2 ** (k / 2) * u * s * (1.0 + excess)
        col[0] += np.conj(rho) * (target - low) / abs(rho) ** 2
    return col


def test_circulant_tier_is_sound_at_its_own_threshold(monkeypatch):
    # within 1e-5 of its margin (as finely as x_0's rounding places it)
    # rounding decides the circulant test, either way about as often; a
    # column it accepts (no fold) must meet the proof's claim exactly. Half
    # the margin away, the tier alone accepts or falls through to the
    # Cholesky tier (one float fold).
    folds = fold_spy(monkeypatch)
    rng = np.random.default_rng(26)
    verdicts = []
    for _ in range(10):
        for excess in (-1e-5, -3e-6, -1e-6, 1e-6, 3e-6, 1e-5):
            col = circulant_threshold_column(11, excess, rng)
            del folds[:]
            if certify(col) and folds == []:
                assert exact_claim(col)
            verdicts.append(folds == [])
    assert 0 < sum(verdicts) < len(verdicts)
    for n in (11, 83, 321):
        for excess, tiers in ((0.5, []), (-0.5, [np.float64])):
            del folds[:]
            certify(circulant_threshold_column(n, excess, rng))
            assert folds == tiers


@pytest.mark.parametrize("n", [11, 83, 321])
def test_circulant_spectrum_rounding_is_inside_its_bound(n):
    # the circulant tier's eigenvalues from one rfft against exactly
    # rounded sums of the same cosines: the _certified docstring bounds
    # their gap by 16 k sqrt(G) u s, a quarter of the tier's margin
    rng = np.random.default_rng(n)
    k = (2 * n - 2).bit_length()
    g = 2 ** k
    cos = circulant_cosines(n)
    for decay in (0.0, 1.0, 2.0):
        for _ in range(3):
            col = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
                / np.arange(1, n + 1) ** decay
            s = np.linalg.norm(toeplitz(col))
            x = (col * mom._ROTATION).real
            fast = 2.0 * np.fft.rfft(x, g).real - x[0]
            y = np.concatenate((x[:1], 2.0 * x[1:]))
            exact = [math.fsum(row) for row in cos * y]
            assert np.abs(fast - exact).max() \
                <= 16 * k * math.sqrt(g) * mom._UNIT_ROUNDOFF * s


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
@pytest.mark.parametrize("n", [21, 83])
def test_scaled_system_solved_silently(scale, n, capfd):
    # the squared norm leaves the covered range at some of these scales; the
    # certificate then judges the column scaled by a power of two
    model = thin_half_wave()
    mesh = build_mesh(model, n=n)
    system = assemble_system(mesh, 1.8e9)
    assert certify(system * scale)
    cur = solve_current(system, mesh)
    scaled = solve_current(system * scale, mesh)
    assert np.abs(scaled * scale - cur).max() <= 1e-11 * np.abs(cur).max()
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def _calls_made_by(package_dir, call):
    """The c_call and call events that frames of package_dir's files make
    while call() runs, by callee name."""
    events = {}

    def profile(frame, event, arg):
        if event == "c_call":
            caller, name = frame, getattr(arg, "__qualname__", repr(arg))
        elif event == "call" and frame.f_back is not None:
            caller, name = frame.f_back, frame.f_code.co_name
        else:
            return
        if caller.f_code.co_filename.startswith(package_dir):
            events[name] = events.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return events


def test_solve_at_dispatch_count_does_not_grow():
    # a deterministic count, not a timing: every call a dipolekit frame
    # makes during one band sample at n = 21 (NumPy's ufuncs, which the
    # profiler does not report, excepted); the bound is today's count
    mesh = build_mesh(thin_half_wave(), n=21)
    solve_at(mesh, 1.8e9)
    events = _calls_made_by(os.path.dirname(mom.__file__),
                            lambda: solve_at(mesh, 1.8e9))
    assert sum(events.values()) <= 36, sorted(events.items())


def test_solve_constants_are_shared_read_only_per_n():
    # two meshes of one n, on different wires and given n as an int or a
    # NumPy integer, solve with the same arrays, which no caller can write
    wide, thin = WireModel(67.0, 1.5, 3.3), thin_half_wave()
    for n in (21, np.int64(21), np.int32(21)):
        assert mom._per_n(build_mesh(wide, n=n).n)[1] \
            is mom._per_n(build_mesh(thin, n=21).n)[1]
    weights, g, shift, margin, e_p = mom._per_n(21)[1]
    assert weights.tolist() == [21.0] + list(range(40, 0, -2))
    assert g == 64 and e_p.tolist() == [0] * 10 + [1]
    assert margin == 64 * (6 + 2) * 8 * mom._UNIT_ROUNDOFF   # G = 2^6
    for array in (weights, e_p):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    solve_at(build_mesh(thin, n=21), 1.8e9)
    assert weights[0] == 21.0 and e_p[-1] == 1.0


def test_quadrature_layout_is_shared_read_only_per_n():
    # two meshes of one n, on different wires and given n as an int or a
    # NumPy integer, build from the same table, which no caller can write
    wide, thin = WireModel(67.0, 1.5, 3.3), thin_half_wave()
    for n in (21, np.int64(21), np.int32(21)):
        assert mom._per_n(build_mesh(wide, n=n).n)[0] \
            is mom._per_n(build_mesh(thin, n=21).n)[0]
        assert build_mesh(wide, n=n).quad_starts \
            is build_mesh(thin, n=21).quad_starts
    layout = mom._per_n(21)[0]
    starts = build_mesh(thin, n=21).quad_starts
    assert starts is layout[3]
    before = [array.copy() for array in layout]
    for array in layout:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 2.0
    solve_at(build_mesh(thin, n=21), 1.8e9)
    for array, copy in zip(layout, before):
        assert np.array_equal(array, copy)
    assert starts[0] == 0


def test_segments_longer_than_a_quarter_wavelength_refused():
    # kh = pi/2 at h = lambda_e/4: solved just below, refused just above,
    # where the message names the smallest odd n that solves and the
    # highest f this mesh resolves, rounded down so that it solves
    base = thin_half_wave()
    model = WireModel(base.total_length, base.radius, 3.3)
    mesh = build_mesh(model, n=21)
    h = model.total_length / 22
    edge = mom.C_MM_PER_S / (4.0 * h * math.sqrt(model.eps_e))
    assert wavenumber(edge, model.eps_e) * h == pytest.approx(math.pi / 2)
    solve_at(mesh, edge * (1 - 1e-9))
    above = edge * (1 + 1e-9)
    with pytest.raises(SolverError, match=r"^at %s Hz: h = 3\.785 mm > "
                       r"lambda_e/4 = 3\.785 mm; use n >= 23, or "
                       r"f <= 1\.089e\+10 Hz at n = 21$"
                       % re.escape("%g" % above)):
        solve_at(mesh, above)
    solve_at(build_mesh(model, n=23), above)
    # past the finest mesh the wire allows (delta >= a, or MAX_SEGMENTS)
    # no n is named, only that limit
    for wire, top in ((model, 499), (replace(model, radius=1e-4), 4001)):
        edge = mom.C_MM_PER_S / (4.0 * wire.total_length / (top + 1)
                                 * math.sqrt(wire.eps_e))
        coarse = build_mesh(wire, n=21)
        with pytest.raises(SolverError, match=r"; use n >= %d, or f <= "
                           r"1\.089e\+10 Hz at n = 21$" % top):
            solve_at(coarse, edge * (1 - 1e-9))
        with pytest.raises(SolverError, match=r"; no mesh of this wire "
                           r"resolves f \(n <= %d\), or f <= 1\.089e\+10 "
                           r"Hz at n = 21$" % top):
            solve_at(coarse, edge * (1 + 1e-9))


def test_quarter_wavelength_refusal_names_a_frequency_that_solves():
    # the highest f the mesh resolves, rounded down to 4 digits, solves; one
    # below 1e-300 Hz is named as 0, and neither overflows nor underflows
    base = thin_half_wave()
    mesh = build_mesh(WireModel(base.total_length, base.radius, 3.3), n=21)
    solve_at(mesh, 1.089e10)
    huge = build_mesh(WireModel(1e300, 1e297, 1e30), n=11)
    with pytest.raises(SolverError, match=r", or f <= 0 Hz at n = 11$"):
        solve_at(huge, 1e-300)


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
    monkeypatch.setattr(mom, "_certified", lambda col, out: True)
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
    # certified, and refused at cond 1 and at cond 1e13
    mesh = build_mesh(thin_half_wave(), n=21)
    for col in (assemble_system(mesh, 1.8e9), -unit_column(mesh.n),
                mode_column(mesh.n, 1e-13)):
        kept = col.copy()
        try:
            solve_current(col, mesh)
        except SolverError:
            pass
        assert col.tobytes() == kept.tobytes()


def test_non_centrosymmetric_system_fails_residual():
    # no column writes it: it is well conditioned (cond < 10), and the
    # even-mode solve on its dense T + H misses the full system by far more
    # than the residual limit
    mesh = build_mesh(thin_half_wave(), n=21)
    p = mesh.n // 2
    rng = np.random.default_rng(6)
    system = np.eye(mesh.n) + 0.1 * rng.standard_normal((mesh.n, mesh.n))
    assert np.linalg.cond(system) < 10
    blocks = dense_t_h(system)
    z = np.linalg.solve(blocks[0], np.eye(p + 1)[p])
    x = np.concatenate((z, z[p - 1::-1]))
    x[p] *= 2.0
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


def test_overflowing_certified_column_fails_residual():
    # the guard judges the column scale-free and proves it, but its fold
    # overflows to inf and the LU gives nan currents: a nan residual fails
    mesh = build_mesh(thin_half_wave(), n=21)
    col = assemble_system(mesh, 1.8e9)
    col *= 1e308 / np.abs(col).max()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="^solve residual nan exceeds"):
        solve_current(col, mesh)


class RecordingLimit:
    """Stands in for the residual limit: records each residual compared
    with it, and lets every solve pass."""

    def __init__(self):
        self.seen = []

    def __ge__(self, residual):    # residual <= limit
        self.seen.append(residual)
        return True


@pytest.mark.parametrize("n", [11, 83])
def test_reported_residual_is_the_dense_residual(n, monkeypatch):
    # a solve perturbed far above rounding, in every unknown, so that both
    # the doubled rows r[:p] and the centre row r_p count
    mesh = build_mesh(thin_half_wave(), n=n)
    col = assemble_system(mesh, 1.8e9)
    limit = RecordingLimit()
    monkeypatch.setattr(mom, "_RESIDUAL_LIMIT", limit)
    rng = np.random.default_rng(n)
    solve = np.linalg.solve

    def perturbed(a, b):
        z = solve(a, b)
        return z + 1e-6 * np.abs(z).max() * rng.standard_normal(z.shape)
    monkeypatch.setattr(np.linalg, "solve", perturbed)
    currents = solve_current(col, mesh)
    dense = np.linalg.norm(toeplitz(col) @ currents - np.eye(n)[mesh.n // 2])
    assert dense > 1e-6
    assert limit.seen == [pytest.approx(dense, rel=1e-8)]


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
    # the wire of a W = 1.26e15 mm strip on FR4 (which breaks w_over_h),
    # the shortest whose largest R, quad_r[-1, -1] at the far end's outermost
    # 8-point node, takes k*R past the float range
    W = 1261007895663703.0
    f = 1.1212699280039864e29
    model = WireModel(3.690793813047976e289, W / 4,
                      eps_eff_microstrip(4.3, W, 1.6))
    shorter = replace(model, total_length=np.nextafter(model.total_length, 0))
    assert math.isfinite(wavenumber(f, model.eps_e)
                         * float(build_mesh(shorter).quad_r[-1, -1]))
    mesh = build_mesh(model)
    with pytest.raises(SolverError, match="k\\*R overflows"):
        assemble_system(mesh, f)
    with pytest.raises(SolverError, match="k\\*R overflows"):
        impedance_at(model, f)
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_infinite_wavenumber_raises_solver_error():
    # a finite f and eps_e whose k overflows; assembly refuses the k
    mesh = build_mesh(WireModel(67.0, 1.5, 1e300))
    with pytest.raises(SolverError, match="^wavenumber is not finite$"):
        assemble_system(mesh, 1e200)


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
    assert cur.mesh is mesh
    assert input_impedance(cur) == 1 / cur.feed_current


def test_input_impedance_warns_on_a_vanishing_feed_current():
    mesh = build_mesh(thin_half_wave(), n=21)
    currents = np.ones(mesh.n, dtype=complex)
    currents[mesh.n // 2] = 1e-12
    cur = mom.CurrentDistribution(currents=currents, mesh=mesh, f=1.8e9)
    with pytest.warns(RuntimeWarning, match="feed current nearly zero"):
        assert input_impedance(cur) == pytest.approx(1e12)


def test_frequency_grid():
    g = frequency_grid(1.0e9, 1.3e9, 0.1e9)
    assert np.allclose(g, [1.0e9, 1.1e9, 1.2e9, 1.3e9])
    assert frequency_grid(1.8e9, 1.8e9, 0.1e9).tolist() == [1.8e9]
    with pytest.raises(ValueError):
        frequency_grid(2e9, 1e9, 0.1e9)
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^f_step must be finite and > 0"):
            frequency_grid(1e9, 2e9, step)
    for step in (1e-310, 1e-3):     # inf steps; 1e12 steps
        with pytest.raises(ValueError, match="limit"):
            frequency_grid(1e9, 2e9, step)


@pytest.mark.parametrize("band, named", [
    ((-1e8, -5e7, 1e7), "-1e+08"),
    ((0.0, 1e9, 1e7), "0"),
    ((1e9, math.inf, 1e7), "inf"),
    ((math.inf, math.inf, 1e6), "inf"),
    ((math.nan, 1e9, 1e7), "nan"),
])
def test_frequency_grid_refuses_band_ends_outside_the_open_half_line(band,
                                                                     named):
    # the first band end outside (0, inf), not "band has nan steps"
    with pytest.raises(ValueError, match="^frequency must be finite and > 0, "
                       "got %s$" % re.escape(named)):
        frequency_grid(*band)


def test_geometry_model_uses_fringing_eps():
    model = geometry_model(DipoleGeometry(L=67, W=6), FR4)
    assert model.radius == 1.5
    assert model.eps_e == pytest.approx(3.45511756018254, rel=1e-12)


def test_geometry_model_checks_the_restrictions():
    # W/h = 20.6 on 1.6 mm FR4: the reduction itself is the gate, with no
    # frequency to choose
    with pytest.raises(DesignRuleError, match="^geometry violates "
                       "restriction\\(s\\): w_over_h$"):
        geometry_model(DipoleGeometry(L=700.0, W=33.0), FR4)


def test_sweep_returns_metrics_result():
    res = sweep(DipoleGeometry(L=67, W=6), FR4, 1.0e9, 1.2e9, 0.1e9)
    assert isinstance(res, SweepResult)
    assert len(res.f) == 3
    assert res.f.tolist() == [1.0e9, 1.1e9, 1.2e9]
    assert all(res.z_in.real > 0)
    # the mesh it solved on: the automatic one, whose solves reproduce z_in
    assert res.mesh.n == default_segments(67.0, 1.5)
    assert input_impedance(solve_at(res.mesh, 1.1e9)) == res.z_in[1]


@pytest.mark.parametrize("band", [(1.0e9, 2.6e9, 0.1e9), (1.8e9, 1.8e9, 1e6)],
                         ids=["17 frequencies", "one frequency"])
def test_solve_band_on_a_sweeps_mesh_and_grid_is_the_sweep(band):
    res = sweep(DipoleGeometry(L=67, W=6), FR4, *band)
    band_res = solve_band(res.mesh, frequency_grid(*band), res.z0)
    assert band_res.mesh is res.mesh
    for name in ("f", "z_in", "s11_db", "vswr"):
        assert getattr(band_res, name).tolist() == getattr(res, name).tolist()


def test_solve_band_leaves_a_bad_grid_or_z0_to_the_result():
    # its callers refuse both before any solve; a direct caller's bad grid
    # or z0 is still refused, by SweepResult
    mesh = build_mesh(geometry_model(DipoleGeometry(L=67, W=6), FR4))
    with pytest.raises(ValueError, match="strictly ascending"):
        solve_band(mesh, np.array([1.9e9, 1.8e9]), 50.0)
    with pytest.raises(ValueError, match="^reference impedance must be "
                       "finite and > 0, got 0$"):
        solve_band(mesh, np.array([1.8e9]), 0.0)


@pytest.mark.parametrize("grid", [list, tuple, np.array],
                         ids=["list", "tuple", "array"])
def test_solve_band_takes_any_1d_grid(grid, monkeypatch):
    mesh = build_mesh(geometry_model(DipoleGeometry(L=67, W=6), FR4))
    freqs = [1.0e9, 1.8e9, 2.0e9]
    res = solve_band(mesh, grid(freqs), 50.0)
    want = solve_band(mesh, np.array(freqs), 50.0)
    for name in ("f", "z_in", "s11_db", "vswr"):
        assert getattr(res, name).tolist() == getattr(want, name).tolist()

    def no_solve(*args):
        raise AssertionError("solved a frequency of a 2-D grid")
    monkeypatch.setattr(mom, "solve_at", no_solve)
    with pytest.raises(ValueError, match=r"^frequency grid must be 1-D, "
                       r"got shape \(2, 3\)$"):
        solve_band(mesh, grid([freqs, freqs]), 50.0)


def test_sweep_rejects_rule_violations():
    # w/h = 40 breaks the hard w/h <= 20 restriction
    wide = DipoleGeometry(L=300.0, W=64.0)
    with pytest.raises(DesignRuleError, match="w_over_h"):
        sweep(wide, FR4, 1.0e9, 1.2e9, 0.1e9)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)


def _integral(fn, x: float) -> float:
    """The integral of fn over [0, x] by the 200-point Gauss-Legendre rule."""
    t = 0.5 * x * (_GL_X + 1.0)
    return 0.5 * x * float(np.sum(_GL_W * fn(t)))


def _si(x: float) -> float:
    return _integral(lambda t: np.sinc(t / np.pi), x)


def _ci(x: float) -> float:
    return np.euler_gamma + math.log(x) - _integral(
        lambda t: (1.0 - np.cos(t)) / t, x)


@pytest.mark.parametrize("a_over_lambda", [1e-3, 1e-4])
@pytest.mark.parametrize("l_over_lambda", [0.25, 0.5, 0.75, 0.9])
def test_one_basis_function_is_the_induced_emf_impedance(
        l_over_lambda, a_over_lambda, monkeypatch):
    """With n = 1 the one basis function spans the wire (h = L/2): it is the
    sinusoidal current I(z) = sin(k(L/2 - |z|))/sin(kL/2), I(0) = 1, and the
    Galerkin entry is its reaction with itself, Z_in = Z_m/sin^2(kL/2), where
    Z_m is the induced-EMF impedance referred to the current maximum
    (Balanis 8-60). Z_m = (eta/4pi) * integral of I(z) times the kernel
    e^{-jkR}/R, R^2 = (z - z_i)^2 + a^2, at the centres z_i = -L/2, 0, L/2
    with weights 1, -2c, 1, c = cos(kL/2). The closed form keeps a only in
    its log term Ci(2ka^2/L); what it drops sets both bounds.

    R: sin(kR)/R is smooth in R^2, with |d/d(a^2)| = |kR cos kR - sin kR|
    /(2R^3) <= k^3/6. Against the weights' sum 2 + 2|c| and, for L <= lambda
    (I >= 0), integral I dz = 2(1 - c)/k, that gives |dR_m| <= eta (ka)^2
    (1 + |c|)(1 - c)/(6 pi), 8e-6 of R_m at a = lambda/10^3. The 16-point
    rule's own error, at most 1.5e-6 of R_m on this grid, is allowed as
    3e-6 R_m; past L = 0.9 lambda or below a = lambda/10^4 it grows (1e-3
    at L = 1.25 lambda, a = lambda/10^6), so the grid stops there.

    X: near a centre cos(kR)/R ~ 1/sqrt(a^2 + zeta^2), and a current whose
    slope jumps by dg there adds -a dg beyond the logarithm. The slope jumps
    by -2kc at the feed (weight -2c) and by +k at each tip (weight 1), so
    dX_m = -(eta/4pi) 2ka(1 + 2c^2) = -(eta ka/2pi)(2 + cos kL), which is
    proportional to a/lambda; the rest is O((ka)^2 ln ka), under 0.3% of it
    here, and the test allows 1%. At L = lambda/2 this single mode is the
    73 + j42.5 ohm of the half-wave dipole.
    """
    monkeypatch.setattr(mom, "MIN_SEGMENTS", 1)   # the library keeps 11
    monkeypatch.setattr(mom, "_NEAR", 4)   # n = 1 has four intervals
    f = 1.8e9
    k = 2.0 * np.pi / LAMBDA_18
    L, a = l_over_lambda * LAMBDA_18, a_over_lambda * LAMBDA_18
    kl, ka, c = k * L, k * a, math.cos(k * L / 2.0)
    r_m = ETA0 / (2.0 * np.pi) * (
        np.euler_gamma + math.log(kl) - _ci(kl)
        + 0.5 * math.sin(kl) * (_si(2.0 * kl) - 2.0 * _si(kl))
        + 0.5 * math.cos(kl) * (np.euler_gamma + math.log(kl / 2.0)
                                + _ci(2.0 * kl) - 2.0 * _ci(kl)))
    x_m = ETA0 / (4.0 * np.pi) * (
        2.0 * _si(kl) + math.cos(kl) * (2.0 * _si(kl) - _si(2.0 * kl))
        - math.sin(kl) * (2.0 * _ci(kl) - _ci(2.0 * kl)
                          - _ci(2.0 * ka * a / L)))
    z_m = assemble_system(build_mesh(WireModel(L, a), 1), f)[0] \
        * math.sin(kl / 2.0) ** 2
    r_bound = ETA0 * ka ** 2 * (1.0 + abs(c)) * (1.0 - c) / (6.0 * np.pi)
    assert abs(z_m.real - r_m) <= r_bound + 3e-6 * r_m
    dx_first_order = -ETA0 * ka / (2.0 * np.pi) * (2.0 + math.cos(kl))
    assert abs(z_m.imag - x_m - dx_first_order) <= 0.01 * abs(dx_first_order)


def on_axis_entries(n: int, h: float, k: float, eta: float) -> np.ndarray:
    """c_d(0), d = 3..n-1: the column entries of a wire of zero radius,
    j eta/(4 pi sin^2 kh) times the integral of the test current sin(k(h -
    |u|)) against e^{-jk|z|}/|z| at z = u + (d - c)h, weighted 1, -2 cos kh,
    1 at c = -1, 0, 1, by the 200-point Gauss-Legendre rule on each half of
    the test basis, where the integrand is smooth."""
    u = np.concatenate((-0.5 * h * (_GL_X + 1.0), 0.5 * h * (_GL_X + 1.0)))
    weights = np.concatenate((_GL_W, _GL_W)) * (0.5 * h) \
        * np.sin(k * (h - np.abs(u)))
    z = np.abs(u + h * (np.arange(3, n)[:, None, None]
                        - np.array([-1.0, 0.0, 1.0])[:, None]))
    centres = np.array([1.0, -2.0 * math.cos(k * h), 1.0])[:, None]
    field = (centres * np.exp(-1j * k * z) / z).sum(axis=1)
    return 1j * eta / (4.0 * np.pi * math.sin(k * h) ** 2) * (field @ weights)


@pytest.mark.parametrize("h_over_a", [2.0, 30.0, 1000.0])
@pytest.mark.parametrize("n", [21, 83, 321])
def test_disjoint_column_entries_match_the_on_axis_reference(n, h_over_a):
    """Entries c_d, d >= 3, whose test and source supports lie at least D =
    (d - 2)h apart, against their on-axis (a = 0) values.

    c_d = j pre F(a), pre = eta/(4 pi sin^2 kh), where F(r) is the integral
    over the test basis of J(u) = sin(k(h - |u|)) times E(r, u) = sum_c w_c
    K_r(u + (d - c)h), w = (1, -2 cos kh, 1) at c = -1, 0, 1, and K_r(z) =
    e^{-jkR}/R, R^2 = z^2 + r^2: the reduced kernel is the source's field
    at radius r from its axis. K_r solves the Helmholtz equation away from
    its source, K_rr + K_r/r + K_zz + k^2 K = 0, and J'' + k^2 J = k sum_c'
    w_c' delta(u - c'h), so integrating by parts twice, (r F')'/r = -G(r)
    with G(r) = k sum_c' w_c' E(r, c'h), and |F(a) - F(0)| <= (a^2/4)
    max_{r <= a} |G(r)|.

    Write K_r(z) = e^{-jkz} phi_r(z). Then G(r) = k e^{-jkdh} sum_{c,c'}
    w_c w_c' e^{jk(c - c')h} phi_r((d - c + c')h), and as sum_c w_c
    e^{+-jkch} = 0 the double sum vanishes on any affine phi. Taylor's
    remainder about dh leaves |G| <= k sum |w_c w_c'| (c - c')^2 h^2/2 M =
    4k(1 + cos kh) h^2 M, M the largest |phi_r''| on [D, D + 4h]. With q =
    R - z = r^2/(R + z), |q'| <= r^2/(2z^2) and q'' = R'' = r^2/R^3, so
    |phi_r''| <= (2/z^3) beta, beta = 1 + ka^2/D + (ka^2/D)^2/8 + a^2/(2D^2).
    Altogether

        |c_d(a) - c_d(0)| <= beta gamma (a/D)^2 sigma_d,

    sigma_d = eta/(pi k D) and gamma = (kh)^2/(2(1 - cos kh)) in [1,
    pi^2/8]. sigma_d = pre sum |w_c| (integral of J)/D is the size of the
    entry's three centre terms before they cancel, and the bound is taken
    against it, not against c_d: on the axis the 1/z fields of the centres
    cancel, so |c_d| is a small part of sigma_d: at most 0.11 of it on this
    grid, and under 1e-4 past d = 100 at kh = 0.01. Where kh nears pi/2 the
    first-order term meets the bound, within 2.5% past d = 300.

    Rounding. The mesh places each quadrature node at a sinh(t) from t =
    asinh(z/a), which errs by about (asinh(z/a) + 2) u z; the weights, t
    differences over an interval about h/z wide in t, and the sine and phase
    factors then err by about (asinh(z/a) + 2) u z/h of their size, with z
    <= (d + 2)h. The entry's terms, together at most sigma_d, err alike,
    and 4 times that is allowed: at most 0.22 of the radius bound here. The
    reference's rule is exact to rounding: its integrand's nearest
    singularity lies a whole half-basis beyond each interval.
    """
    h = 1.0
    model = WireModel((n + 1) * h, h / h_over_a, 3.3)
    mesh = build_mesh(model, n=n)
    eta = ETA0 / math.sqrt(model.eps_e)
    d = np.arange(3, n)
    big_d = (d - 2) * h
    a = model.radius
    for kh in (0.01, 0.1, 0.5, 1.0, 1.5, math.pi / 2 * (1 - 1e-9)):
        k = kh / h
        col = assemble_system(mesh, k * mom.C_MM_PER_S
                              / (2.0 * math.pi * math.sqrt(model.eps_e)))
        sigma = eta / (np.pi * k * big_d)
        ka2 = k * a * a / big_d
        beta = 1.0 + ka2 + ka2 ** 2 / 8.0 + (a / big_d) ** 2 / 2.0
        gamma = kh ** 2 / (2.0 * (1.0 - math.cos(kh)))
        rounding = 4.0 * (np.arcsinh((d + 2) * h / a) + 2.0) * (d + 2) \
            * mom._UNIT_ROUNDOFF
        bound = (beta * gamma * (a / big_d) ** 2 + rounding) * sigma
        gap = np.abs(col[3:] - on_axis_entries(n, h, k, eta))
        assert np.all(gap <= bound), (kh, d[np.argmax(gap / bound)])
