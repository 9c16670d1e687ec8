"""Thin-wire method-of-moments solver for a center-fed strip dipole.

The strip is reduced to an equivalent round wire (a = W/4) embedded in a
homogeneous effective medium. Currents are expanded in overlapping
piecewise-sinusoidal basis functions on a uniform node grid with the tips
pinned to zero; Galerkin testing against the same functions yields a
symmetric Toeplitz system, driven by a 1 V delta gap at the center node,
so Z_in = 1/I_feed. The radiated-field kernel e^{-jkR}/(4*pi*R) is
integrated with an arcsinh substitution around each of the three kernel
centers of a basis function, which keeps the quadrature accurate even when
the node spacing approaches the wire radius. The three centers are shifted
views of one set of n+2 integrals per test half, whose geometry does not
depend on frequency. The mesh carries it along with the wire model it was
built for (length, radius and medium), so each assembly takes only the mesh
and a frequency, evaluates the k-dependent factors and returns the
matrix's first column. The matrix is also centrosymmetric and the center
feed excites only its even mode, so each solve folds that column to the
(n+1)/2 even-mode unknowns. Both blocks are complex symmetric, so the
condition guard first tries to prove the limit with one real Cholesky test
of each block's real part after a small phase turn, with a margin for
rounding, and computes the exact condition number by SVD only when that
test fails. solve_at(mesh, f) is the one path from a mesh to its currents.

No n x n matrix is built: above n = 64 the largest block is the folded
(2, p+1, p+1) buffer B, half a dense A. The solve runs before the guard,
which turns B in place, so a solve holds B, the even block's LU copy (B/2)
and then the Cholesky's real input and factor (B/4, B/2): under 2 B,
glibc's heap trim threshold once B is freed. Freeing more hands the heap
back for the next frequency to fault in again, as one more O(n^2) copy would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .design import C_MM_PER_S, DipoleGeometry, Substrate, check_design_rules, \
    eps_eff_microstrip
from .errors import MeshError, SolverError
from .metrics import DEFAULT_Z0, SweepResult

#: free-space wave impedance, ohm
ETA0 = 376.730313668

#: largest automatic segment count (thin-wire regime), see default_segments
DEFAULT_N_SEGMENTS = 41

MIN_SEGMENTS = 11

#: largest segment count: a solve holds about 8 (n+1)^2 bytes of folded
#: blocks (128 MB here), and more ends in a MemoryError mid-solve; a fixed
#: limit, not an option, so one place bounds what a solve may allocate
MAX_SEGMENTS = 4001

#: most frequencies one sweep may hold
MAX_GRID_POINTS = 1_000_000

#: Gauss-Legendre points per kernel integral
_N_QUAD = 16
_XQ, _WQ = np.polynomial.legendre.leggauss(_N_QUAD)

#: relative condition limit before the solve is refused
_COND_LIMIT = 1e12

_UNIT_ROUNDOFF = np.finfo(float).eps / 2

#: squared Frobenius norms _certified covers: far enough from underflow
#: that absolute rounding stays under its margin, and from overflow that no
#: sum or Cholesky entry can be inf or nan
_SQUARED_NORM_RANGE = (np.finfo(float).tiny / _UNIT_ROUNDOFF,
                       _UNIT_ROUNDOFF / np.finfo(float).tiny)

#: e^{i theta}, theta = 5 degrees: _certified's phase turn, under which
#: resistance and capacitive reactance both add to the real part
_ROTATION = np.exp(1j * np.pi / 36)

_RESIDUAL_LIMIT = 1e-8

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class WireModel:
    """Equivalent round-wire reduction of a strip dipole."""

    total_length: float   # mm
    radius: float         # mm
    eps_e: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.total_length <= 20.0 * self.radius:
            raise ValueError("thin-wire model needs total_length > 20*radius "
                             "(L=%g, a=%g)" % (self.total_length, self.radius))
        if self.eps_e < 1.0:
            raise ValueError("eps_e must be >= 1")


@dataclass(frozen=True)
class SegmentMesh:
    """Uniform segmentation of the axis of the wire `model`.

    `model` is the wire the mesh was built for: its length, radius and
    medium are what assembly and the far field use. The current expansion
    lives on the n interior nodes `nodes` (spacing h = L/(n+1)), whose end
    half-bases terminate exactly at the wire tips.

    The kernel quadrature is laid out once per mesh, as (2, n+2, 16) quad_*
    arrays. Axis 0 is the lower then upper half of the test basis; axis 1
    the separation d = (j - c)h, j - c = -1..n, of source knot c in
    {-1, 0, +1} from column entry j; axis 2 the Gauss-Legendre arcsinh
    nodes. quad_dz holds |z - z'|, quad_r the reduced distance R, quad_w
    the weights td*wq.
    """

    model: WireModel
    n: int
    nodes: np.ndarray
    feed_index: int
    quad_dz: np.ndarray = field(repr=False)
    quad_r: np.ndarray = field(repr=False)
    quad_w: np.ndarray = field(repr=False)


def strip_to_wire(W: float) -> float:
    """Equivalent round-wire radius of a flat strip: a = W/4."""
    if W <= 0:
        raise ValueError("strip width must be > 0")
    return W / 4.0


def max_segments(total_length: float, radius: float) -> int:
    """Largest odd segment count keeping delta = L/n >= radius."""
    n = int(total_length / radius)
    if n % 2 == 0:
        n -= 1
    return n


def default_segments(total_length: float, radius: float) -> int:
    """Segment count for good kernel accuracy: node spacing >= 2*radius.

    Falls back to MIN_SEGMENTS for very fat wires; capped at
    DEFAULT_N_SEGMENTS.
    """
    n = int(min(total_length / (2.0 * radius), DEFAULT_N_SEGMENTS + 1)) - 1
    if n % 2 == 0:
        n -= 1
    return max(n, MIN_SEGMENTS)


def build_mesh(model: WireModel, n: int | None = None) -> SegmentMesh:
    """Uniform odd-count mesh (default_segments if n is None), center feed."""
    if not np.isfinite(model.total_length / model.radius):
        raise MeshError("L/a overflows (L=%g mm, a=%g mm)"
                        % (model.total_length, model.radius))
    if n is None:
        n = default_segments(model.total_length, model.radius)
    if n % 2 == 0:
        raise MeshError("segment count must be odd, got %d" % n)
    if n < MIN_SEGMENTS:
        raise MeshError("segment count must be >= %d, got %d" % (MIN_SEGMENTS, n))
    if n > MAX_SEGMENTS:
        raise MeshError("segment count must be <= %d, got %d" % (MAX_SEGMENTS, n))
    L, a = model.total_length, model.radius
    delta = L / n
    if delta < a:
        raise MeshError("delta = %.4g mm < radius %.4g mm; use n <= %d"
                        % (delta, a, max_segments(L, a)))
    h = L / (n + 1)
    nodes = (np.arange(n) - (n - 1) / 2.0) * h
    d = np.arange(-1.0, n + 1.0) * h    # knot c to column entry j: (j - c)h
    lo = np.array((-1.0, 0.0))[:, None]
    t1 = np.arcsinh((d + lo * h) / a)
    t2 = np.arcsinh((d + (lo + 1.0) * h) / a)
    tm = (t2 + t1) / 2.0
    td = (t2 - t1) / 2.0
    t = tm[..., None] + _XQ * td[..., None]
    dz = np.abs(a * np.sinh(t) - d[:, None])
    return SegmentMesh(model=model, n=n, nodes=nodes, feed_index=(n - 1) // 2,
                       quad_dz=dz, quad_r=a * np.cosh(t),
                       quad_w=td[..., None] * _WQ)


def wavenumber(f: float, eps_e: float) -> float:
    """k in 1/mm inside the effective medium."""
    if f <= 0:
        raise ValueError("frequency must be > 0")
    return 2.0 * np.pi * f * np.sqrt(eps_e) / C_MM_PER_S


def assemble_system(mesh: SegmentMesh, f: float) -> np.ndarray:
    """First column col of the complex Galerkin matrix of mesh.model at f:
    the matrix is symmetric Toeplitz, A[i, j] = col[|i - j|]."""
    model = mesh.model
    k = wavenumber(f, model.eps_e)
    if not math.isfinite(k):
        raise SolverError("wavenumber is not finite at %g Hz" % f)
    # the largest R is quad_r[1, -1, -1]; Python floats overflow to inf, unwarned
    if math.isinf(float(k) * float(mesh.quad_r[1, -1, -1])):
        raise SolverError("k*R overflows at %g Hz" % f)
    eta = ETA0 / np.sqrt(model.eps_e)
    h = model.total_length / (mesh.n + 1)
    sk = np.sin(k * h)
    # col's scale in Python floats (inf unwarned); a zero divisor would raise
    if sk * sk == 0.0 or not math.isfinite(
            float(eta) / (4.0 * math.pi * float(sk) * float(sk))):
        raise SolverError("sin(kh) underflows at %g Hz" % f)
    # field of one basis = three spherical-wave centers at its knots
    s = np.sum(mesh.quad_w * np.sin(k * (h - mesh.quad_dz))
               * np.exp(-1j * k * mesh.quad_r), axis=(0, 2))
    col = s[2:] - 2.0 * np.cos(k * h) * s[1:-1] + s[:-2]
    col *= 1j * eta / (4.0 * np.pi * sk * sk)
    return col


@dataclass(frozen=True)
class CurrentDistribution:
    """Complex node currents from a 1 V delta-gap solve."""

    currents: np.ndarray
    feed_index: int

    @property
    def feed_current(self) -> complex:
        return complex(self.currents[self.feed_index])


def _fold(col: np.ndarray) -> np.ndarray:
    """Even and odd blocks of A[i, j] = col[|i - j|] about its center p.

    They are the diagonal blocks of Q^T A Q, with Q the orthogonal symmetry
    transform (u_i +- u_{n-1-i})/sqrt(2), so sigma(A) is the union of their
    singular values. One complex (2, p+1, p+1) buffer holds both: [0] is
    the even block, [1] the p x p odd block padded with a zero row and
    column. For i, j < p they are the Toeplitz part col[|i - j|] +- the
    Hankel part col[n-1-i-j], two strided views of one ramp. It is complex
    even for a real column, because _certified turns it in place.
    """
    n = col.size
    p = (n - 1) // 2
    ramp = np.concatenate((col[p - 1:0:-1], col))   # ramp[p-1+k] = col[|k|]
    s = ramp.itemsize
    toeplitz = np.ndarray((p, p), ramp.dtype, ramp, (p - 1) * s, (-s, s))
    hankel = np.ndarray((p, p), ramp.dtype, ramp, (n + p - 2) * s, (-s, -s))
    blocks = np.zeros((2, p + 1, p + 1), dtype=complex)
    np.add(toeplitz, hankel, out=blocks[0, :p, :p])
    np.subtract(toeplitz, hankel, out=blocks[1, :p, :p])
    np.multiply(col[p::-1], _SQRT2, out=blocks[0, :, p])
    np.multiply(col[p:0:-1], _SQRT2, out=blocks[0, p, :p])
    blocks[0, p, p] = col[0]
    return blocks


def _condition(blocks: np.ndarray) -> float:
    """2-norm condition number of the matrix that _fold split into blocks."""
    if not np.isfinite(blocks).all():   # else LAPACK prints to fd 2
        return np.inf
    try:
        s = np.linalg.svd(blocks, compute_uv=False)
    except np.linalg.LinAlgError:      # the SVD did not converge
        return np.inf
    s_min = min(s[0, -1], s[1, -2])    # s[1, -1] is the padding's zero
    return max(s[0, 0], s[1, 0]) / s_min if s_min > 0 else np.inf


def _certified(blocks: np.ndarray) -> bool:
    """Prove that the matrix _fold split into blocks has cond <= _COND_LIMIT.

    Let rho be _ROTATION, r = |rho|, L = _COND_LIMIT, and for each m x m
    block E let M = Re(rho E). If E^T = E, which is checked exactly and
    which _fold gives for a symmetric matrix, M is the Hermitian part of
    rho E, so for unit x (the field of values; Horn & Johnson, Topics in
    Matrix Analysis, ch. 1) r ||Ex|| >= |x^H rho E x| >= x^H M x, and
    sigma_min(E) >= lambda_min(M)/r. With s^2 the squared Frobenius norm of
    both blocks, s >= sigma_max, so lambda_min(M) > r s/L for each block
    proves cond <= L. Let tau = s (1/L + 2(m+1)^1.5 u). A Cholesky
    factorization of the computed H = M - tau*I that runs to completion
    proves it for the exact M and s. With gamma_k = ku/(1 - ku), u' = u(1 +
    O(mu)) and each bound for H_ii > 0, as a completed Cholesky needs:

    - rho E: each real part errs by <= gamma_2 (|Re rho||Re E_ij| +
      |Im rho||Im E_ij|) <= gamma_2 r |E_ij|, so M by <= 2u' r s in norm.
    - the shift: fl(M_ii - tau) errs by <= u M_ii <= u' r s.
    - the Cholesky (Higham 2002, Thm 10.3; Rump, BIT 46, 2006): H + dH =
      R^T R with |dH_ij| <= gamma_{m+1}/(1 - gamma_{m+1}) sqrt(h_ii h_jj),
      so lambda_min(H) >= -||dH||_2 >= -(m+1) u' tr(H), where tr(H) <=
      (1 + 3u') r sum |E_ii| <= (1 + 3u') r sqrt(m) s.
    - s: the 4m^2 terms of s^2 are nonnegative, so the computed s^2 is at
      least (1 - gamma_{4m^2}) times the exact one, and the computed tau at
      least (1 - (2m^2 + 4)u') times the exact one.

    So lambda_min(M) >= tau - ((m+1) sqrt(m) + 3) u' r s, and the margin
    2(m+1)^1.5 u s in tau exceeds what the errors take, with r <= 1 + 2u,
    by at least (m+1)^1.5 u s - 3u' s - (2m^2 + 6) u' s/L > 0 (m >= 2 and
    m^2 << L). Only the lower triangle is read, which the symmetry check
    makes the whole matrix. The odd block's zero padding is its last row
    and column, so the bound holds for its leading p x p part, and the pad
    is set to s, which passes. An s^2 outside _SQUARED_NORM_RANGE, nan
    included, is not certified; inside it underflow's absolute errors are
    far below the margin and nothing overflows. False means unproven, not
    refused.

    `blocks` must be _fold's buffer, and the test writes rho E, the pad and
    the shift into it, to stay in the module docstring's memory budget;
    certify a copy to keep the blocks.
    """
    m = blocks.shape[-1]
    if not np.array_equal(blocks, blocks.transpose(0, 2, 1)):
        return False
    s2 = np.vdot(blocks, blocks).real
    if not _SQUARED_NORM_RANGE[0] < s2 < _SQUARED_NORM_RANGE[1]:
        return False
    s = np.sqrt(s2)
    blocks *= _ROTATION
    blocks[1, -1, -1] = s
    blocks.reshape(2, m * m)[:, ::m + 1] -= s * (
        _COND_LIMIT ** -1 + 2 * (m + 1) ** 1.5 * _UNIT_ROUNDOFF)
    try:
        np.linalg.cholesky(blocks.real)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_current(col: np.ndarray, mesh: SegmentMesh) -> CurrentDistribution:
    """1 V delta-gap excitation at the center node, solved in the even mode.

    `col` must be assemble_system's column for `mesh` (another shape raises
    MeshError), the system A[i, j] = col[|i - j|]. The center feed excites
    only its even mode, so the solve runs on the (p+1) x (p+1) even block E
    (p = feed_index) and the current is mirrored back, exactly symmetric.
    The condition guard covers both blocks, whose singular values together
    are sigma(A): _certified proves cond(A) <= _COND_LIMIT by a real
    Cholesky test of each block's real part after a phase turn, and only if
    that fails does _condition compute np.linalg.cond(A) by SVD, so the
    verdict is that of the SVD alone. E is solved and its residual ||E y -
    e_p|| = ||A x - e_p|| (the fold is orthogonal) taken before the guard,
    which turns the blocks in place (the module docstring's memory budget),
    so the SVD gets a fresh fold of `col`, which is never written. An
    exactly singular E behind a passing guard raises SolverError.
    """
    n, p = mesh.n, mesh.feed_index
    if col.shape != (n,):
        raise MeshError("system shape %s does not match the mesh's n = %d"
                        % (col.shape, n))
    b = np.zeros(p + 1, dtype=complex)
    b[p] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # guard refuses inf
        blocks = _fold(col)
        try:
            y = np.linalg.solve(blocks[0], b)
        except np.linalg.LinAlgError:   # exactly singular, or nan
            y = None
        else:
            residual = np.linalg.norm(blocks[0] @ y - b)
        if not _certified(blocks):
            cond = _condition(_fold(col))
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise SolverError("system condition estimate %.3g exceeds %.1g"
                                  % (cond, _COND_LIMIT))
    if y is None:
        raise SolverError("even-mode block is singular")
    if residual > _RESIDUAL_LIMIT:
        raise SolverError("solve residual %.3g exceeds %.1g" % (residual, _RESIDUAL_LIMIT))
    currents = np.empty(n, dtype=y.dtype)
    np.divide(y[:p], _SQRT2, out=currents[:p])
    currents[p] = y[p]
    currents[p + 1:] = currents[:p][::-1]
    return CurrentDistribution(currents=currents, feed_index=p)


def input_impedance(current: CurrentDistribution) -> complex:
    """Z_in = 1 V / I at the feed node."""
    i_feed = current.feed_current
    scale = np.max(np.abs(current.currents))
    if scale > 0 and abs(i_feed) < 1e-9 * scale:
        warnings.warn("feed current nearly zero: numerical antiresonance",
                      RuntimeWarning, stacklevel=2)
    return 1.0 / i_feed


def solve_at(mesh: SegmentMesh, f: float) -> CurrentDistribution:
    """1 V delta-gap currents on mesh at f, solved from its assembled column."""
    return solve_current(assemble_system(mesh, f), mesh)


def impedance_at(model: WireModel, f: float, n: int | None = None) -> complex:
    """Z_in of model at f on build_mesh(model, n), via the one path solve_at."""
    return input_impedance(solve_at(build_mesh(model, n), f))


def geometry_model(geometry: DipoleGeometry, substrate: Substrate) -> WireModel:
    """Strip dipole on a substrate reduced to an embedded wire model."""
    eps_e = eps_eff_microstrip(substrate.eps_r, geometry.W, substrate.h)
    return WireModel(total_length=geometry.L, radius=strip_to_wire(geometry.W),
                     eps_e=eps_e)


def frequency_grid(f_start: float, f_stop: float, f_step: float) -> np.ndarray:
    if f_start > f_stop:
        raise ValueError("f_start must be <= f_stop")
    if f_step <= 0:
        raise ValueError("f_step must be > 0")
    if f_start == f_stop:
        return np.array([f_start])
    steps = (f_stop - f_start) / f_step
    if not steps < MAX_GRID_POINTS:
        raise ValueError("band has %.3g steps, limit %d" % (steps, MAX_GRID_POINTS))
    count = int(round(steps))
    grid = f_start + f_step * np.arange(count + 1)
    return grid[grid <= f_stop * (1 + 1e-12)]


def _sweep_on_mesh(geometry: DipoleGeometry, substrate: Substrate,
                   f_start: float, f_stop: float, f_step: float,
                   n: int | None, z0: float) -> tuple[SweepResult, SegmentMesh]:
    """sweep, also returning the mesh it solved on."""
    check_design_rules(geometry, substrate,
                       0.5 * (f_start + f_stop)).raise_violations()
    mesh = build_mesh(geometry_model(geometry, substrate), n)
    freqs = frequency_grid(f_start, f_stop, f_step)
    z_in = np.empty(freqs.size, dtype=complex)
    for i, f in enumerate(freqs):
        try:
            z_in[i] = input_impedance(solve_at(mesh, float(f)))
        except SolverError as exc:
            raise SolverError("at %g Hz: %s" % (f, exc)) from exc
    return SweepResult(freqs, z_in, z0), mesh


def sweep(geometry: DipoleGeometry, substrate: Substrate,
          f_start: float, f_stop: float, f_step: float,
          n: int | None = None, z0: float = DEFAULT_Z0) -> SweepResult:
    """Impedance and match metrics over a frequency band."""
    return _sweep_on_mesh(geometry, substrate, f_start, f_stop, f_step, n,
                          z0)[0]
