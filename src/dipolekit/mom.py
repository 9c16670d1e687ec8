"""Thin-wire method-of-moments solver for a center-fed strip dipole.

The strip is reduced to an equivalent round wire (a = W/4) embedded in a
homogeneous effective medium. Currents are expanded in overlapping
piecewise-sinusoidal basis functions on a uniform node grid with the tips
pinned to zero; Galerkin testing against the same functions yields a
symmetric Toeplitz system. The radiated-field kernel e^{-jkR}/(4*pi*R) is
integrated with an arcsinh substitution around each of the three kernel
centers of a basis function, which keeps the quadrature accurate even when
the node spacing approaches the wire radius. The quadrature geometry does
not depend on frequency, so the mesh carries it and each per-frequency
assembly only evaluates the k-dependent factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .design import C_MM_PER_S, DipoleGeometry, Substrate, check_design_rules, \
    eps_eff_microstrip
from .errors import DesignRuleError, MeshError, SolverError
from .metrics import DEFAULT_Z0, SweepResult

#: free-space wave impedance, ohm
ETA0 = 376.730313668

#: largest automatic segment count (thin-wire regime), see default_segments
DEFAULT_N_SEGMENTS = 41

MIN_SEGMENTS = 11

#: most frequencies one sweep may hold
MAX_GRID_POINTS = 1_000_000

#: Gauss-Legendre points per kernel integral
_N_QUAD = 16
_XQ, _WQ = np.polynomial.legendre.leggauss(_N_QUAD)

#: relative condition limit before the solve is refused
_COND_LIMIT = 1e12

_RESIDUAL_LIMIT = 1e-8


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
    """Uniform segmentation of the wire axis.

    segment_centers follow the n equal segments of length delta = L/n; the
    current expansion lives on the interior node grid `nodes` (spacing
    L/(n+1)), whose end half-bases terminate exactly at the wire tips.

    The kernel quadrature is laid out once per mesh. Axis 0 of the quad_*
    arrays runs over the six (knot, test half) blocks: knots -1, 0, +1 of
    the source basis, each against the lower then upper half of the test
    basis. Axis 1 is the node separation of the Toeplitz column, axis 2 the
    Gauss-Legendre arcsinh nodes. quad_dz holds |z - z'|, quad_r the reduced
    distance R, and quad_w the node weights td*wq.
    """

    n: int
    delta: float
    segment_centers: np.ndarray
    nodes: np.ndarray
    feed_index: int
    total_length: float
    radius: float
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


def default_segments(total_length: float, radius: float,
                     n_max: int = DEFAULT_N_SEGMENTS) -> int:
    """Segment count for good kernel accuracy: node spacing >= 2*radius.

    Falls back to MIN_SEGMENTS for very fat wires; capped at n_max.
    """
    n = int(min(total_length / (2.0 * radius), n_max + 1)) - 1
    if n % 2 == 0:
        n -= 1
    return max(n, MIN_SEGMENTS)


def build_mesh(model: WireModel, n: int | None = None) -> SegmentMesh:
    """Uniform odd-count mesh (default_segments if n is None), center feed."""
    if n is None:
        n = default_segments(model.total_length, model.radius)
    if n % 2 == 0:
        raise MeshError("segment count must be odd, got %d" % n)
    if n < MIN_SEGMENTS:
        raise MeshError("segment count must be >= %d, got %d" % (MIN_SEGMENTS, n))
    L, a = model.total_length, model.radius
    delta = L / n
    if delta < a:
        raise MeshError("delta = %.4g mm < radius %.4g mm; use n <= %d"
                        % (delta, a, max_segments(L, a)))
    centers = (np.arange(n) - (n - 1) / 2.0) * delta
    h = L / (n + 1)
    nodes = (np.arange(n) - (n - 1) / 2.0) * h
    offsets = np.arange(n) * h          # node separation per column entry
    knot = np.repeat((-1.0, 0.0, 1.0), 2)[:, None]
    lo = np.tile((-1.0, 0.0), 3)[:, None]
    hi = lo + 1.0
    t1 = np.arcsinh((offsets + (lo - knot) * h) / a)
    t2 = np.arcsinh((offsets + (hi - knot) * h) / a)
    tm = (t2 + t1) / 2.0
    td = (t2 - t1) / 2.0
    t = tm[..., None] + _XQ * td[..., None]
    dz = np.abs(a * np.sinh(t) + knot[..., None] * h - offsets[:, None])
    return SegmentMesh(n=n, delta=delta, segment_centers=centers, nodes=nodes,
                       feed_index=(n - 1) // 2, total_length=L, radius=a,
                       quad_dz=dz, quad_r=a * np.cosh(t),
                       quad_w=td[..., None] * _WQ)


def wavenumber(f: float, eps_e: float) -> float:
    """k in 1/mm inside the effective medium."""
    if f <= 0:
        raise ValueError("frequency must be > 0")
    return 2.0 * np.pi * f * np.sqrt(eps_e) / C_MM_PER_S


def assemble_system(mesh: SegmentMesh, f: float, model: WireModel) -> np.ndarray:
    """Dense complex Galerkin matrix; symmetric and Toeplitz by construction."""
    if mesh.total_length != model.total_length or mesh.radius != model.radius:
        raise MeshError("mesh built for L=%g mm, a=%g mm used with a model of "
                        "L=%g mm, a=%g mm" % (mesh.total_length, mesh.radius,
                                              model.total_length, model.radius))
    k = wavenumber(f, model.eps_e)
    eta = ETA0 / np.sqrt(model.eps_e)
    n = mesh.n
    h = model.total_length / (n + 1)
    sk = np.sin(k * h)
    if sk * sk == 0.0:
        raise SolverError("sin(kh) underflows at %g Hz" % f)
    # field of one basis = three spherical-wave centers at its knots
    blocks = np.sum(mesh.quad_w * np.sin(k * (h - mesh.quad_dz))
                    * np.exp(-1j * k * mesh.quad_r), axis=2)
    col = np.array((1.0, -2.0 * np.cos(k * h), 1.0)) \
        @ blocks.reshape(3, 2, n).sum(axis=1)
    col *= 1j * eta / (4.0 * np.pi * sk * sk)
    i = np.arange(n)
    return col[np.abs(i[:, None] - i)]


@dataclass(frozen=True)
class CurrentDistribution:
    """Complex node currents from a delta-gap solve."""

    currents: np.ndarray
    feed_voltage: float
    feed_index: int

    @property
    def feed_current(self) -> complex:
        return complex(self.currents[self.feed_index])


def solve_current(system: np.ndarray, mesh: SegmentMesh,
                  voltage: float = 1.0) -> CurrentDistribution:
    """Delta-gap excitation at the center node, dense direct solve."""
    try:
        cond = np.linalg.cond(system)
    except np.linalg.LinAlgError:      # the SVD of a non-finite matrix
        cond = np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SolverError("system condition estimate %.3g exceeds %.1g"
                          % (cond, _COND_LIMIT))
    b = np.zeros(mesh.n, dtype=complex)
    b[mesh.feed_index] = voltage
    currents = np.linalg.solve(system, b)
    residual = np.linalg.norm(system @ currents - b) / np.linalg.norm(b)
    if residual > _RESIDUAL_LIMIT:
        raise SolverError("solve residual %.3g exceeds %.1g" % (residual, _RESIDUAL_LIMIT))
    return CurrentDistribution(currents=currents, feed_voltage=voltage,
                               feed_index=mesh.feed_index)


def input_impedance(current: CurrentDistribution) -> complex:
    """Z_in = V / I at the feed node."""
    i_feed = current.feed_current
    scale = np.max(np.abs(current.currents))
    if scale > 0 and abs(i_feed) < 1e-9 * scale:
        warnings.warn("feed current nearly zero: numerical antiresonance",
                      RuntimeWarning, stacklevel=2)
    return current.feed_voltage / i_feed


def impedance_at(model: WireModel, f: float, n: int | None = None) -> complex:
    """Convenience: mesh, assemble and solve for a single frequency."""
    mesh = build_mesh(model, n)
    current = solve_current(assemble_system(mesh, f, model), mesh)
    return input_impedance(current)


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


def sweep(geometry: DipoleGeometry, substrate: Substrate,
          f_start: float, f_stop: float, f_step: float,
          n: int | None = None, z0: float = DEFAULT_Z0) -> SweepResult:
    """Impedance and match metrics over a frequency band."""
    rules = check_design_rules(geometry, substrate, 0.5 * (f_start + f_stop))
    if not rules.ok:
        names = ", ".join(e.rule for e in rules.violations)
        raise DesignRuleError("geometry violates restriction(s): %s" % names)
    model = geometry_model(geometry, substrate)
    mesh = build_mesh(model, n)
    freqs = frequency_grid(f_start, f_stop, f_step)
    z_in = np.empty(freqs.size, dtype=complex)
    for i, f in enumerate(freqs):
        try:
            current = solve_current(assemble_system(mesh, float(f), model), mesh)
            z_in[i] = input_impedance(current)
        except SolverError as exc:
            raise SolverError("at %g Hz: %s" % (f, exc)) from exc
    return SweepResult(freqs, z_in, z0)
