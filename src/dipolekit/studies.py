"""Parameter studies and length optimizers for the strip dipole.

Each study row evaluates one geometry over a frequency band and reports the
match figures at the deepest-S11 point, the -10 dB fractional bandwidth,
and the broadside directivity. A bad band, probe frequency, z0 or threshold
is refused before the first row; rows that fail (design rules, solver)
carry the error instead of aborting the table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .design import DipoleGeometry, Substrate, check_frequency
from .errors import BracketError, DipolekitError
from .farfield import h_plane_cut, pattern_from_current
from .metrics import DEFAULT_BW_THRESHOLD_DB, DEFAULT_Z0, check_bw_threshold, \
    check_z0, fractional_bandwidth, reflection_coefficient, return_loss_db, \
    s11_minimum
from .mom import build_mesh, default_segments, frequency_grid, geometry_model, \
    impedance_at, input_impedance, solve_at, solve_band

#: golden-section stopping span, mm
_GOLDEN_TOL_MM = 0.1

_BISECT_TOL_MM = 0.01
_MAX_BISECTIONS = 60
_REACTANCE_TOL_OHM = 1.0
_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class StudyRow:
    """Figures of merit for one swept geometry."""

    param_mm: float
    z_in: complex | None = None        # at the probe frequency
    vswr: float | None = None          # at the deepest-S11 sample
    rl_db: float | None = None         # at the deepest-S11 sample
    bw_pct: float | None = None
    directivity_dbi: float | None = None
    error: DipolekitError | ValueError | None = None   # what failed the row


def _study(params: Sequence[float],
           make_geometry: Callable[[float], DipoleGeometry],
           substrate: Substrate, f_start: float, f_stop: float, f_step: float,
           f_probe: float, z0: float, threshold_db: float) -> list[StudyRow]:
    freqs = frequency_grid(f_start, f_stop, f_step)
    check_frequency(f_probe)
    check_z0(z0)
    check_bw_threshold(threshold_db)
    rows = []
    for param in params:
        try:
            mesh = build_mesh(geometry_model(make_geometry(param), substrate))
            result = solve_band(mesh, freqs, z0)
            best = s11_minimum(result)
            bw = fractional_bandwidth(result, threshold_db)
            z_probe = input_impedance(solve_at(mesh, f_probe))
            cut = pattern_from_current(solve_at(mesh, float(result.f[best])), mesh)
            rows.append(StudyRow(param_mm=param, z_in=z_probe,
                                 vswr=result.vswr[best],
                                 rl_db=result.s11_db[best], bw_pct=bw.percent,
                                 directivity_dbi=cut.directivity_dbi))
        except (DipolekitError, ValueError) as exc:
            rows.append(StudyRow(param_mm=param, error=exc))
    return rows


def length_study(lengths_mm: Sequence[float], substrate: Substrate,
                 f_start: float, f_stop: float, f_step: float,
                 width_mm: float = 6.0, f_probe: float = 1.8e9,
                 z0: float = DEFAULT_Z0,
                 threshold_db: float = DEFAULT_BW_THRESHOLD_DB) -> list[StudyRow]:
    """Sweep the dipole length at fixed strip width."""
    return _study(lengths_mm,
                  lambda L: DipoleGeometry(L=L, W=width_mm),
                  substrate, f_start, f_stop, f_step, f_probe, z0,
                  threshold_db)


def width_study(widths_mm: Sequence[float], substrate: Substrate,
                f_start: float, f_stop: float, f_step: float,
                length_mm: float = 60.0, f_probe: float = 1.8e9,
                z0: float = DEFAULT_Z0,
                threshold_db: float = DEFAULT_BW_THRESHOLD_DB) -> list[StudyRow]:
    """Sweep the strip width at fixed dipole length."""
    return _study(widths_mm,
                  lambda W: DipoleGeometry(L=length_mm, W=W),
                  substrate, f_start, f_stop, f_step, f_probe, z0,
                  threshold_db)


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of a 1-D length search."""

    length_mm: float
    z_in: complex
    s11_db: float
    iterations: int
    converged: bool
    note: str = ""


def _impedance_of_length(substrate: Substrate, f: float, l_low: float,
                         l_high: float, width_mm: float) -> Callable:
    """Cached Z_in(L) at f; the segment count is fixed from l_low so Z is a
    continuous function of length. The design-rule restrictions, which read
    neither L nor f, are checked once, on the l_low geometry, and then f."""
    if not l_low < l_high:
        raise ValueError("need l_low < l_high")
    model = geometry_model(DipoleGeometry(L=l_low, W=width_mm), substrate)
    check_frequency(f)
    n = default_segments(l_low, model.radius)

    @functools.cache
    def z_of(L: float) -> complex:
        return impedance_at(replace(model, total_length=L), f, n)
    return z_of


def optimize_length(substrate: Substrate, f: float,
                    l_low: float, l_high: float,
                    width_mm: float = 6.0,
                    z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Bisect for the length whose input reactance crosses zero at f; z0 and
    then the design-rule restrictions are checked before the first solve."""
    check_z0(z0)
    z_of = _impedance_of_length(substrate, f, l_low, l_high, width_mm)
    z_lo, z_hi = z_of(l_low), z_of(l_high)
    if np.sign(z_lo.imag) == np.sign(z_hi.imag):
        raise BracketError(
            "reactance does not change sign on [%.15g, %.15g] mm: "
            "X(low)=%.3f ohm, X(high)=%.3f ohm"
            % (l_low, l_high, z_lo.imag, z_hi.imag))
    lo, hi = l_low, l_high
    sign_lo = np.sign(z_lo.imag)
    for iterations in range(1, _MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        z_mid = z_of(mid)
        if np.sign(z_mid.imag) == sign_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL_MM and abs(z_mid.imag) < _REACTANCE_TOL_OHM:
            break
    length = 0.5 * (lo + hi)
    z_fin = z_of(length)
    s11 = return_loss_db(reflection_coefficient(z_fin, z0))
    return OptimizeResult(length_mm=length, z_in=z_fin, s11_db=float(s11),
                          iterations=iterations,
                          converged=abs(z_fin.imag) < _REACTANCE_TOL_OHM)


def optimize_for_max_rl(substrate: Substrate, f: float,
                        l_low: float, l_high: float,
                        width_mm: float = 6.0,
                        z0: float = DEFAULT_Z0) -> OptimizeResult:
    """Golden-section search for the deepest S11 over a length interval.

    A 9-point presample checks unimodality; if the samples are not
    unimodal the best grid point is returned with a "non-unimodal" note.
    z0 and then the design-rule restrictions are checked before the first solve.
    """
    check_z0(z0)
    z_of = _impedance_of_length(substrate, f, l_low, l_high, width_mm)

    def s11_of(L: float) -> float:
        return return_loss_db(reflection_coefficient(z_of(L), z0))

    grid = np.linspace(l_low, l_high, 9)
    vals = np.array([s11_of(L) for L in grid])
    i_best = int(np.argmin(vals))
    diffs = np.sign(np.diff(vals))
    sign_changes = int(np.sum(np.abs(np.diff(diffs[diffs != 0])) > 0))
    note = ""
    if np.all(vals == vals[0]):
        note = "degenerate"
    elif sign_changes > 1:
        note = "non-unimodal"
    if note:
        L = float(grid[i_best]) if note == "non-unimodal" \
            else 0.5 * (l_low + l_high)
        z = z_of(L)
        return OptimizeResult(length_mm=L, z_in=z, s11_db=float(vals[i_best]),
                              iterations=len(grid), converged=False, note=note)

    lo, hi = float(grid[max(i_best - 1, 0)]), float(grid[min(i_best + 1, 8)])
    c = hi - _PHI * (hi - lo)
    d = lo + _PHI * (hi - lo)
    fc, fd = s11_of(c), s11_of(d)
    iterations = len(grid)
    while hi - lo > _GOLDEN_TOL_MM:
        iterations += 1
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _PHI * (hi - lo)
            fc = s11_of(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _PHI * (hi - lo)
            fd = s11_of(d)
    length = 0.5 * (lo + hi)
    return OptimizeResult(length_mm=length, z_in=z_of(length),
                          s11_db=float(s11_of(length)),
                          iterations=iterations, converged=True)


def study_pattern(geometry: DipoleGeometry, substrate: Substrate,
                  f: float) -> tuple:
    """Both principal-plane cuts for one geometry at f, after its design-rule
    restrictions and then f are checked."""
    model = geometry_model(geometry, substrate)
    check_frequency(f)
    mesh = build_mesh(model)
    e_cut = pattern_from_current(solve_at(mesh, f), mesh)
    return e_cut, h_plane_cut(e_cut.directivity_dbi)
