"""Reflection-based figures of merit: S11, VSWR, bandwidth, resonance.

level_crossings is the one band-edge rule, for -10 dB bandwidth and -3 dB
beamwidth (farfield.hpbw_from_cut) alike."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .design import check_positive
from .errors import NonPassiveError, NoResonanceError

if TYPE_CHECKING:   # mom imports this module
    from .mom import SegmentMesh

#: reference impedance for every sweep, ohm
DEFAULT_Z0 = 50.0

#: default match threshold for bandwidth extraction, dB (VSWR ~ 2)
DEFAULT_BW_THRESHOLD_DB = -10.0


def reflection_coefficient(z_in, z0: float = DEFAULT_Z0):
    """Gamma = (Z - Z0) / (Z + Z0) for a finite scalar or array Z and a real
    Z0 > 0."""
    check_z0(z0)
    finite = np.isfinite(z_in)
    if not finite.all():
        raise ValueError("Z_in must be finite, got %s"
                         % np.asarray(z_in)[~finite][0])
    r = np.real(z_in)
    if np.count_nonzero(r < 0):
        raise NonPassiveError("Re(Z_in) = %g < 0 is not passive" % np.min(r))
    return (z_in - z0) / (z_in + z0)


def _passive_magnitude(gamma):
    mag = np.abs(gamma)
    if not (mag >= 0.0).all():   # nan, which the passivity test passes
        raise ValueError("gamma must be a number, got %s"
                         % np.asarray(gamma)[np.isnan(mag)][0])
    if np.count_nonzero(mag > 1.0 + 1e-12):
        raise ValueError("|gamma| = %g > 1 is not passive" % np.max(mag))
    return np.minimum(mag, 1.0)


def return_loss_db(gamma):
    """20*log10|gamma|, always <= 0 (negative-dB convention: more negative is
    a better match); -inf for a perfect match."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(_passive_magnitude(gamma))


def vswr(gamma):
    """(1+|gamma|)/(1-|gamma|); infinite for total reflection."""
    mag = _passive_magnitude(gamma)
    with np.errstate(divide="ignore"):
        return (1.0 + mag) / (1.0 - mag)


def gamma_from_vswr(s: float) -> float:
    """|gamma| corresponding to a VSWR value; 1 for an infinite VSWR."""
    if not s >= 1.0:
        raise ValueError("VSWR must be >= 1, got %g" % s)
    return 1.0 if s == math.inf else (s - 1.0) / (s + 1.0)


def gamma_from_return_loss(rl_db: float) -> float:
    """|gamma| corresponding to a (negative) return loss in dB."""
    if not rl_db <= 0:
        raise ValueError("return loss follows the negative-dB convention")
    return 10.0 ** (rl_db / 20.0)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Impedance and match figures over a strictly ascending frequency grid.

    f (Hz) and z_in (ohm) hold one entry per frequency; gamma, s11_db and
    vswr are derived from them against the real reference impedance z0.
    mesh is the one mom.solve_band solved on, None for one built from arrays.
    """

    f: np.ndarray
    z_in: np.ndarray
    z0: float = DEFAULT_Z0
    mesh: SegmentMesh | None = field(default=None, repr=False)
    gamma: np.ndarray = field(init=False, repr=False)
    s11_db: np.ndarray = field(init=False, repr=False)
    vswr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        z = np.asarray(self.z_in, dtype=complex)
        if f.ndim != 1 or f.shape != z.shape:
            raise ValueError("f and z_in must be 1-D arrays of equal length")
        if not f.size:
            raise ValueError("empty sweep")
        if not np.isfinite(f).all():
            raise ValueError("f must be finite")
        if np.any(np.diff(f) <= 0):
            raise ValueError("sweep samples must be strictly ascending in f")
        gamma = reflection_coefficient(z, self.z0)
        derived = dict(f=f, z_in=z, gamma=gamma, s11_db=return_loss_db(gamma),
                       vswr=vswr(gamma))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class BandwidthResult:
    percent: float
    f_low: float
    f_high: float
    f_center: float
    edge_clipped: bool


def level_crossings(x, y, i0: int, level: float, inside):
    """Where y meets level on each side of the run around sample i0.

    The run is walked out from i0 while inside(y[j]) holds. Each edge is
    linearly interpolated between the run's last sample and the first
    sample outside it. Where the last sample is infinite (the -inf dB of a
    perfect match) the edge is the outside sample, the interpolation's
    limit. It is None on a side where the run reaches the end of the grid.
    Edges have the element type of x and y: Python lists give Python
    floats.
    """
    def edge(outward: range):
        i = i0
        for o in outward:
            if not inside(y[o]):
                if math.isinf(y[i]):
                    return x[o]
                return x[i] + (x[o] - x[i]) * (level - y[i]) / (y[o] - y[i])
            i = o
        return None

    return edge(range(i0 - 1, -1, -1)), edge(range(i0 + 1, len(y)))


#: refuses a reference impedance outside (0, inf), nan included
check_z0 = functools.partial(check_positive, "reference impedance")


def check_bw_threshold(threshold_db: float) -> None:
    """Refuse a threshold that is not negative dB (nan too), before solving."""
    if not threshold_db < 0:
        raise ValueError("threshold must be negative dB")


def fractional_bandwidth(sweep: SweepResult,
                         threshold_db: float = DEFAULT_BW_THRESHOLD_DB) -> BandwidthResult:
    """Contiguous band around the deepest S11 dip meeting the threshold.

    Band edges are linearly interpolated between samples; the center is the
    frequency of the deepest sample. Bands cut off by the sweep limits are
    flagged edge_clipped.
    """
    check_bw_threshold(threshold_db)
    f, s = sweep.f.tolist(), sweep.s11_db.tolist()
    i0 = s11_minimum(sweep)
    f_c = f[i0]
    if s[i0] > threshold_db:
        return BandwidthResult(0.0, f_c, f_c, f_c, False)
    lo, hi = level_crossings(f, s, i0, threshold_db,
                             lambda v: v <= threshold_db)
    f_lo = f[0] if lo is None else lo
    f_hi = f[-1] if hi is None else hi
    return BandwidthResult(100.0 * (f_hi - f_lo) / f_c, f_lo, f_hi, f_c,
                           lo is None or hi is None)


def resonant_frequency(sweep: SweepResult) -> float:
    """Lowest capacitive-to-inductive reactance zero crossing, interpolated."""
    x, f = sweep.z_in.imag, sweep.f
    up = np.flatnonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))
    if not up.size:
        raise NoResonanceError("no - to + reactance crossing inside the sweep band")
    i = up[0]
    return float(f[i] + (f[i + 1] - f[i]) * (-x[i]) / (x[i + 1] - x[i]))


def s11_minimum(sweep: SweepResult) -> int:
    """Index of the deepest-match sample of a sweep."""
    return int(np.argmin(sweep.s11_db))
