"""Quasi-static microstrip line synthesis for the 50 ohm feed circuit."""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt

from .design import Substrate, check_positive, eps_eff_microstrip, \
    guided_wavelength
from .errors import BracketError
from .metrics import DEFAULT_Z0

#: search band for width synthesis, in units of w/h
WH_MIN = 0.1
WH_MAX = 20.0
MAX_BISECTIONS = 60
Z0_TOL_OHM = 0.05


@dataclass(frozen=True)
class FeedLineSpec:
    """Microstrip feed line dimensions for a target impedance."""

    w: float                    # trace width, mm
    h: float                    # substrate height, mm
    z0: float                   # characteristic impedance, ohm
    stub_length: float          # quarter-wave open stub, mm

    def __post_init__(self):
        check_positive("w", self.w)
        check_positive("h", self.h)
        check_positive("z0", self.z0)
        check_positive("stub_length", self.stub_length)


def z0_microstrip(w: float, h: float, eps_r: float) -> float:
    """Characteristic impedance of a microstrip trace (wide/narrow branches)."""
    ee = eps_eff_microstrip(eps_r, w, h)
    u = w / h
    if u <= 1.0:
        return 60.0 / sqrt(ee) * log(8.0 / u + u / 4.0)
    return 120.0 * pi / (sqrt(ee) * (u + 1.393 + 0.667 * log(u + 1.444)))


def synth_width_for_z0(z0_target: float, substrate: Substrate) -> float:
    """Trace width in mm realizing z0_target on the substrate.

    Bisects over w/h in [0.1, 20]; z0 is strictly decreasing in w/h so the
    bracket test is just the impedance at the two edges.
    """
    check_positive("target impedance", z0_target)
    h, eps_r = substrate.h, substrate.eps_r
    z_hi = z0_microstrip(WH_MIN * h, h, eps_r)   # narrowest -> highest z0
    z_lo = z0_microstrip(WH_MAX * h, h, eps_r)
    if not z_lo <= z0_target <= z_hi:
        raise BracketError(
            "z0=%.3g ohm is outside the achievable range [%.3g, %.3g] ohm "
            "for w/h in [%.3g, %.3g]" % (z0_target, z_lo, z_hi, WH_MIN, WH_MAX))
    lo, hi = WH_MIN, WH_MAX
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        w = mid * h
        z = z0_microstrip(w, h, eps_r)
        if abs(z - z0_target) <= Z0_TOL_OHM:
            break
        if z > z0_target:
            lo = mid
        else:
            hi = mid
    return w


def quarter_wave_stub_length(f: float, eps_e: float) -> float:
    """Open-stub length in mm presenting a virtual short at its input."""
    return guided_wavelength(f, eps_e) / 4.0


def feed_spec_for(substrate: Substrate, f: float,
                  z0: float = DEFAULT_Z0) -> FeedLineSpec:
    """Synthesize the feed line width plus its quarter-wave stub length."""
    w = synth_width_for_z0(z0, substrate)
    eps_line = eps_eff_microstrip(substrate.eps_r, w, substrate.h)
    return FeedLineSpec(w=w, h=substrate.h, z0=z0,
                        stub_length=quarter_wave_stub_length(f, eps_line))
