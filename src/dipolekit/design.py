"""Sizing equations and design-rule checks for printed strip dipoles.

All lengths are kept in millimetres and frequencies in hertz; nothing is
rounded before display.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from math import inf, isfinite, sqrt

from .errors import ConfigError, DesignRuleError

#: exact speed of light, in mm/s
C_MM_PER_S = 2.99792458e11

FEED_STYLES = ("ideal_center", "open_stub", "via_hole")

#: default copper cladding thickness, mm (standard 1 oz foil)
DEFAULT_T_MM = 0.035

ENV_CATALOG = "DIPOLEKIT_SUBSTRATES"


@dataclass(frozen=True)
class Substrate:
    """Single-layer dielectric description."""

    name: str
    eps_r: float
    h: float          # substrate height, mm
    tan_delta: float = 0.0

    def __post_init__(self):
        if not isfinite(self.eps_r) or not isfinite(self.h):
            raise ValueError("eps_r and h must be finite")
        if self.eps_r < 1.0:
            raise ValueError("eps_r must be >= 1, got %g" % self.eps_r)
        if self.h <= 0.0:
            raise ValueError("substrate height must be > 0, got %g" % self.h)
        if not 0.0 <= self.tan_delta < 1.0:
            raise ValueError("tan_delta must be in [0, 1), got %g" % self.tan_delta)


@dataclass(frozen=True)
class DipoleGeometry:
    """Flat strip dipole dimensions. L is the tip-to-tip length."""

    L: float                      # total length, mm
    W: float                      # strip width, mm
    g: float = 0.0                # center gap, mm
    T: float = DEFAULT_T_MM       # conductor thickness, mm
    feed_style: str = "ideal_center"

    def __post_init__(self):
        if self.L <= 0 or self.W <= 0:
            raise ValueError("L and W must be > 0")
        if self.g < 0 or self.T < 0:
            raise ValueError("g and T must be >= 0")
        if self.g >= self.L:
            raise ValueError("gap g must be smaller than L")
        if self.feed_style not in FEED_STYLES:
            raise ValueError("feed_style must be one of %s" % (FEED_STYLES,))


@dataclass(frozen=True)
class RuleEntry:
    rule: str
    kind: str          # "recommendation" | "restriction"
    measured: float
    low: float | None
    high: float | None
    status: str        # "pass" | "warn" | "violate"


@dataclass(frozen=True)
class RuleCheckResult:
    entries: tuple[RuleEntry, ...]

    @property
    def violations(self) -> tuple[RuleEntry, ...]:
        return tuple(e for e in self.entries if e.status == "violate")

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_violations(self) -> None:
        """DesignRuleError naming each violated restriction, in table order."""
        names = ", ".join(e.rule for e in self.violations)
        if names:
            raise DesignRuleError("geometry violates restriction(s): %s" % names)


@dataclass(frozen=True)
class SynthesisResult:
    """Candidate geometry plus the intermediate sizing quantities."""

    geometry: DipoleGeometry
    eps_e: float            # averaged effective permittivity used for lambda_d
    lambda_d: float         # design wavelength, mm
    recommended_h: float    # 0.02 * lambda_d, mm


def free_space_wavelength(f: float) -> float:
    """Free-space wavelength in mm for frequency f in Hz."""
    if not 0 < f < inf:
        raise ValueError("frequency must be finite and > 0, got %g" % f)
    return C_MM_PER_S / f


def eps_eff_average(eps_r: float) -> float:
    """Effective permittivity as the plain average of substrate and air."""
    if eps_r < 1.0:
        raise ValueError("eps_r must be >= 1, got %g" % eps_r)
    return (eps_r + 1.0) / 2.0


def eps_eff_microstrip(eps_r: float, w: float, h: float) -> float:
    """Quasi-static effective permittivity with fringing-field correction."""
    if eps_r < 1.0:
        raise ValueError("eps_r must be >= 1, got %g" % eps_r)
    if w <= 0 or h <= 0:
        raise ValueError("w and h must be > 0")
    return (eps_r + 1.0) / 2.0 + (eps_r - 1.0) / 2.0 / sqrt(1.0 + 12.0 * h / w)


def guided_wavelength(f: float, eps_e: float) -> float:
    """Wavelength in mm inside an effective medium."""
    if eps_e < 1.0:
        raise ValueError("eps_e must be >= 1, got %g" % eps_e)
    return free_space_wavelength(f) / sqrt(eps_e)


def half_wave_length(lambda_d: float) -> float:
    if lambda_d <= 0:
        raise ValueError("wavelength must be > 0")
    return lambda_d / 2.0


def stub_fed_length(lam: float) -> float:
    """Resonant length rule for the quarter-wave open-stub feed."""
    if lam <= 0:
        raise ValueError("wavelength must be > 0")
    return 3.0 * lam / 4.0


def via_fed_length(lam: float) -> float:
    """Resonant length rule for the via-hole feed."""
    if lam <= 0:
        raise ValueError("wavelength must be > 0")
    return 2.0 * lam / 3.0


#: width as a fraction of the design wavelength, inside the [0.05, 0.1] band
WIDTH_FRACTION = 0.06


def synthesize_geometry(substrate: Substrate, f: float,
                        feed_style: str = "ideal_center",
                        T: float = DEFAULT_T_MM) -> SynthesisResult:
    """Size a strip dipole for the target frequency on the given substrate.

    The design wavelength comes from the averaged effective permittivity;
    the stub and via feed styles re-evaluate the wavelength with the
    fringing-field permittivity at the synthesized strip width.
    """
    eps_e = eps_eff_average(substrate.eps_r)
    lambda_d = guided_wavelength(f, eps_e)
    W = WIDTH_FRACTION * lambda_d
    if feed_style == "ideal_center":
        L = half_wave_length(lambda_d)
    else:
        eps_f = eps_eff_microstrip(substrate.eps_r, W, substrate.h)
        lam_f = guided_wavelength(f, eps_f)
        L = stub_fed_length(lam_f) if feed_style == "open_stub" else via_fed_length(lam_f)
    geometry = DipoleGeometry(L=L, W=W, T=T, feed_style=feed_style)
    check_design_rules(geometry, substrate, f).raise_violations()
    return SynthesisResult(geometry=geometry, eps_e=eps_e, lambda_d=lambda_d,
                           recommended_h=0.02 * lambda_d)


def _entry(rule, kind, measured, low, high):
    ok = (low is None or measured >= low) and (high is None or measured <= high)
    status = "pass" if ok else ("violate" if kind == "restriction" else "warn")
    return RuleEntry(rule, kind, measured, low, high, status)


def check_design_rules(geometry: DipoleGeometry, substrate: Substrate,
                       f: float) -> RuleCheckResult:
    """Evaluate the eight width/length/height/thickness clauses.

    The reference wavelength is the guided wavelength from the averaged
    effective permittivity. Failed recommendations warn; failed
    restrictions are hard violations.
    """
    lam = guided_wavelength(f, eps_eff_average(substrate.eps_r))
    L, W, T, h = geometry.L, geometry.W, geometry.T, substrate.h
    entries = (
        _entry("width_band", "recommendation", W / lam, 0.05, 0.1),
        _entry("min_length", "recommendation", L / lam, 0.48, None),
        _entry("max_height", "recommendation", h / lam, None, 0.02),
        _entry("thin_conductor", "recommendation", T / lam, None, 0.001),
        _entry("w_over_h", "restriction", W / h, 0.05, 20.0),
        _entry("t_over_w", "restriction", T / W, None, 0.5),
        _entry("t_over_h", "restriction", T / h, None, 0.5),
        _entry("eps_min", "restriction", substrate.eps_r, 1.0, None),
    )
    return RuleCheckResult(entries=entries)


def parse_catalog(text: str, source: str = "<catalog>") -> dict[str, Substrate]:
    """Parse a flat substrate catalog: one `name,eps_r,h_mm,tan_delta` per line."""
    out: dict[str, Substrate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ConfigError("%s:%d: expected name,eps_r,h_mm,tan_delta" % (source, lineno))
        name = parts[0]
        try:
            eps_r, h, tand = (float(p) for p in parts[1:])
        except ValueError:
            raise ConfigError("%s:%d: non-numeric substrate field" % (source, lineno))
        try:
            out[name] = Substrate(name=name, eps_r=eps_r, h=h, tan_delta=tand)
        except ValueError as exc:
            raise ConfigError("%s:%d: %s" % (source, lineno, exc))
    return out


def load_substrates(path: str | None = None) -> dict[str, Substrate]:
    """Load the substrate catalog.

    Resolution order: explicit path, the DIPOLEKIT_SUBSTRATES environment
    variable, then the bundled catalog.
    """
    path = path or os.environ.get(ENV_CATALOG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_catalog(fh.read(), source=path)
    text = resources.files("dipolekit.data").joinpath("substrates.txt").read_text()
    return parse_catalog(text, source="builtin")
