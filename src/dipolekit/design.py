"""Sizing equations and design-rule checks for printed strip dipoles.

All lengths are kept in millimetres and frequencies in hertz; nothing is
rounded before display.
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass
from importlib import resources
from math import inf, sqrt

from .errors import ConfigError, DesignRuleError

#: exact speed of light, in mm/s
C_MM_PER_S = 2.99792458e11

FEED_STYLES = ("ideal", "stub", "via")

#: default copper cladding thickness, mm (standard 1 oz foil)
DEFAULT_T_MM = 0.035


@dataclass(frozen=True)
class Substrate:
    """Single-layer dielectric description."""

    name: str
    eps_r: float
    h: float          # substrate height, mm

    def __post_init__(self):
        check_at_least("eps_r", self.eps_r, 1.0)
        check_positive("h", self.h)


@dataclass(frozen=True)
class DipoleGeometry:
    """Flat strip dipole dimensions. L is the tip-to-tip length."""

    L: float                      # total length, mm
    W: float                      # strip width, mm
    _: KW_ONLY
    T: float = DEFAULT_T_MM       # conductor thickness, mm

    def __post_init__(self):
        check_positive("L", self.L)
        check_positive("W", self.W)
        check_at_least("T", self.T, 0.0)


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
    rules: RuleCheckResult  # the rule table synthesis enforced at f


def check_positive(name: str, x: float) -> None:
    """Refuse x outside (0, inf), nan included, naming it `name`."""
    if not 0 < x < inf:
        raise ValueError("%s must be finite and > 0, got %g" % (name, x))


def check_at_least(name: str, x: float, low: float) -> None:
    """Refuse x outside [low, inf), nan included, naming it `name`."""
    if not low <= x < inf:
        raise ValueError("%s must be finite and >= %g, got %g" % (name, low, x))


#: refuses a frequency in Hz outside (0, inf), nan included
check_frequency = functools.partial(check_positive, "frequency")


def free_space_wavelength(f: float) -> float:
    """Free-space wavelength in mm for frequency f in Hz."""
    check_frequency(f)
    return C_MM_PER_S / f


def eps_eff_average(eps_r: float) -> float:
    """Effective permittivity as the plain average of substrate and air."""
    check_at_least("eps_r", eps_r, 1.0)
    return (eps_r + 1.0) / 2.0


def eps_eff_microstrip(eps_r: float, w: float, h: float) -> float:
    """Quasi-static effective permittivity with fringing-field correction."""
    check_at_least("eps_r", eps_r, 1.0)
    check_positive("w", w)
    check_positive("h", h)
    return (eps_r + 1.0) / 2.0 + (eps_r - 1.0) / 2.0 / sqrt(1.0 + 12.0 * h / w)


def guided_wavelength(f: float, eps_e: float) -> float:
    """Wavelength in mm inside an effective medium."""
    check_at_least("eps_e", eps_e, 1.0)
    return free_space_wavelength(f) / sqrt(eps_e)


def half_wave_length(lambda_d: float) -> float:
    check_positive("wavelength", lambda_d)
    return lambda_d / 2.0


def stub_fed_length(lam: float) -> float:
    """Resonant length rule for the quarter-wave open-stub feed."""
    check_positive("wavelength", lam)
    return 3.0 * lam / 4.0


def via_fed_length(lam: float) -> float:
    """Resonant length rule for the via-hole feed."""
    check_positive("wavelength", lam)
    return 2.0 * lam / 3.0


#: width as a fraction of the design wavelength, inside the [0.05, 0.1] band
WIDTH_FRACTION = 0.06


def synthesize_geometry(substrate: Substrate, f: float,
                        feed_style: str = "ideal") -> SynthesisResult:
    """Size a strip dipole for the target frequency on the given substrate.

    The design wavelength comes from the averaged effective permittivity;
    the stub and via feed styles re-evaluate the wavelength with the
    fringing-field permittivity at the synthesized strip width.
    """
    eps_e = eps_eff_average(substrate.eps_r)
    lambda_d = guided_wavelength(f, eps_e)
    if feed_style not in FEED_STYLES:
        raise ValueError("feed_style must be one of %s" % (FEED_STYLES,))
    W = WIDTH_FRACTION * lambda_d
    if feed_style == "ideal":
        L = half_wave_length(lambda_d)
    else:
        eps_f = eps_eff_microstrip(substrate.eps_r, W, substrate.h)
        lam_f = guided_wavelength(f, eps_f)
        L = stub_fed_length(lam_f) if feed_style == "stub" else via_fed_length(lam_f)
    geometry = DipoleGeometry(L=L, W=W)
    rules = check_design_rules(geometry, substrate, f)
    rules.raise_violations()
    return SynthesisResult(geometry=geometry, eps_e=eps_e, lambda_d=lambda_d,
                           recommended_h=0.02 * lambda_d, rules=rules)


def _entry(rule, kind, measured, low, high):
    ok = (low is None or measured >= low) and (high is None or measured <= high)
    status = "pass" if ok else ("violate" if kind == "restriction" else "warn")
    return RuleEntry(rule, kind, measured, low, high, status)


def check_restrictions(geometry: DipoleGeometry,
                       substrate: Substrate) -> RuleCheckResult:
    """The four restrictions: ratios of the strip to its board, at no f."""
    W, T, h = geometry.W, geometry.T, substrate.h
    return RuleCheckResult(entries=(
        _entry("w_over_h", "restriction", W / h, 0.05, 20.0),
        _entry("t_over_w", "restriction", T / W, None, 0.5),
        _entry("t_over_h", "restriction", T / h, None, 0.5),
        _entry("eps_min", "restriction", substrate.eps_r, 1.0, None),
    ))


def check_design_rules(geometry: DipoleGeometry, substrate: Substrate,
                       f: float) -> RuleCheckResult:
    """The eight clauses: four recommendations (a failed one warns) at the
    guided wavelength from the averaged effective permittivity at f, then
    the entries of check_restrictions (a failed one is a violation)."""
    lam = guided_wavelength(f, eps_eff_average(substrate.eps_r))
    L, W, T, h = geometry.L, geometry.W, geometry.T, substrate.h
    return RuleCheckResult(entries=(
        _entry("width_band", "recommendation", W / lam, 0.05, 0.1),
        _entry("min_length", "recommendation", L / lam, 0.48, None),
        _entry("max_height", "recommendation", h / lam, None, 0.02),
        _entry("thin_conductor", "recommendation", T / lam, None, 0.001),
    ) + check_restrictions(geometry, substrate).entries)


def parse_substrate(name: str, fields: list[str], where: str) -> Substrate:
    """The substrate `name` from the text fields eps_r, h_mm; any field
    count, text or value it refuses is a ConfigError "<where>: why"."""
    try:
        if len(fields) != 2:
            raise ValueError("expected 2 fields eps_r, h_mm, got %d"
                             % len(fields))
        eps_r, h = map(float, fields)
        return Substrate(name=name, eps_r=eps_r, h=h)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (where, exc)) from exc


def parse_catalog(text: str, source: str = "<catalog>") -> dict[str, Substrate]:
    """Parse a flat substrate catalog: one `name,eps_r,h_mm` per line."""
    out: dict[str, Substrate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            name, *fields = map(str.strip, line.split(","))
            where = "%s:%d" % (source, lineno)
            if name in out:
                raise ConfigError("%s: substrate %r is defined twice"
                                  % (where, name))
            out[name] = parse_substrate(name, fields, where)
    return out


@functools.cache
def _bundled_catalog() -> dict[str, Substrate]:
    """The package's own catalog, read and parsed once per process."""
    text = (resources.files(__package__) / "data" / "substrates.txt").read_text()
    return parse_catalog(text, source="builtin")


def load_substrates(path: str | None = None) -> dict[str, Substrate]:
    """Load the catalog at `path`, or the bundled one, into a new dict.

    A named file is read again on every call; the bundled one, which ships
    with the package, once per process.
    """
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_catalog(fh.read(), source=path)
    return dict(_bundled_catalog())
