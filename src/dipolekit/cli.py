"""Command-line surface: config resolution and deterministic CSV emission.

Each option is declared once, as a RunConfig field: the field name is its
config-file key, and its metadata holds the flag, the help text and the
parser that reads both the flag and the config line. Configuration is a
flat ``key = value`` text file with '#' comments; flags override file
values, file values override defaults. All CSV output is byte-deterministic:
full-precision repr formatting, '.' decimal, newline-terminated rows.

Exit codes: 0 success, 2 config error, 3 design-rule violation,
4 solver error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields

from .design import DipoleGeometry, Substrate, check_design_rules, \
    load_substrates, synthesize_geometry
from .errors import ConfigError, DesignRuleError, NoResonanceError, \
    SolverError
from .farfield import PatternCut
from .metrics import SweepResult, fractional_bandwidth, resonant_frequency, \
    s11_minimum
from .mom import sweep
from .studies import StudyRow, length_study, optimize_length, \
    study_pattern, width_study

_MHZ = 1e6

_FEED_NAMES = {"ideal": "ideal_center", "stub": "open_stub", "via": "via_hole"}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not a finite number" % text)
    return value


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(_finite(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _band(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("band must be start:stop:step in MHz")
    start, stop, step = (_finite(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("band must have stop >= start and step > 0")
    return start, stop, step


def _feed(text: str) -> str:
    if text not in _FEED_NAMES:
        raise ValueError("feed must be one of %s" % "|".join(_FEED_NAMES))
    return text


def _plane(text: str) -> str:
    if text.upper() not in ("E", "H"):
        raise ValueError("plane must be E or H")
    return text.upper()


def _opt(default, parse, flag: str, help: str):
    """A RunConfig field that is also the CLI flag `flag`."""
    return field(default=default,
                 metadata={"parse": parse, "flag": flag, "help": help})


@dataclass
class RunConfig:
    """Fully resolved run parameters, one field per option."""

    substrate: str = _opt("fr4", str, "--substrate",
                          "catalog name or inline eps_r:h_mm:tand")
    freq_mhz: float = _opt(1800.0, _finite, "--freq", "spot frequency, MHz")
    band_mhz: tuple[float, float, float] = _opt(
        (1000.0, 2600.0, 10.0), _band, "--band", "start:stop:step, MHz")
    length_mm: float = _opt(67.0, _finite, "--length", "mm")
    width_mm: float = _opt(6.0, _finite, "--width", "mm")
    feed: str = _opt("ideal", _feed, "--feed",
                     "ideal|stub|via; non-ideal feeds for design only")
    mesh: int | None = _opt(None, int, "--mesh",
                            "odd segment count (default: automatic)")
    bw_threshold_db: float = _opt(-10.0, _finite, "--bw-threshold",
                                  "bandwidth threshold, dB")
    z0_ohm: float = _opt(50.0, _finite, "--z0", "reference impedance, ohm")
    plane: str = _opt("E", _plane, "--plane", "pattern cut: E or H")
    lengths_mm: tuple[float, ...] = _opt((63.0, 65.0, 67.0), _float_list,
                                         "--lengths", "comma list, mm")
    widths_mm: tuple[float, ...] = _opt((5.0, 6.0, 7.0, 8.0), _float_list,
                                        "--widths", "comma list, mm")
    opt_low_mm: float = _opt(35.0, _finite, "--opt-low", "mm")
    opt_high_mm: float = _opt(48.0, _finite, "--opt-high", "mm")
    out: str | None = _opt(None, str, "--out", "output path (default stdout)")
    catalog: str | None = _opt(None, str, "--catalog",
                               "substrate catalog path")


_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value lines with '#' comments; values stay typed."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (source, lineno, raw.strip()))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError("%s:%d: unknown key %r" % (source, lineno, key))
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %r: %s"
                              % (source, lineno, key, exc)) from exc
    return values


def resolve_config(file_values: dict, flag_values: dict) -> RunConfig:
    """Merge defaults < file < flags."""
    values = {**file_values, **flag_values}
    for key in values:
        if key not in _PARSERS:
            raise ConfigError("unknown key %r" % key)
    return RunConfig(**values)


def resolve_substrate(config: RunConfig) -> Substrate:
    """Catalog name, or inline eps_r:h_mm:tan_delta."""
    text = config.substrate
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("inline substrate must be eps_r:h_mm:tand, got %r"
                              % text)
        try:
            eps_r, h, tand = (_finite(p) for p in parts)
            return Substrate(name="inline", eps_r=eps_r, h=h, tan_delta=tand)
        except ValueError as exc:
            raise ConfigError("bad inline substrate %r: %s" % (text, exc)) from exc
    catalog = load_substrates(config.catalog)
    if text not in catalog:
        raise ConfigError("substrate %r not in catalog (have: %s)"
                          % (text, ", ".join(sorted(catalog))))
    return catalog[text]


def _geometry(config: RunConfig) -> DipoleGeometry:
    return DipoleGeometry(L=config.length_mm, W=config.width_mm)


def _fmt(x) -> str:
    return repr(float(x))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def emit_sweep_csv(result: SweepResult, path: str | None) -> None:
    """`freq_hz,r_ohm,x_ohm,s11_db,vswr`, one row per sample."""
    lines = ["freq_hz,r_ohm,x_ohm,s11_db,vswr"]
    for row in zip(result.f, result.z_in.real, result.z_in.imag,
                   result.s11_db, result.vswr):
        lines.append(",".join(map(_fmt, row)))
    _write(path, "\n".join(lines) + "\n")


def emit_pattern_csv(cut: PatternCut, path: str | None) -> None:
    """`plane,angle_deg,field_db` rows plus metadata footer comments."""
    lines = ["plane,angle_deg,field_db"]
    for angle, db in zip(cut.angles_deg, cut.field_db):
        lines.append(",".join((cut.plane, _fmt(angle), _fmt(db))))
    lines.append("# directivity_dbi=%s" % _fmt(cut.directivity_dbi))
    lines.append("# hpbw_deg=%s" % _fmt(cut.hpbw_deg))
    _write(path, "\n".join(lines) + "\n")


def emit_study_table(rows: list[StudyRow], path: str | None) -> None:
    """`param_mm,r_ohm,x_ohm,vswr,rl_db,bw_pct,directivity_dbi` per row."""
    if not rows:
        raise ValueError("empty study")
    lines = ["param_mm,r_ohm,x_ohm,vswr,rl_db,bw_pct,directivity_dbi"]
    for r in rows:
        if r.error is not None:
            lines.append("%s,error,error,error,error,error,error # %s"
                         % (_fmt(r.param_mm), r.error))
        else:
            lines.append(",".join((_fmt(r.param_mm), _fmt(r.z_in.real),
                                   _fmt(r.z_in.imag), _fmt(r.vswr),
                                   _fmt(r.rl_db), _fmt(r.bw_pct),
                                   _fmt(r.directivity_dbi))))
    _write(path, "\n".join(lines) + "\n")


def _band_hz(config: RunConfig) -> tuple[float, float, float]:
    start, stop, step = config.band_mhz
    return start * _MHZ, stop * _MHZ, step * _MHZ


def _summary_line(result: SweepResult, threshold_db: float) -> str:
    i = s11_minimum(result)
    bw = fractional_bandwidth(result, threshold_db)
    try:
        f_res = resonant_frequency(result)
        res_txt = "%.1f MHz" % (f_res / _MHZ)
    except NoResonanceError:
        res_txt = "none in band"
    return ("resonance %s, best RL %.2f dB at %.1f MHz, BW %.2f%%, VSWR %.4f"
            % (res_txt, result.s11_db[i], result.f[i] / _MHZ, bw.percent,
               result.vswr[i]))


def cmd_design(config: RunConfig, substrate: Substrate) -> None:
    f = config.freq_mhz * _MHZ
    synth = synthesize_geometry(substrate, f, feed_style=_FEED_NAMES[config.feed])
    g = synth.geometry
    print("substrate %s: eps_e=%.4f lambda_d=%.4f mm" %
          (substrate.name, synth.eps_e, synth.lambda_d))
    print("geometry: L=%.4f mm W=%.4f mm (h=%.4f mm recommended)" %
          (g.L, g.W, synth.recommended_h))
    rules = check_design_rules(g, substrate, f)
    for e in rules.entries:
        print("  rule %-14s %-14s measured=%.6g  [%s]" %
              (e.rule, e.kind, e.measured, e.status))
    print("design ok: L=%.4f mm, W=%.4f mm, %d/%d rules pass" %
          (g.L, g.W, sum(e.status == "pass" for e in rules.entries),
           len(rules.entries)))


def cmd_analyze(config: RunConfig, substrate: Substrate) -> None:
    start, stop, step = _band_hz(config)
    result = sweep(_geometry(config), substrate, start, stop, step,
                   n=config.mesh, z0=config.z0_ohm)
    emit_sweep_csv(result, config.out)
    print("analyze: " + _summary_line(result, config.bw_threshold_db))


def cmd_pattern(config: RunConfig, substrate: Substrate) -> None:
    e_cut, h_cut = study_pattern(_geometry(config), substrate,
                                 config.freq_mhz * _MHZ)
    cut = e_cut if config.plane == "E" else h_cut
    emit_pattern_csv(cut, config.out)
    print("pattern: %s-plane, directivity %.3f dBi, HPBW %.2f deg"
          % (cut.plane, cut.directivity_dbi, cut.hpbw_deg))


def _print_study(rows: list[StudyRow], config: RunConfig, label: str) -> None:
    emit_study_table(rows, config.out)
    ok = [r for r in rows if r.error is None]
    failed = len(rows) - len(ok)
    if ok:
        best = min(ok, key=lambda r: r.rl_db)
        print("%s: %d rows (%d failed), best RL %.2f dB at %g mm, BW %.2f%%"
              % (label, len(rows), failed, best.rl_db, best.param_mm,
                 best.bw_pct))
    else:
        print("%s: all %d rows failed" % (label, len(rows)))


def cmd_study_length(config: RunConfig, substrate: Substrate) -> None:
    start, stop, step = _band_hz(config)
    rows = length_study(config.lengths_mm, substrate, start, stop, step,
                        width_mm=config.width_mm, f_probe=config.freq_mhz * _MHZ,
                        z0=config.z0_ohm, threshold_db=config.bw_threshold_db)
    _print_study(rows, config, "study-length")


def cmd_study_width(config: RunConfig, substrate: Substrate) -> None:
    start, stop, step = _band_hz(config)
    rows = width_study(config.widths_mm, substrate, start, stop, step,
                       length_mm=config.length_mm,
                       f_probe=config.freq_mhz * _MHZ,
                       z0=config.z0_ohm, threshold_db=config.bw_threshold_db)
    _print_study(rows, config, "study-width")


def cmd_optimize(config: RunConfig, substrate: Substrate) -> None:
    f = config.freq_mhz * _MHZ
    res = optimize_length(substrate, f, config.opt_low_mm, config.opt_high_mm,
                          width_mm=config.width_mm, z0=config.z0_ohm)
    print("optimize: L=%.4f mm, Z=%.3f%+.3fj ohm, S11 %.2f dB, "
          "%d iterations%s"
          % (res.length_mm, res.z_in.real, res.z_in.imag, res.s11_db,
             res.iterations, "" if res.converged else " (not converged)"))


_COMMANDS = {
    "design": cmd_design,
    "analyze": cmd_analyze,
    "pattern": cmd_pattern,
    "study-length": cmd_study_length,
    "study-width": cmd_study_width,
    "optimize": cmd_optimize,
}


def _flag_type(parse):
    """`parse` for argparse, which then prints the ValueError's reason."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolekit",
        description="Planar strip-dipole design, analysis, and studies.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        parser.add_argument(f.metadata["flag"], dest=f.name,
                            type=_flag_type(f.metadata["parse"]),
                            help=f.metadata["help"])
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config") and v is not None}
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from exc
        file_values = parse_config_text(text, source=args.config)
    config = resolve_config(file_values, flag_values)
    if config.feed != "ideal" and args.command != "design":
        raise ConfigError("feed %r is not modelled: the solver has only an "
                          "ideal center feed" % config.feed)
    _COMMANDS[args.command](config, resolve_substrate(config))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except DesignRuleError as exc:
        print("design-rule violation: %s" % exc, file=sys.stderr)
        return 3
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:  # NonPassiveError exits 4 above
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
