"""Command-line surface: config resolution and deterministic CSV emission.

Each option is declared once, as a RunConfig field: the field name is its
config-file key, and its metadata holds the flag, the help text and the
parser that reads both the flag and the config line. A command's parameters
after the resolved substrate name the fields it reads; it is refused any
other but ``catalog``. Configuration is a flat ``key = value`` text file
with '#' comments; flags override file values, file values override
defaults. CSV formatting is byte-deterministic: full-precision repr
formatting, '.' decimal, newline-terminated rows.

Exit codes: 0 success, 2 config error, 3 design-rule violation,
4 solver error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import re
import sys
from dataclasses import dataclass, field, fields

from .design import FEED_STYLES, DipoleGeometry, Substrate, \
    load_substrates, parse_substrate, synthesize_geometry
from .errors import ConfigError, DesignRuleError, NoResonanceError, \
    SolverError
from .farfield import PatternCut
from .metrics import DEFAULT_BW_THRESHOLD_DB, DEFAULT_Z0, SweepResult, \
    check_bw_threshold, fractional_bandwidth, resonant_frequency, s11_minimum
from .mom import sweep
from .studies import StudyRow, length_study, optimize_length, \
    study_pattern, width_study

_MHZ = 1e6


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not a finite number" % text)
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite(p) for p in text.split(","))


def _band(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("band must be start:stop:step in MHz")
    # the order and step rules are mom.frequency_grid's alone
    return tuple(_finite(p) for p in parts)


def _feed(text: str) -> str:
    if text not in FEED_STYLES:
        raise ValueError("feed must be one of %s" % "|".join(FEED_STYLES))
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
                          "catalog name or inline eps_r:h_mm")
    freq_mhz: float = _opt(1800.0, _finite, "--freq", "spot frequency, MHz")
    band_mhz: tuple[float, float, float] = _opt(
        (1000.0, 2600.0, 10.0), _band, "--band", "start:stop:step, MHz")
    length_mm: float = _opt(67.0, _finite, "--length", "strip length, mm")
    width_mm: float = _opt(6.0, _finite, "--width", "strip width, mm")
    feed: str = _opt("ideal", _feed, "--feed", "%s, design only: the solver "
                     "models only an ideal center feed" % "|".join(FEED_STYLES))
    mesh: int | None = _opt(None, int, "--mesh",
                            "odd segment count, default automatic")
    bw_threshold_db: float = _opt(DEFAULT_BW_THRESHOLD_DB, _finite,
                                  "--bw-threshold", "bandwidth threshold, dB")
    z0_ohm: float = _opt(DEFAULT_Z0, _finite, "--z0",
                         "reference impedance, ohm")
    plane: str = _opt("E", _plane, "--plane", "pattern cut: E or H")
    lengths_mm: tuple[float, ...] = _opt((63.0, 65.0, 67.0), _float_list,
                                         "--lengths", "study lengths, mm list")
    widths_mm: tuple[float, ...] = _opt((5.0, 6.0, 7.0, 8.0), _float_list,
                                        "--widths", "study widths, mm list")
    opt_low_mm: float = _opt(35.0, _finite, "--opt-low", "bracket min L, mm")
    opt_high_mm: float = _opt(48.0, _finite, "--opt-high", "bracket max L, mm")
    out: str | None = _opt(None, str, "--out", "output CSV, default stdout")
    catalog: str | None = _opt(None, str, "--catalog", "catalog file path")


_META = {f.name: f.metadata for f in fields(RunConfig)}


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
        if key not in _META:
            raise ConfigError("%s:%d: unknown key %r" % (source, lineno, key))
        if key in values:
            raise ConfigError("%s:%d: key %r is set twice"
                              % (source, lineno, key))
        try:
            values[key] = _META[key]["parse"](value)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %r: %s"
                              % (source, lineno, key, exc)) from exc
    return values


def resolve_substrate(config: RunConfig) -> Substrate:
    """Catalog name, or inline eps_r:h_mm."""
    text = config.substrate
    if ":" in text:
        return parse_substrate("inline", text.split(":"),
                               "inline substrate %r" % text)
    catalog = load_substrates(config.catalog)
    if text not in catalog:
        raise ConfigError("substrate %r not in catalog (have: %s)"
                          % (text, ", ".join(sorted(catalog))))
    return catalog[text]


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
    # tolist() yields the same doubles as Python floats, so repr is _fmt
    for row in zip(result.f.tolist(), result.z_in.real.tolist(),
                   result.z_in.imag.tolist(), result.s11_db.tolist(),
                   result.vswr.tolist()):
        lines.append("%r,%r,%r,%r,%r" % row)
    _write(path, "\n".join(lines) + "\n")


def emit_pattern_csv(cut: PatternCut, path: str | None) -> None:
    """`plane,angle_deg,field_db` rows plus metadata footer comments."""
    lines = ["plane,angle_deg,field_db"]
    # tolist() yields the same doubles as Python floats, so repr is _fmt
    for angle, db in zip(cut.angles_deg.tolist(), cut.field_db.tolist()):
        lines.append("%s,%r,%r" % (cut.plane, angle, db))
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


def cmd_design(substrate: Substrate, freq_mhz, feed) -> None:
    synth = synthesize_geometry(substrate, freq_mhz * _MHZ, feed_style=feed)
    g, rules = synth.geometry, synth.rules
    print("substrate %s: eps_e=%.4f lambda_d=%.4f mm" %
          (substrate.name, synth.eps_e, synth.lambda_d))
    print("geometry: L=%.4f mm W=%.4f mm (h=%.4f mm recommended)" %
          (g.L, g.W, synth.recommended_h))
    for e in rules.entries:
        print("  rule %-14s %-14s measured=%.6g  [%s]" %
              (e.rule, e.kind, e.measured, e.status))
    print("design ok: L=%.4f mm, W=%.4f mm, %d/%d rules pass" %
          (g.L, g.W, sum(e.status == "pass" for e in rules.entries),
           len(rules.entries)))


def cmd_analyze(substrate: Substrate, band_mhz, length_mm, width_mm, mesh,
                bw_threshold_db, z0_ohm, out) -> None:
    start, stop, step = (x * _MHZ for x in band_mhz)
    check_bw_threshold(bw_threshold_db)
    result = sweep(DipoleGeometry(L=length_mm, W=width_mm), substrate,
                   start, stop, step, n=mesh, z0=z0_ohm)
    summary = _summary_line(result, bw_threshold_db)
    emit_sweep_csv(result, out)
    print("analyze: " + summary)


def cmd_pattern(substrate: Substrate, freq_mhz, length_mm, width_mm, plane,
                out) -> None:
    e_cut, h_cut = study_pattern(DipoleGeometry(L=length_mm, W=width_mm),
                                 substrate, freq_mhz * _MHZ)
    cut = e_cut if plane == "E" else h_cut
    emit_pattern_csv(cut, out)
    print("pattern: %s-plane, directivity %.3f dBi, HPBW %.2f deg"
          % (cut.plane, cut.directivity_dbi, cut.hpbw_deg))


def _print_study(rows: list[StudyRow], out: str | None, label: str) -> None:
    emit_study_table(rows, out)
    ok = [r for r in rows if r.error is None]
    failed = len(rows) - len(ok)
    if ok:
        best = min(ok, key=lambda r: r.rl_db)
        print("%s: %d rows (%d failed), best RL %.2f dB at %g mm, BW %.2f%%"
              % (label, len(rows), failed, best.rl_db, best.param_mm,
                 best.bw_pct))
    else:
        print("%s: all %d rows failed" % (label, len(rows)))
        raise rows[0].error   # main's exit code for the first row's error


def cmd_study_length(substrate: Substrate, band_mhz, lengths_mm, width_mm,
                     freq_mhz, z0_ohm, bw_threshold_db, out) -> None:
    start, stop, step = (x * _MHZ for x in band_mhz)
    rows = length_study(lengths_mm, substrate, start, stop, step,
                        width_mm=width_mm, f_probe=freq_mhz * _MHZ,
                        z0=z0_ohm, threshold_db=bw_threshold_db)
    _print_study(rows, out, "study-length")


def cmd_study_width(substrate: Substrate, band_mhz, widths_mm, length_mm,
                    freq_mhz, z0_ohm, bw_threshold_db, out) -> None:
    start, stop, step = (x * _MHZ for x in band_mhz)
    rows = width_study(widths_mm, substrate, start, stop, step,
                       length_mm=length_mm, f_probe=freq_mhz * _MHZ,
                       z0=z0_ohm, threshold_db=bw_threshold_db)
    _print_study(rows, out, "study-width")


def cmd_optimize(substrate: Substrate, freq_mhz, opt_low_mm, opt_high_mm,
                 width_mm, z0_ohm) -> None:
    res = optimize_length(substrate, freq_mhz * _MHZ, opt_low_mm, opt_high_mm,
                          width_mm=width_mm, z0=z0_ohm)
    print("optimize: L=%.4f mm, Z=%.3f%+.3fj ohm, S11 %.2f dB, "
          "%d iterations%s"
          % (res.length_mm, res.z_in.real, res.z_in.imag, res.s11_db,
             res.iterations, "" if res.converged else " (not converged)"))


#: each command, named by its function, and the parameter names of that
#: function, read from its signature once per process
_COMMANDS = {cmd.__name__[4:].replace("_", "-"): cmd for cmd in (
    cmd_design, cmd_analyze, cmd_pattern, cmd_study_length, cmd_study_width,
    cmd_optimize)}
_PARAMS = {name: tuple(inspect.signature(cmd).parameters)
           for name, cmd in _COMMANDS.items()}


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use rather than at import.

    `parse_args` keeps no state on the parser: each parse fills a new
    namespace from the declared defaults.
    """
    return build_parser()


#: every flag but -h takes one value; argparse reads only -<digits> and
#: -<digits>.<digits> as negative numbers, so a value such as -1e-3,
#: -1e3:2600:10 or -1e1,60 would be taken for a flag and leave its own empty
_VALUE_FLAGS = frozenset(("--config", *(m["flag"] for m in _META.values())))
_SIGNED = re.compile(r"-[\d.]")


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each `--flag -<number...>` written as `--flag=-<number...>`."""
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and _SIGNED.match(token):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:   # argparse's exit: 0 after -h, 2 for a bad flag
        return exc.code
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
    config = RunConfig(**{**file_values, **flag_values})   # flags win
    params = _PARAMS[args.command]   # ("substrate", the fields it reads...)
    for key in [*flag_values, *file_values]:
        if key not in params and key != "catalog":
            name = (_META[key]["flag"] if key in flag_values
                    else "key %r in %s" % (key, args.config))
            raise ConfigError("%s takes no %s (%s)"
                              % (args.command, name, _META[key]["help"]))
    _COMMANDS[args.command](resolve_substrate(config),
                            *(getattr(config, key) for key in params[1:]))
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
