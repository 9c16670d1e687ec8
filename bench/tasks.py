"""Running one benchmark task in-process and checking its output.

A task runs through `dipolekit.cli.main(argv)` with stdout and stderr
captured in memory, or as a library call for the two tasks without a CLI
command. Its output is reduced to a *record* of named values, which
`compare` checks against the recorded reference with these tolerances:

- Z_in (CSV and library results): |z - z_ref| <= 1e-9 |z_ref|
- other full-precision values: rel 1e-9, and absolute 1e-6 for directivity
  (dBi), bandwidth (%), S11 (dB), pattern field (dB) and optimized length
  (mm, library result)
- numbers the CLI prints rounded (summary lines, `optimize`, `design`):
  one unit in the last printed place
- expected errors (exit code 2-5, study error rows): the message with its
  numbers masked must match

Record extraction never raises: a malformed output becomes a record that
fails the comparison.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re

from dipolekit import cli, microstrip, studies
from dipolekit.design import load_substrates

REL_Z = 1e-9
REL = 1e-9
ABS = 1e-6

#: angles of the pattern CSV kept in the reference (every 15th row)
PATTERN_STRIDE = 15

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")

@functools.cache
def _catalog():
    return load_substrates()


def _substrate(name: str):
    return _catalog()[name]


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


class Outcome:
    """What one task produced: exit code, captured text, library value."""

    __slots__ = ("exit", "stdout", "stderr", "value")

    def __init__(self, exit, stdout, stderr, value=None):
        self.exit = exit
        self.stdout = stdout
        self.stderr = stderr
        self.value = value


def run_task(argv: list[str]) -> Outcome:
    """Run one task; an uncaught exception is returned as exit "raise"."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0] == "optimize-max-rl":
                f = _flags(argv)
                code = 0
                value = studies.optimize_for_max_rl(
                    _substrate(f["--substrate"]), float(f["--freq"]) * 1e6,
                    float(f["--opt-low"]), float(f["--opt-high"]),
                    width_mm=float(f["--width"]))
            else:
                code = cli.main(argv)
                if argv[0] == "design" and code == 0:
                    f = _flags(argv)
                    value = microstrip.feed_spec_for(
                        _substrate(f["--substrate"]), float(f["--freq"]) * 1e6)
    except Exception as exc:  # a traceback is a task outcome, not a crash
        return Outcome("raise", out.getvalue(),
                       "%s: %s" % (type(exc).__name__, exc))
    return Outcome(code, out.getvalue(), err.getvalue(), value)


def _mask(text: str) -> str:
    return _NUMBER.sub("#", text)


def _sig(x: float) -> float:
    # 12 significant digits keep rel 1e-9 checks exact and the file small
    return float("%.12g" % x) if math.isfinite(x) else x


def _extract_sweep(lines: list[str]) -> dict:
    f, z, derived = [], [], []
    for line in lines[1:]:
        fv, r, x, s11, vswr = (float(p) for p in line.split(","))
        f.append(fv)
        z.append([_sig(r), _sig(x)])
        derived.append((complex(r, x), s11, vswr))
    return {"grid": [f[0], f[-1], len(f)], "z_rows": z, "derived": derived}


def _extract_study(lines: list[str]) -> list:
    rows = []
    for line in lines[1:]:
        head, _, comment = line.partition(" # ")
        parts = head.split(",")
        if parts[1] == "error":
            rows.append({"param": float(parts[0]), "error": _mask(comment)})
        else:
            p, r, x, vswr, rl, bw, d = (float(v) for v in parts)
            rows.append({"param": p, "z": [_sig(r), _sig(x)], "vswr": _sig(vswr),
                         "rl_db": _sig(rl), "bw_pct": _sig(bw),
                         "directivity_dbi": _sig(d)})
    return rows


def extract(argv: list[str], outcome: Outcome) -> dict:
    """Reduce a task outcome to the values the reference holds."""
    rec = {"exit": outcome.exit}
    if outcome.exit != 0:
        rec["error"] = _mask(outcome.stderr.strip())
        return rec
    command = argv[0]
    lines = outcome.stdout.splitlines()
    try:
        if command == "optimize-max-rl":
            v = outcome.value
            return {**rec, "length_mm": _sig(v.length_mm),
                    "z": [_sig(v.z_in.real), _sig(v.z_in.imag)],
                    "s11_db": _sig(v.s11_db), "note": v.note,
                    "converged": bool(v.converged)}
        if command == "analyze":
            rec.update(_extract_sweep(lines[:-1]))
            rec["text"] = lines[-1]
        elif command.startswith("study-"):
            rec["rows"] = _extract_study(lines[:-1])
            rec["text"] = lines[-1]
        elif command == "pattern":
            body = lines[1:-3]
            rec["plane"] = body[0].split(",")[0]
            rec["angles"] = [float(body[0].split(",")[1]),
                             float(body[-1].split(",")[1]), len(body)]
            rec["field_db"] = [_sig(float(row.split(",")[2]))
                               for row in body[::PATTERN_STRIDE]]
            rec["directivity_dbi"] = _sig(float(lines[-3].split("=")[1]))
            rec["hpbw_deg"] = _sig(float(lines[-2].split("=")[1]))
            rec["text"] = lines[-1]
        elif command == "design":
            v = outcome.value
            rec["text"] = "\n".join(lines)
            rec["feed_w_mm"] = _sig(v.w)
            rec["stub_mm"] = _sig(v.stub_length)
        else:
            rec["text"] = "\n".join(lines)
    except (ValueError, IndexError, AttributeError) as exc:
        return {"exit": "malformed", "error": "%s: %s" % (type(exc).__name__, exc)}
    return rec


def _close_printed(a: str, b: str) -> bool:
    """Equal up to one unit in the last printed place of the reference."""
    if a == b:
        return True
    if _mask(a) != _mask(b):
        return False
    for ta, tb in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if float(ta) != float(tb) and \
                abs(float(ta) - float(tb)) > 1.01 * _last_place(tb):
            return False
    return True


def _last_place(token: str) -> float:
    """Value of one unit in the last printed digit, e.g. 0.01 for '1.25'."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent or 0) - decimals)


def _close(a: float, b: float, rel: float = REL, abs_: float = 0.0) -> bool:
    if a == b:
        return True
    return abs(a - b) <= max(rel * abs(b), abs_)


def _close_z(a, b) -> bool:
    za, zb = complex(*a), complex(*b)
    return abs(za - zb) <= REL_Z * abs(zb)


def _self_consistent(derived, z0: float = 50.0) -> str | None:
    # the CSV's s11_db and vswr columns must follow from its own Z column
    for z, s11, vswr in derived:
        g = abs((z - z0) / (z + z0))
        want_s11 = 20.0 * math.log10(g) if g > 0 else -math.inf
        want_vswr = (1.0 + g) / (1.0 - g) if g < 1 else math.inf
        if not (_close(s11, want_s11, abs_=ABS) and _close(vswr, want_vswr)):
            return "s11/vswr columns disagree with Z at %r" % z
    return None


def compare(rec: dict, ref: dict | None) -> list[str]:
    """Mismatches between a task record and its reference (empty = pass)."""
    if ref is None:
        return ["no reference for this task"]
    if rec.get("exit") != ref.get("exit"):
        return ["exit %r, reference %r (%s)"
                % (rec.get("exit"), ref.get("exit"), rec.get("error", ""))]
    bad = []
    if "error" in ref and rec.get("error") != ref["error"]:
        bad.append("error %r, reference %r" % (rec.get("error"), ref["error"]))
    if "text" in ref and not _close_printed(rec.get("text", ""), ref["text"]):
        bad.append("printed %r, reference %r" % (rec.get("text"), ref["text"]))
    if "derived" in rec:
        msg = _self_consistent(rec["derived"])
        if msg:
            bad.append(msg)
    if "grid" in ref:
        if rec["grid"][2] != ref["grid"][2] or not all(
                _close(a, b, rel=1e-12) for a, b in zip(rec["grid"], ref["grid"])):
            bad.append("frequency grid %r, reference %r" % (rec["grid"], ref["grid"]))
        elif not all(_close_z(a, b) for a, b in zip(rec["z_rows"], ref["z_rows"])):
            bad.append("Z_in differs beyond rel %g" % REL_Z)
    if "rows" in ref:
        if len(rec["rows"]) != len(ref["rows"]):
            bad.append("study has %d rows, reference %d"
                       % (len(rec["rows"]), len(ref["rows"])))
        for a, b in zip(rec["rows"], ref["rows"]):
            if a.keys() != b.keys() or a["param"] != b["param"]:
                bad.append("study row %r differs in kind" % b["param"])
            elif "error" in b:
                if a["error"] != b["error"]:
                    bad.append("study row %r error %r" % (b["param"], a["error"]))
            elif not (_close_z(a["z"], b["z"]) and _close(a["vswr"], b["vswr"])
                      and _close(a["rl_db"], b["rl_db"], abs_=ABS)
                      and _close(a["bw_pct"], b["bw_pct"], abs_=ABS)
                      and _close(a["directivity_dbi"], b["directivity_dbi"],
                                 abs_=ABS)):
                bad.append("study row %r values differ" % b["param"])
    if "z" in ref and not _close_z(rec["z"], ref["z"]):
        bad.append("Z_in differs beyond rel %g" % REL_Z)
    for key in ("length_mm", "s11_db", "directivity_dbi", "hpbw_deg"):
        if key in ref and not _close(rec[key], ref[key], abs_=ABS):
            bad.append("%s %r, reference %r" % (key, rec[key], ref[key]))
    for key in ("feed_w_mm", "stub_mm"):
        if key in ref and not _close(rec[key], ref[key]):
            bad.append("%s %r, reference %r" % (key, rec[key], ref[key]))
    for key in ("note", "converged", "plane", "angles"):
        if key in ref and rec[key] != ref[key]:
            bad.append("%s %r, reference %r" % (key, rec[key], ref[key]))
    if "field_db" in ref and (
            len(rec["field_db"]) != len(ref["field_db"]) or not all(
                _close(a, b, abs_=ABS)
                for a, b in zip(rec["field_db"], ref["field_db"]))):
        bad.append("pattern field differs beyond %g dB" % ABS)
    return bad


def reference_record(rec: dict) -> dict:
    """The part of a record stored in reference/<workload>.json."""
    return {k: v for k, v in rec.items() if k != "derived"}
