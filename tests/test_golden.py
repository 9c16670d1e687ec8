"""The README's CLI commands against outputs frozen in tests/fixtures/readme.

CSV numbers compare with tolerances rather than bytes, so a change that
only reorders float sums still passes: Z_in (r_ohm + j x_ohm) at rel 1e-9,
every other CSV number at rel 1e-9 or abs 1e-9, and each number printed to
stdout to one unit of its last printed digit. CSV text fields (the pattern
plane, a study's error cells) must match exactly.

The fixtures change only with a justified change of the numbers; then
regenerate them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from dipolekit.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "readme"

#: fixture name -> argv of the README command (CSV commands also get --out)
COMMANDS = {
    "design": ["design", "--substrate", "fr4", "--freq", "1800"],
    "analyze": ["analyze", "--length", "67", "--width", "6",
                "--band", "1000:2600:10"],
    "pattern": ["pattern", "--freq", "1120"],
    "study-length": ["study-length", "--lengths", "63,65,67",
                     "--band", "1000:1600:10"],
    "study-width": ["study-width", "--widths", "5,6,7,8", "--length", "60"],
    "optimize": ["optimize", "--opt-low", "35", "--opt-high", "48"],
}

_WRITES_CSV = {"analyze", "pattern", "study-length", "study-width"}

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _run(name: str, directory: Path) -> tuple[str, str | None]:
    """Stdout and CSV text (None for commands that write no CSV)."""
    argv = list(COMMANDS[name])
    csv = directory / (name + ".csv")
    if name in _WRITES_CSV:
        argv += ["--out", str(csv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue(), csv.read_text() if name in _WRITES_CSV else None


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def _field(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _assert_csv_close(got: str, want: str) -> None:
    """Field by field: numbers within the tolerances above, text exactly."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    assert got_lines[0] == want_lines[0]
    header = want_lines[0].split(",")
    for g, w in zip(got_lines[1:], want_lines[1:]):
        if w.startswith("# "):                   # "# key=value" footer
            (gk, gv), (wk, wv) = g.split("="), w.split("=")
            assert gk == wk and _close(float(gv), float(wv)), (g, w)
            continue
        fields_g, fields_w = g.split(","), w.split(",")
        assert len(fields_g) == len(fields_w) == len(header), (g, w)
        row_g = dict(zip(header, map(_field, fields_g)))
        row_w = dict(zip(header, map(_field, fields_w)))
        assert [type(v) for v in row_g.values()] \
            == [type(v) for v in row_w.values()], (g, w)
        if isinstance(row_w.get("r_ohm"), float):
            z_g = complex(row_g.pop("r_ohm"), row_g.pop("x_ohm"))
            z_w = complex(row_w.pop("r_ohm"), row_w.pop("x_ohm"))
            assert abs(z_g - z_w) <= 1e-9 * abs(z_w), (g, w)
        for key, value in row_w.items():
            if isinstance(value, str):           # plane letter, error text
                assert row_g[key] == value, (key, g, w)
            else:
                assert _close(row_g[key], value), (key, g, w)


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _assert_printed_close(got: str, want: str) -> None:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert got_parts[::2] == want_parts[::2], (got, want)
    for g, w in zip(got_parts[1::2], want_parts[1::2]):
        assert abs(float(g) - float(w)) <= _last_digit_unit(w) * (1 + 1e-9), \
            (g, w)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_readme_command_matches_fixture(name, tmp_path):
    stdout, csv = _run(name, tmp_path)
    _assert_printed_close(stdout, (FIXTURES / (name + ".out")).read_text())
    if csv is not None:
        _assert_csv_close(csv, (FIXTURES / (name + ".csv")).read_text())


def test_fixture_comparison_has_teeth():
    want = (FIXTURES / "analyze.csv").read_text()
    lines = want.splitlines()
    f, r, x, s11, vswr = lines[1].split(",")
    lines[1] = ",".join((f, repr(float(r) * (1 + 1e-8)), x, s11, vswr))
    with pytest.raises(AssertionError):
        _assert_csv_close("\n".join(lines) + "\n", want)
    pattern = (FIXTURES / "pattern.csv").read_text()
    lines = pattern.splitlines()
    plane, angle, db = lines[1].split(",")
    for row in ((plane, angle, repr(float(db) * (1 + 1e-8))),
                ("H", angle, db)):
        lines[1] = ",".join(row)
        with pytest.raises(AssertionError):
            _assert_csv_close("\n".join(lines) + "\n", pattern)
    with pytest.raises(AssertionError):
        _assert_printed_close("VSWR 1.0082", "VSWR 1.0080")
    _assert_printed_close("VSWR 1.0081", "VSWR 1.0080")


if __name__ == "__main__":
    import tempfile

    FIXTURES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for fixture in COMMANDS:
            stdout, csv = _run(fixture, Path(scratch))
            (FIXTURES / (fixture + ".out")).write_text(stdout)
            if csv is not None:
                (FIXTURES / (fixture + ".csv")).write_text(csv)
