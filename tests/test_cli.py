import contextlib
import io
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipolekit.cli import (
    RunConfig,
    build_parser,
    emit_pattern_csv,
    emit_study_table,
    emit_sweep_csv,
    main,
    parse_config_text,
    resolve_config,
    resolve_substrate,
)
from dipolekit import mom
from dipolekit.errors import ConfigError, NonPassiveError
from dipolekit.farfield import PatternCut
from dipolekit.metrics import SweepResult
from dipolekit.studies import StudyRow


def test_defaults():
    cfg = resolve_config({}, {})
    assert cfg.substrate == "fr4"
    assert cfg.band_mhz == (1000.0, 2600.0, 10.0)
    assert cfg.mesh is None
    assert cfg.bw_threshold_db == -10.0
    assert cfg.freq_mhz == 1800.0
    assert (cfg.length_mm, cfg.width_mm) == (67.0, 6.0)


def test_flag_overrides_file():
    cfg = resolve_config({"length_mm": 60.0}, {"length_mm": 63.0})
    assert cfg.length_mm == 63.0
    cfg2 = resolve_config({"length_mm": 60.0}, {})
    assert cfg2.length_mm == 60.0


#: a non-default value for each option, as flag or config-file text
_SAMPLE_TEXT = {
    "substrate": "3.5:1.0:0.001", "freq_mhz": "1120",
    "band_mhz": "1000:1600:20", "length_mm": "63.5", "width_mm": "5",
    "feed": "stub", "mesh": "83", "bw_threshold_db": "-6", "z0_ohm": "75",
    "plane": "h", "lengths_mm": "63,65", "widths_mm": "5,7",
    "opt_low_mm": "30", "opt_high_mm": "50", "out": "x.csv",
    "catalog": "cat.txt",
}


@pytest.mark.parametrize("option", fields(RunConfig), ids=lambda f: f.name)
def test_each_option_is_one_flag_and_one_config_key(option):
    parser = build_parser()
    flags = [a.option_strings for a in parser._actions
             if a.dest == option.name]
    assert flags == [[option.metadata["flag"]]]
    text = _SAMPLE_TEXT[option.name]
    args = parser.parse_args(
        ["analyze", "%s=%s" % (option.metadata["flag"], text)])
    from_file = parse_config_text("%s = %s\n" % (option.name, text))
    assert getattr(args, option.name) == from_file[option.name]
    assert from_file[option.name] != option.default


def test_gap_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--gap", "3"])
    assert exc.value.code == 2
    with pytest.raises(ConfigError, match="unknown key 'gap_mm'"):
        parse_config_text("gap_mm = 3\n")
    for file_values, flag_values in (({"gap_mm": 3.0}, {}),
                                     ({}, {"gap_mm": 3.0})):
        with pytest.raises(ConfigError, match="unknown key 'gap_mm'"):
            resolve_config(file_values, flag_values)


def _mesh_sizes(monkeypatch, argv):
    built = []

    def spy(model, n=None):
        mesh = real(model, n)
        built.append((mesh.n, mom.default_segments(model.total_length,
                                                   model.radius)))
        return mesh

    real = mom.build_mesh
    monkeypatch.setattr(mom, "build_mesh", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return built


def test_analyze_mesh_is_automatic_unless_given(monkeypatch):
    argv = ["analyze", "--band", "1050:1150:50"]
    (n, auto), = _mesh_sizes(monkeypatch, argv)
    assert n == auto == 21
    (n, auto), = _mesh_sizes(monkeypatch, argv + ["--mesh", "41"])
    assert (n, auto) == (41, 21)


def test_help_lists_each_flag_once(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ["--config"] + [f.metadata["flag"] for f in fields(RunConfig)]:
        assert len(re.findall(r"^  %s\b(?!-)" % flag, text, re.M)) == 1, flag
    assert "--gap" not in text


def test_options_may_precede_the_command(capsys):
    assert main(["--band", "1050:1150:50", "analyze"]) == 0
    assert "analyze:" in capsys.readouterr().out


def test_parse_config_text():
    vals = parse_config_text(
        "# comment\nlength_mm = 63  # inline\nband_mhz=1000:1600:20\n"
        "lengths_mm = 63,65,67\n")
    assert vals["length_mm"] == 63.0
    assert vals["band_mhz"] == (1000.0, 1600.0, 20.0)
    assert vals["lengths_mm"] == (63.0, 65.0, 67.0)


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        parse_config_text("frobnicate = 1\n")


def test_parse_config_type_mismatch_names_line():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("length_mm = 63\nmesh = fourty\n")


def test_resolve_substrate_catalog_and_inline():
    sub = resolve_substrate(RunConfig())
    assert sub.eps_r == 4.3 and sub.h == 1.6
    inline = resolve_substrate(RunConfig(substrate="3.5:1.0:0.001"))
    assert inline.eps_r == 3.5 and inline.h == 1.0
    with pytest.raises(ConfigError, match="not in catalog"):
        resolve_substrate(RunConfig(substrate="unobtainium"))


def test_inline_substrate_eps_below_one_rejected():
    with pytest.raises(ConfigError, match="eps_r must be >= 1"):
        resolve_substrate(RunConfig(substrate="0.5:1.6:0"))


def _sweep():
    return SweepResult([1.0e9, 1.1e9], [40 - 5j, 50 + 2j])


def test_emit_sweep_csv(tmp_path):
    p = tmp_path / "s.csv"
    emit_sweep_csv(_sweep(), str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "freq_hz,r_ohm,x_ohm,s11_db,vswr"
    assert len(lines) == 3
    assert lines[1].startswith("1000000000.0,40.0,-5.0,")
    assert p.read_text().endswith("\n")


def test_emit_sweep_single_sample(tmp_path):
    p = tmp_path / "s.csv"
    emit_sweep_csv(SweepResult([1.8e9], [50 + 0j]), str(p))
    assert len(p.read_text().splitlines()) == 2


def test_emit_pattern_csv(tmp_path):
    cut = PatternCut(plane="E", angles_deg=np.array([89.0, 90.0, 91.0]),
                     field_db=np.array([-0.1, 0.0, -0.1]),
                     directivity_dbi=2.15, hpbw_deg=78.0)
    p = tmp_path / "p.csv"
    emit_pattern_csv(cut, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "plane,angle_deg,field_db"
    assert lines[1] == "E,89.0,-0.1"
    assert lines[-2] == "# directivity_dbi=2.15"
    assert lines[-1] == "# hpbw_deg=78.0"


def test_emit_study_table(tmp_path):
    rows = [StudyRow(param_mm=63.0, z_in=49 + 1j, vswr=1.05, rl_db=-32.0,
                     bw_pct=16.5, directivity_dbi=2.1),
            StudyRow(param_mm=65.0, error="boom")]
    p = tmp_path / "t.csv"
    emit_study_table(rows, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "param_mm,r_ohm,x_ohm,vswr,rl_db,bw_pct,directivity_dbi"
    assert lines[1] == "63.0,49.0,1.0,1.05,-32.0,16.5,2.1"
    assert "boom" in lines[2]


def test_emit_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_sweep_csv(_sweep(), str(a))
    emit_sweep_csv(_sweep(), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_design_runs(capsys):
    assert main(["design", "--substrate", "fr4", "--freq", "1800"]) == 0
    out = capsys.readouterr().out
    assert "design ok" in out
    assert "eps_e=2.6500" in out


def test_cli_analyze_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["analyze", "--band", "1050:1250:50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_hz,r_ohm,x_ohm,s11_db,vswr"
    assert len(lines) == 6
    assert "analyze:" in capsys.readouterr().out


def test_cli_analyze_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["analyze", "--band", "1050:1250:50", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_pattern(tmp_path, capsys):
    out = tmp_path / "pat.csv"
    rc = main(["pattern", "--freq", "1120", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("plane,angle_deg,field_db\n")
    assert "# directivity_dbi=" in text
    assert "# hpbw_deg=" in text


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length_mm = 60\nband_mhz = 1050:1250:50\n")
    out = tmp_path / "o.csv"
    rc = main(["analyze", "--config", str(cfg), "--length", "63",
               "--out", str(out)])
    assert rc == 0


def test_cli_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh = fourty\n")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_missing_config(capsys):
    assert main(["analyze", "--config", "/does/not/exist.cfg"]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_unreadable_config_is_a_config_error(kind, tmp_path, capsys):
    path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config" in err
    assert "Traceback" not in err


def test_cli_exit_code_design_rule(capsys):
    # w/h exceeds the hard 20:1 restriction
    rc = main(["analyze", "--length", "300", "--width", "64",
               "--band", "1050:1150:50"])
    assert rc == 3
    assert "design-rule" in capsys.readouterr().err


def test_cli_exit_code_io_error(tmp_path, capsys):
    rc = main(["analyze", "--band", "1050:1150:50",
               "--out", str(tmp_path / "nope" / "x.csv")])
    assert rc == 5


def test_cli_exit_code_non_passive(monkeypatch, capsys):
    # a negative input resistance reaching the metrics is a solver failure
    monkeypatch.setattr(mom, "input_impedance", lambda current: -10.0 + 5.0j)
    rc = main(["analyze", "--band", "1050:1150:50"])
    assert rc == 4
    assert "solver error" in capsys.readouterr().err
    assert issubclass(NonPassiveError, ValueError)


def test_cli_unknown_substrate_exit(capsys):
    assert main(["design", "--substrate", "nosuch"]) == 2


def test_cli_study_length(tmp_path, capsys):
    out = tmp_path / "len.csv"
    rc = main(["study-length", "--lengths", "63,65", "--band",
               "1050:1350:50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param_mm,")
    assert len(lines) == 3


def test_cli_optimize(capsys):
    rc = main(["optimize", "--opt-low", "35", "--opt-high", "48"])
    assert rc == 0
    assert "optimize: L=" in capsys.readouterr().out


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:      # argparse rejected a flag value
        return exc.code


@pytest.mark.parametrize("argv", [
    ["analyze", "--length", "20", "--width", "6"],     # thin-wire limit
    ["analyze", "--z0", "-5"],
    ["analyze", "--z0", "nan"],
    ["pattern", "--freq", "0"],
    ["optimize", "--opt-low", "48", "--opt-high", "35"],
    ["analyze", "--bw-threshold", "3"],
    ["analyze", "--length", "inf"],
    ["pattern", "--freq", "inf"],
    ["analyze", "--band", "1000:inf:50"],
    ["analyze", "--band", "1000:2000:1e-310"],        # step count overflows
    ["analyze", "--band", "1.7e308:1.7e308:1"],       # f in Hz overflows
], ids=" ".join)
def test_cli_bad_values_exit_2(argv, capsys):
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pattern", "--freq=1e-300"],                       # sin(kh) underflows
    ["pattern", "--freq=1e305"],                        # non-finite matrix
    ["pattern", "--length=1e10", "--width=1e-300"],     # L/(2a) overflows
], ids=" ".join)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_degenerate_solves_exit_4(argv, capsys):
    assert main(argv) == 4
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--length", "100000", "--width", "0.1", "--mesh", "4003",
     "--band", "1000:1000:1"],
    ["analyze", "--length", "1e300", "--width", "0.1",
     "--mesh", "1000000000000001", "--band", "1000:1000:1"],
], ids=" ".join)
def test_cli_mesh_above_the_limit_exits_4(argv, capsys):
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "segment count" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["z0_ohm = nan", "length_mm = -inf",
                                  "band_mhz = 1000:inf:50",
                                  "lengths_mm = 63,inf"])
def test_parse_config_rejects_non_finite(text):
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text(text + "\n")


def test_inline_substrate_rejects_non_finite():
    with pytest.raises(ConfigError, match="finite"):
        resolve_substrate(RunConfig(substrate="inf:1.6:0"))


@pytest.mark.parametrize("line", ["bad,nan,1.6,0", "infh,4.3,inf,0"])
def test_cli_catalog_rejects_non_finite_values(line, tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text(line + "\n")
    name = line.split(",")[0]
    for command in ("pattern", "analyze"):
        assert main([command, "--catalog", str(cat), "--substrate", name]) == 2
        assert ":1: eps_r and h must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "pattern", "study-length",
                                     "study-width", "optimize"])
def test_cli_rejects_unmodelled_feed(command, tmp_path, capsys):
    assert main([command, "--feed", "stub"]) == 2
    assert "ideal center feed" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("feed = via\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "ideal center feed" in capsys.readouterr().err
    assert main([command, "--feed", "ideal", "--band", "1700:1900:100",
                 "--lengths", "63", "--widths", "6"]) == 0


@pytest.mark.parametrize("key, text, reason", [
    ("feed", "bogus", "feed must be one of ideal|stub|via"),
    ("band_mhz", "1000:900:10", "band must have stop >= start and step > 0"),
])
def test_flag_and_config_give_the_same_reason(key, text, reason, tmp_path,
                                              capsys):
    flag = next(f.metadata["flag"] for f in fields(RunConfig) if f.name == key)
    assert _exit_code(["analyze", flag, text]) == 2
    assert reason in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (key, text))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err


def test_cli_design_keeps_feed_styles(capsys):
    for feed in ("ideal", "stub", "via"):
        assert main(["design", "--feed", feed]) == 0


_ANY_FLOAT = st.one_of(st.floats(), st.floats(-100.0, 5000.0))


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["analyze", "pattern", "optimize"]),
       length=_ANY_FLOAT, width=_ANY_FLOAT, z0=_ANY_FLOAT, freq=_ANY_FLOAT,
       bw_threshold=_ANY_FLOAT)
@example(command="pattern", length=3.6894994835786546e289,   # k*R overflows
         width=1261007895663703.0, z0=50.0, freq=1.1212699280039864e23,
         bw_threshold=-10.0)
@example(command="pattern", length=67.0, width=6.0, z0=50.0,  # sin^2(kh)
         freq=1e-150, bw_threshold=-10.0)                     # is subnormal
def test_cli_exit_codes_hold_for_any_value(command, length, width, z0, freq,
                                           bw_threshold):
    # a fixed 3-point band and the automatic mesh keep every solve small
    argv = [command, "--band", "1700:1900:100", "--length=%r" % length,
            "--width=%r" % width, "--z0=%r" % z0, "--freq=%r" % freq,
            "--bw-threshold=%r" % bw_threshold]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = _exit_code(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["design", "analyze", "pattern",
                                "study-length", "study-width", "optimize"]),
       band=_ANY_FLOAT, length=_ANY_FLOAT, width=_ANY_FLOAT, z0=_ANY_FLOAT,
       freq=_ANY_FLOAT, bw_threshold=_ANY_FLOAT)
@example(command="analyze", band=1.7e308, length=67.0, width=6.0,  # f in Hz
         z0=50.0, freq=1800.0, bw_threshold=-10.0)                # overflows
@example(command="study-length", band=1.7e308, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
def test_cli_exit_codes_hold_for_any_band(command, band, length, width, z0,
                                          freq, bw_threshold):
    # a one-point band and the automatic mesh keep every solve small
    argv = [command, "--band=%r:%r:1" % (band, band), "--length=%r" % length,
            "--width=%r" % width, "--z0=%r" % z0, "--freq=%r" % freq,
            "--bw-threshold=%r" % bw_threshold]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = _exit_code(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()
