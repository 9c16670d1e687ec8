import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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
    resolve_substrate,
)
from dipolekit import cli, design, mom, studies
from dipolekit.design import DipoleGeometry, load_substrates, \
    synthesize_geometry
from dipolekit.errors import ConfigError, NonPassiveError, SolverError
from dipolekit.farfield import PatternCut
from dipolekit.metrics import SweepResult
from dipolekit.studies import StudyRow


def test_defaults():
    cfg = RunConfig()
    assert cfg.substrate == "fr4"
    assert cfg.band_mhz == (1000.0, 2600.0, 10.0)
    assert cfg.mesh is None
    assert cfg.bw_threshold_db == -10.0
    assert cfg.freq_mhz == 1800.0
    assert (cfg.length_mm, cfg.width_mm) == (67.0, 6.0)


#: a non-default value for each option, as flag or config-file text
_SAMPLE_TEXT = {
    "substrate": "3.5:1.0", "freq_mhz": "1120",
    "band_mhz": "1000:1600:20", "length_mm": "63.5", "width_mm": "5",
    "feed": "stub", "mesh": "83", "bw_threshold_db": "-6", "z0_ohm": "75",
    "plane": "h", "lengths_mm": "63,65", "widths_mm": "5,7",
    "opt_low_mm": "30", "opt_high_mm": "50", "out": "x.csv",
    "catalog": "cat.txt",
}


#: the fields each command reads besides substrate and catalog, which every
#: command reads: 45 settable values in all, of 6 x 16 fields
_READS = {
    "design": {"freq_mhz", "feed"},
    "analyze": {"band_mhz", "length_mm", "width_mm", "mesh", "bw_threshold_db",
                "z0_ohm", "out"},
    "pattern": {"freq_mhz", "length_mm", "width_mm", "plane", "out"},
    "study-length": {"band_mhz", "lengths_mm", "width_mm", "freq_mhz",
                     "z0_ohm", "bw_threshold_db", "out"},
    "study-width": {"band_mhz", "widths_mm", "length_mm", "freq_mhz",
                    "z0_ohm", "bw_threshold_db", "out"},
    "optimize": {"freq_mhz", "opt_low_mm", "opt_high_mm", "width_mm",
                 "z0_ohm"},
}

#: a small run of each command, from its own options only
_SMALL = {
    "design": [],
    "analyze": ["--band", "1700:1900:100"],
    "pattern": [],
    "study-length": ["--band", "1700:1900:100", "--lengths", "63"],
    "study-width": ["--band", "1700:1900:100", "--widths", "6"],
    "optimize": [],
}

_FIELDS = {f.name for f in fields(RunConfig)}


def _params(command):
    return list(inspect.signature(cli._COMMANDS[command]).parameters)


def test_each_command_reads_the_fields_its_signature_names():
    assert list(cli._COMMANDS) == list(_READS)
    for command, reads in _READS.items():
        first, *rest = _params(command)
        assert first == "substrate"
        assert set(rest) == reads, command
    assert sum(2 + len(reads) for reads in _READS.values()) == 45


def test_every_command_parameter_but_substrate_is_a_field():
    for command in _READS:
        assert set(_params(command)[1:]) <= _FIELDS, command


def test_every_field_is_read_by_some_command():
    assert set().union(*_READS.values()) | {"substrate", "catalog"} == _FIELDS


_FOREIGN = [(command, option) for command in _READS
            for option in fields(RunConfig)
            if option.name not in _READS[command] | {"substrate", "catalog"}]


@pytest.mark.parametrize("command, option", _FOREIGN,
                         ids=["%s-%s" % (c, o.name) for c, o in _FOREIGN])
def test_cli_refuses_an_option_its_command_does_not_read(
        command, option, tmp_path, monkeypatch, capsys):
    # as a flag and as a config key: exit 2 before any solve, naming it
    monkeypatch.chdir(tmp_path)     # a refused --out x.csv writes no file
    calls = _count_solves(monkeypatch)
    flag, text = option.metadata["flag"], _SAMPLE_TEXT[option.name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (option.name, text))
    for argv, named in (
            ([command, "%s=%s" % (flag, text)], flag),
            ([command, "--config", str(cfg)],
             "key %r in %s" % (option.name, cfg))):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: %s takes no %s (%s)\n" % (
            command, named, option.metadata["help"])
    assert calls == []
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, err", [
    (["pattern", "--mesh", "41"],
     "pattern takes no --mesh (odd segment count, default automatic)"),
    (["optimize", "--plane", "H"],
     "optimize takes no --plane (pattern cut: E or H)"),
    (["analyze", "--freq", "900"],
     "analyze takes no --freq (spot frequency, MHz)"),
    (["design", "--length", "60"],
     "design takes no --length (strip length, mm)"),
    (["optimize", "--out", "x.csv"],
     "optimize takes no --out (output CSV, default stdout)"),
], ids=" ".join)
def test_cli_foreign_option_is_named(argv, err, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "config error: %s\n" % err)
    assert not (tmp_path / "x.csv").exists()


def test_cli_flag_is_named_before_the_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("plane = H\n")
    assert main(["optimize", "--config", str(cfg), "--mesh", "41"]) == 2
    assert "optimize takes no --mesh " in capsys.readouterr().err


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
    assert main(["analyze", "--gap", "3"]) == 2
    with pytest.raises(ConfigError, match="unknown key 'gap_mm'"):
        parse_config_text("gap_mm = 3\n")


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
    assert main(["-h"]) == 0
    text = capsys.readouterr().out
    for flag in ["--config"] + [f.metadata["flag"] for f in fields(RunConfig)]:
        assert len(re.findall(r"^  %s\b(?!-)" % flag, text, re.M)) == 1, flag
    assert "--gap" not in text


@pytest.mark.parametrize("argv, code", [(["analyze", "--gap", "3"], 2),
                                        (["-h"], 0)])
def test_module_entry_point_exits_with_the_code_main_returns(argv, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dipolekit.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


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


def test_parse_config_line_without_equals_names_line():
    with pytest.raises(ConfigError, match=":2: expected key = value"):
        parse_config_text("length_mm = 63\nmesh 21\n")


def test_parse_config_refuses_a_repeated_key():
    with pytest.raises(ConfigError,
                       match="^run.cfg:3: key 'length_mm' is set twice$"):
        parse_config_text("length_mm = 60\nwidth_mm = 5\nlength_mm = 70\n",
                          source="run.cfg")


def test_resolve_substrate_catalog_and_inline():
    sub = resolve_substrate(RunConfig())
    assert sub.eps_r == 4.3 and sub.h == 1.6
    inline = resolve_substrate(RunConfig(substrate="3.5:1.0"))
    assert inline.eps_r == 3.5 and inline.h == 1.0
    with pytest.raises(ConfigError, match="not in catalog"):
        resolve_substrate(RunConfig(substrate="unobtainium"))


def test_inline_substrate_eps_below_one_rejected():
    with pytest.raises(ConfigError,
                       match="eps_r must be finite and >= 1, got 0.5$"):
        resolve_substrate(RunConfig(substrate="0.5:1.6"))


def _sweep():
    return SweepResult([1.0e9, 1.1e9], [40 - 5j, 50 + 2j])


def test_emit_sweep_csv_writes_non_finite_columns_as_repr(capsys):
    # a matched sample (s11 = -inf dB, VSWR 1) and a shorted one (VSWR inf)
    result = SweepResult([1.0e9, 2.0e9], [50.0 + 0j, 0j])
    emit_sweep_csv(result, None)
    text = capsys.readouterr().out
    assert text == ("freq_hz,r_ohm,x_ohm,s11_db,vswr\n"
                    "1000000000.0,50.0,0.0,-inf,1.0\n"
                    "2000000000.0,0.0,0.0,0.0,inf\n")
    columns = (result.f, result.z_in.real, result.z_in.imag, result.s11_db,
               result.vswr)
    assert text.splitlines()[1:] == [",".join(repr(float(c[i]))
                                              for c in columns)
                                     for i in range(2)]


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


def test_emit_pattern_csv_rows_match_float64_repr(tmp_path):
    # the rows repr Python floats from tolist(); the numpy scalars they
    # come from must print the same bytes, special values included
    values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324,
                       -2.2250738585072014e-308, 1e16, -1e16, 0.1, 89.5])
    cut = PatternCut(plane="H", angles_deg=values, field_db=values[::-1],
                     directivity_dbi=-0.0, hpbw_deg=np.inf)
    p = tmp_path / "p.csv"
    emit_pattern_csv(cut, str(p))
    rows = ["H,%s,%s" % (repr(float(a)), repr(float(d)))
            for a, d in zip(cut.angles_deg, cut.field_db)]
    expected = ["plane,angle_deg,field_db", *rows,
                "# directivity_dbi=-0.0", "# hpbw_deg=inf"]
    assert p.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_emit_study_table(tmp_path):
    rows = [StudyRow(param_mm=63.0, z_in=49 + 1j, vswr=1.05, rl_db=-32.0,
                     bw_pct=16.5, directivity_dbi=2.1),
            StudyRow(param_mm=65.0, error=SolverError("boom"))]
    p = tmp_path / "t.csv"
    emit_study_table(rows, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "param_mm,r_ohm,x_ohm,vswr,rl_db,bw_pct,directivity_dbi"
    assert lines[1] == "63.0,49.0,1.0,1.05,-32.0,16.5,2.1"
    assert "boom" in lines[2]


def test_emit_study_table_refuses_no_rows():
    with pytest.raises(ValueError, match="^empty study$"):
        emit_study_table([], None)


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


def test_cli_design_evaluates_the_rule_table_once(monkeypatch, capsys):
    calls = []

    def counted(check):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)
        return wrapper

    for module in (design, cli):
        if hasattr(module, "check_design_rules"):
            monkeypatch.setattr(module, "check_design_rules",
                                counted(module.check_design_rules))
    assert main(["design"]) == 0
    assert len(calls) == 1
    assert "design ok" in capsys.readouterr().out


def _count_solves(monkeypatch) -> list:
    """The argument tuples of every solve_at call that mom and studies make."""
    calls = []
    solve_at = mom.solve_at

    def counted(*args):
        calls.append(args)
        return solve_at(*args)

    for module in (mom, studies):
        monkeypatch.setattr(module, "solve_at", counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "study-length",
                                     "study-width"])
def test_cli_non_negative_bw_threshold_is_refused_before_any_solve(
        command, monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    argv = [command, *_SMALL[command]]
    assert main(argv) == 0
    assert calls   # the wrapper sees the command's solves
    calls.clear()
    capsys.readouterr()
    assert main(argv + ["--bw-threshold", "0"]) == 2
    assert "config error: threshold must be negative dB" \
        in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["analyze", "study-length", "optimize"])
def test_cli_non_positive_z0_is_refused_before_any_solve(command, monkeypatch,
                                                         capsys):
    calls = _count_solves(monkeypatch)
    assert main([command, "--z0", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: reference impedance must be "
                            "finite and > 0, got -5\n")
    assert calls == []


@pytest.mark.parametrize("flag, reason", [
    pytest.param(flag, reason, id=flag) for flag, reason in (
        ("--band=-100:-50:10", "frequency must be finite and > 0, got -1e+08"),
        ("--band=1.7e308:1.7e308:1",
         "frequency must be finite and > 0, got inf"),
        ("--band=1000:2000:1e-310", "band has inf steps, limit 1000000"),
        ("--band=1000:2000:1e308", "f_step must be finite and > 0, got inf"),
        ("--bw-threshold=0", "threshold must be negative dB"),
        ("--z0=-5", "reference impedance must be finite and > 0, got -5"),
        ("--freq=1e308", "frequency must be finite and > 0, got inf"))])
@pytest.mark.parametrize("command", ["study-length", "study-width"])
def test_cli_study_refuses_shared_inputs_once(command, flag, reason,
                                              monkeypatch, capsys):
    # every row shares them, so the study refuses them before its first
    # row, as analyze does, and writes no table
    calls = _count_solves(monkeypatch)
    assert main([command, flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % reason
    assert calls == []


def test_cli_overflowing_band_names_the_infinite_frequency(capsys):
    assert main(["analyze", "--band=1.7e308:1.7e308:1"]) == 2
    assert capsys.readouterr().err == \
        "config error: frequency must be finite and > 0, got inf\n"


def test_cli_refused_analyze_writes_no_csv(tmp_path, capsys):
    argv = ["analyze", "--band", "1000:1100:50", "--bw-threshold", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: threshold must be negative dB\n"
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_cli_repeated_catalog_name_or_config_key_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("a,4.3,1.6\na,2.2,1\n")
    assert main(["analyze", "--catalog", str(cat), "--substrate", "a"]) == 2
    assert ("%s:2: substrate 'a' is defined twice" % cat) \
        in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length_mm = 60\nlength_mm = 70\n")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert ("%s:2: key 'length_mm' is set twice" % cfg) \
        in capsys.readouterr().err


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
    # the flag's length beats the file's, and the file's band the default
    band = ["--band", "1050:1250:50", "--out", str(tmp_path / "ref.csv")]
    assert main(["analyze", "--length", "63", *band]) == 0
    assert out.read_text() == (tmp_path / "ref.csv").read_text()
    assert main(["analyze", "--length", "60", *band]) == 0
    assert out.read_text() != (tmp_path / "ref.csv").read_text()


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


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_mesh_flag_does_not_carry_over(monkeypatch, capsys):
    meshes = []
    build_mesh = mom.build_mesh

    def spy(model, n=None):
        mesh = build_mesh(model, n)
        meshes.append(mesh.n)
        return mesh

    monkeypatch.setattr(mom, "build_mesh", spy)
    argv = ["analyze", "--width", "8", "--band", "1800:1800:10"]
    _stdout(argv + ["--mesh", "21"], capsys)
    _stdout(argv, capsys)
    model = mom.geometry_model(DipoleGeometry(L=67.0, W=8.0),
                               load_substrates()["fr4"])
    auto = build_mesh(model).n
    assert auto != 21
    assert meshes == [21, auto]


def test_cli_rejected_flag_leaves_the_next_call_unchanged(capsys):
    argv = ["analyze", "--band", "1800:1900:100"]
    cli._parser.cache_clear()       # the next call parses as a process's first
    first = _stdout(argv, capsys)
    assert main(["analyze", "--gap", "3"]) == 2
    capsys.readouterr()
    assert _stdout(argv, capsys) == first


def test_cli_config_values_do_not_carry_over(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length_mm = 60\nz0_ohm = 75\n")
    argv = ["analyze", "--band", "1800:1900:100"]
    plain = _stdout(argv, capsys)
    assert _stdout(argv + ["--config", str(cfg)], capsys) != plain
    assert _stdout(argv, capsys) == plain


@pytest.mark.parametrize("named_by", ["--catalog", "catalog"])
def test_cli_rereads_a_named_catalog_on_every_call(named_by, tmp_path,
                                                   capsys):
    cat = tmp_path / "cat.txt"
    argv = ["design", "--substrate", "mine"]
    if named_by == "--catalog":
        argv += ["--catalog", str(cat)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = %s\n" % (named_by, cat))
        argv += ["--config", str(cfg)]
    cat.write_text("mine,4.3,1.6\n")
    assert "eps_e=2.6500 " in _stdout(argv, capsys)
    cat.write_text("mine,2.2,0.8\n")
    assert "eps_e=1.6000 " in _stdout(argv, capsys)


def test_cli_empty_catalog_path_is_not_the_bundled_catalog(capsys):
    assert main(["design", "--catalog", ""]) == 5
    assert capsys.readouterr().err.startswith("i/o error: ")


@pytest.mark.parametrize("argv, violated", [
    # w/h exceeds the hard 20:1 restriction on every route to a solve
    (["analyze", "--length", "300", "--width", "64", "--band", "1050:1150:50"],
     "w_over_h"),
    (["pattern", "--length", "700", "--width", "33"], "w_over_h"),
    (["optimize", "--width", "33", "--opt-low", "250", "--opt-high", "500",
      "--freq", "300"], "w_over_h"),
    (["pattern", "--length=1e10", "--width=1e-300"], "w_over_h, t_over_w"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_exit_code_design_rule(argv, violated, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "design-rule violation: geometry violates restriction(s): %s\n"
        % violated)


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
    ["pattern", "--freq=1e305"],                      # f in Hz overflows
    ["analyze", "--band", "1000:2000"],               # no step
    ["study-length", "--lengths", ","],               # empty list
    ["study-length", "--lengths", "63,,65"],          # empty entry
    ["study-length", "--lengths", "63,65,"],
    ["pattern", "--plane", "X"],
    ["analyze", "--substrate", "4.3:1.6:0.002"],      # inline takes two
], ids=" ".join)
def test_cli_bad_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(argv, code, err, id=" ".join(argv)) for argv, code, err in [
        (["analyze", "--band", "1700:1900:100", "--bw-threshold", "-1e-3"],
         0, ""),
        (["analyze", "--z0", "-5e1"], 2,
         "config error: reference impedance must be finite and > 0, "
         "got -50\n"),
        (["analyze", "--band", "-1e3:2600:10"], 2,
         "config error: frequency must be finite and > 0, got -1e+09\n"),
        (["study-length", "--band", "1700:1900:100", "--lengths", "-1e1,60"],
         0, ""),
    ]])
def test_cli_negative_exponent_value_parses_like_the_equals_form(
        argv, code, err, capsys):
    # argparse takes -1e-3, -1e3:2600:10 or -1e1,60 for a flag; after its
    # flag it is that flag's value, as in --flag=-1e-3
    joined = argv[:-2] + ["%s=%s" % tuple(argv[-2:])]
    outputs = []
    for form in (argv, joined):
        assert main(form) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == err


@pytest.mark.parametrize("argv, guard", [
    pytest.param(argv, guard, id=" ".join(argv)) for argv, guard in [
        (["pattern", "--freq=1e-300"], "sin(kh) underflows"),
        (["pattern", "--length=1e308", "--width=1"], "L/a overflows"),
        (["pattern", "--length=3.6894994835786546e289", "--width=6",
          "--freq=1.3e23"], "k*R overflows"),
    ]])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_degenerate_solves_exit_4(argv, guard, capsys):
    # each case is refused by the guard it is paired with
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: ")
    assert guard in err


def test_cli_sweep_error_names_its_frequency(capsys):
    assert main(["analyze", "--band", "1e-300:1e-300:1"]) == 4
    assert capsys.readouterr().err.startswith(
        "solver error: at 1e-294 Hz: sin(kh) underflows")


@pytest.mark.parametrize("argv, named", [
    (["analyze", "--mesh", "11", "--band", "7000:8000:500"], 13),
    (["analyze", "--band", "13000:14000:1000"], 23),   # automatic n = 21
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_segments_over_a_quarter_wavelength_exit_4(argv, named, capsys):
    # 67 x 6 mm on FR4: the band's top sample has h > lambda_e/4, and the
    # refusal names the smallest odd n that passes there and the highest f
    # the mesh in use (n - 2) resolves
    resolved = {13: r"7\.221e\+09", 23: r"1\.323e\+10"}[named]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"solver error: at \S+ Hz: h = \S+ mm > lambda_e/4 = "
                        r"\S+ mm; use n >= %d, or f <= %s Hz at n = %d\n"
                        % (named, resolved, named - 2), captured.err)


def test_cli_quarter_wavelength_refusal_names_a_frequency_that_solves(capsys):
    # pattern takes no --mesh, so the frequency the refusal names is the
    # one remedy it can act on; printed rounded down, it solves
    assert main(["pattern", "--freq=14000"]) == 4
    err = capsys.readouterr().err
    f_hz = re.fullmatch(r"solver error: .*, or f <= (\S+) Hz at n = 21\n",
                        err).group(1)
    assert main(["pattern", "--freq=%r" % (float(f_hz) / 1e6)]) == 0


@pytest.mark.parametrize("argv, code, err", [
    (["pattern", "--freq=-1800"], 2,
     "config error: frequency must be finite and > 0, got -1.8e+09\n"),
    (["optimize", "--freq=-1800"], 2,
     "config error: frequency must be finite and > 0, got -1.8e+09\n"),
    (["pattern", "--freq=-1800", "--length=300", "--width=64"], 3,
     "design-rule violation: geometry violates restriction(s): w_over_h\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_bad_frequency_is_refused_before_any_mesh(argv, code, err,
                                                      monkeypatch, capsys):
    # the design rules first, then the frequency, then the mesh
    built = []
    build_mesh = mom.build_mesh

    def counted(*args):
        built.append(args)
        return build_mesh(*args)

    for module in (mom, studies):
        monkeypatch.setattr(module, "build_mesh", counted)
    assert main([argv[0]]) == 0
    assert built   # the wrapper sees the command's meshes
    built.clear()
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert built == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--band", "1e-300:1e-300:1"],
    ["study-width", "--band", "1e-300:1e-300:1"],
    ["pattern", "--freq=1e-300"],
    ["optimize", "--freq=1e-300"],
], ids=" ".join)
def test_cli_solver_errors_name_the_frequency_once(argv, capsys):
    # a sweep, each study row, a pattern and an optimizer step
    main(argv)
    captured = capsys.readouterr()
    lines = [line for line in (captured.out + captured.err).splitlines()
             if "underflows" in line]
    assert lines
    for line in lines:
        assert "at 1e-294 Hz: sin(kh) underflows" in line
        assert line.count("Hz") == 1


@pytest.mark.parametrize("argv, code, first", [
    (["study-width", "--band", "1e-300:1e-300:1"], 4,
     "solver error: at 1e-294 Hz: sin(kh) underflows"),
    (["study-length", "--band", "1e-300:1e-300:1"], 4,
     "solver error: at 1e-294 Hz: sin(kh) underflows"),
    (["study-width", "--length", "300", "--widths", "64,70"], 3,
     "design-rule violation: geometry violates restriction(s): w_over_h"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cli_all_error_study_exits_with_the_first_rows_code(argv, code, first,
                                                              capsys):
    # the table and the summary line are still written
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "param_mm,r_ohm,x_ohm,vswr,rl_db,bw_pct,directivity_dbi"
    assert all(",error," in line for line in lines[1:-1])
    assert lines[-1].endswith("all %d rows failed" % (len(lines) - 2))
    assert captured.err.startswith(first)


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
        resolve_substrate(RunConfig(substrate="inf:1.6"))


def test_inline_substrate_pair_solves_as_the_catalog_substrate(tmp_path):
    # eps_r and h are all the model reads of a substrate
    csv = []
    for substrate in ("fr4", "4.3:1.6"):
        out = tmp_path / ("%d.csv" % len(csv))
        assert main(["analyze", "--substrate", substrate, "--out",
                     str(out)]) == 0
        csv.append(out.read_bytes())
    assert csv[0] == csv[1]


def test_cli_substrate_with_a_third_field_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("old,4.3,1.6,0.002\n")
    for argv, where in (
            (["--substrate", "4.3:1.6:0.002"],
             "inline substrate '4.3:1.6:0.002'"),
            (["--catalog", str(cat), "--substrate", "old"], "%s:1" % cat)):
        assert main(["analyze"] + argv) == 2
        assert capsys.readouterr().err == ("config error: %s: expected 2 "
                                           "fields eps_r, h_mm, got 3\n"
                                           % where)


#: why a substrate with a non-finite eps_r or h is refused, by (eps_r, h)
_NON_FINITE_REASON = {("nan", "1.6"): "eps_r must be finite and >= 1, got nan",
                      ("4.3", "inf"): "h must be finite and > 0, got inf"}


@pytest.mark.parametrize("line", ["bad,nan,1.6", "infh,4.3,inf"])
def test_cli_catalog_rejects_non_finite_values(line, tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text(line + "\n")
    name, eps_r, h = line.split(",")
    reason = _NON_FINITE_REASON[eps_r, h]
    for command in ("pattern", "analyze"):
        assert main([command, "--catalog", str(cat), "--substrate", name]) == 2
        assert ":1: %s\n" % reason in capsys.readouterr().err


@pytest.mark.parametrize("eps_r, h", list(_NON_FINITE_REASON))
def test_catalog_and_inline_substrates_are_refused_alike(eps_r, h, tmp_path,
                                                         capsys):
    # one reader: each error names its place and gives the same reason
    cat = tmp_path / "cat.txt"
    cat.write_text("bad,%s,%s\n" % (eps_r, h))
    inline = "%s:%s" % (eps_r, h)
    reason = _NON_FINITE_REASON[eps_r, h]
    assert main(["design", "--catalog", str(cat), "--substrate", "bad"]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:1: %s\n" % (cat, reason))
    assert main(["design", "--substrate", inline]) == 2
    assert capsys.readouterr().err == (
        "config error: inline substrate %r: %s\n" % (inline, reason))


@pytest.mark.parametrize("command", ["analyze", "pattern", "study-length",
                                     "study-width", "optimize"])
def test_cli_rejects_unmodelled_feed(command, tmp_path, capsys):
    # --feed is design's alone, so even an ideal one is refused here
    for feed in ("stub", "ideal"):
        assert main([command, "--feed", feed]) == 2
        assert "the solver models only an ideal center feed" \
            in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("feed = via\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "the solver models only an ideal center feed" \
        in capsys.readouterr().err
    assert main([command, *_SMALL[command]]) == 0


@pytest.mark.parametrize("key, text, reason", [
    ("feed", "bogus", "feed must be one of ideal|stub|via"),
    ("band_mhz", "1000:900:10", "f_start must be <= f_stop"),   # the library's
    ("lengths_mm", "63,,65", "could not convert string to float: ''"),
])
def test_flag_and_config_give_the_same_reason(key, text, reason, tmp_path,
                                              capsys):
    flag = next(f.metadata["flag"] for f in fields(RunConfig) if f.name == key)
    assert main(["analyze", flag, text]) == 2
    assert reason in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (key, text))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err


def test_cli_design_keeps_feed_styles(capsys):
    # each --feed name is the library's feed style of that name
    fr4 = load_substrates()["fr4"]
    for feed in ("ideal", "stub", "via"):
        assert main(["design", "--feed", feed]) == 0
        g = synthesize_geometry(fr4, 1.8e9, feed_style=feed).geometry
        assert "geometry: L=%.4f mm W=%.4f mm " % (g.L, g.W) \
            in capsys.readouterr().out


_ANY_FLOAT = st.one_of(st.floats(), st.floats(-100.0, 5000.0))
_FLAGS = {f.name: f.metadata["flag"] for f in fields(RunConfig)}


def _own_argv(command, **texts):
    """`command` with those of the options given that it reads."""
    return [command] + ["%s=%s" % (_FLAGS[name], text)
                        for name, text in texts.items()
                        if name in _READS[command]]


def _checkmain(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()
    assert " takes no " not in err.getvalue()   # only the command's options


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["analyze", "pattern", "optimize"]),
       length=_ANY_FLOAT, width=_ANY_FLOAT, z0=_ANY_FLOAT, freq=_ANY_FLOAT,
       bw_threshold=_ANY_FLOAT)
@example(command="pattern", length=3.6894994835786546e289,   # k*R overflows
         width=6.0, z0=50.0, freq=1.3e23, bw_threshold=-10.0)
@example(command="pattern", length=67.0, width=6.0, z0=50.0,  # sin^2(kh)
         freq=1e-150, bw_threshold=-10.0)                     # is subnormal
@example(command="analyze", length=67.0, width=6.0, z0=50.0,  # each command
         freq=1800.0, bw_threshold=-10.0)                     # solves
@example(command="pattern", length=67.0, width=6.0, z0=50.0,
         freq=1800.0, bw_threshold=-10.0)
@example(command="optimize", length=67.0, width=6.0, z0=50.0,
         freq=1800.0, bw_threshold=-10.0)
def test_cli_exit_codes_hold_for_any_value(command, length, width, z0, freq,
                                           bw_threshold):
    # a fixed 3-point band and the automatic mesh keep every solve small
    _checkmain(_own_argv(
        command, band_mhz="1700:1900:100", length_mm=repr(length),
        width_mm=repr(width), z0_ohm=repr(z0), freq_mhz=repr(freq),
        bw_threshold_db=repr(bw_threshold)))


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(list(_READS)),
       band=_ANY_FLOAT, length=_ANY_FLOAT, width=_ANY_FLOAT, z0=_ANY_FLOAT,
       freq=_ANY_FLOAT, bw_threshold=_ANY_FLOAT)
@example(command="analyze", band=1.7e308, length=67.0, width=6.0,  # f in Hz
         z0=50.0, freq=1800.0, bw_threshold=-10.0)                # overflows
@example(command="study-length", band=1.7e308, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
@example(command="design", band=1800.0, length=67.0, width=6.0,  # each command
         z0=50.0, freq=1800.0, bw_threshold=-10.0)               # solves
@example(command="analyze", band=1800.0, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
@example(command="pattern", band=1800.0, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
@example(command="study-length", band=1800.0, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
@example(command="study-width", band=1800.0, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
@example(command="optimize", band=1800.0, length=67.0, width=6.0,
         z0=50.0, freq=1800.0, bw_threshold=-10.0)
def test_cli_exit_codes_hold_for_any_band(command, band, length, width, z0,
                                          freq, bw_threshold):
    # a one-point band and the automatic mesh keep every solve small
    _checkmain(_own_argv(
        command, band_mhz="%r:%r:1" % (band, band), length_mm=repr(length),
        width_mm=repr(width), z0_ohm=repr(z0), freq_mhz=repr(freq),
        bw_threshold_db=repr(bw_threshold)))
