import inspect
import math
import re
import types
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from dipolekit import design
from dipolekit.design import (
    C_MM_PER_S,
    DipoleGeometry,
    RuleCheckResult,
    Substrate,
    check_design_rules,
    check_restrictions,
    eps_eff_average,
    eps_eff_microstrip,
    free_space_wavelength,
    guided_wavelength,
    half_wave_length,
    load_substrates,
    parse_catalog,
    parse_substrate,
    stub_fed_length,
    synthesize_geometry,
    via_fed_length,
)
from dipolekit.errors import ConfigError, DesignRuleError
from dipolekit.metrics import check_z0
from dipolekit.microstrip import FeedLineSpec, synth_width_for_z0
from dipolekit.mom import WireModel, frequency_grid, strip_to_wire

FR4 = Substrate("fr4", 4.3, 1.6)


def test_speed_of_light_mm():
    assert C_MM_PER_S == 2.99792458e11


def test_free_space_wavelength_1800mhz():
    # frozen: c / 1.8e9 in mm
    assert free_space_wavelength(1.8e9) == pytest.approx(
        166.55136555555555, abs=1e-9)


@pytest.mark.parametrize("f", [0.0, -1.0, math.inf, math.nan])
def test_free_space_wavelength_needs_a_finite_positive_frequency(f):
    with pytest.raises(ValueError, match="finite and > 0"):
        free_space_wavelength(f)


def test_eps_eff_average():
    assert eps_eff_average(4.3) == pytest.approx(2.65)
    assert eps_eff_average(1.0) == 1.0


def test_eps_eff_microstrip_frozen():
    # frozen against an independent evaluation of the fringing formula
    assert eps_eff_microstrip(4.3, 6.0, 1.6) == pytest.approx(
        3.45511756018254, rel=1e-12)
    # w = 12h/143 special case lands on a round number: sqrt(1+12h/w)=12
    assert eps_eff_microstrip(4.3, 5.0, 1.6) == pytest.approx(
        (5.3 / 2) + (3.3 / 2) / math.sqrt(1 + 12 * 1.6 / 5.0), rel=1e-12)


@given(st.floats(1.0, 12.0), st.floats(0.5, 30.0), st.floats(0.1, 5.0))
def test_eps_eff_microstrip_bounds(eps_r, w, h):
    e = eps_eff_microstrip(eps_r, w, h)
    assert eps_eff_average(eps_r) <= e <= eps_r + 1e-12


@given(st.floats(1.0, 12.0), st.floats(0.5, 30.0), st.floats(0.1, 5.0))
def test_eps_eff_monotone_in_width(eps_r, w, h):
    assert eps_eff_microstrip(eps_r, w * 1.01, h) >= eps_eff_microstrip(
        eps_r, w, h)


def test_length_rules():
    lam = 90.0
    assert half_wave_length(lam) == 45.0
    assert stub_fed_length(lam) == 67.5
    assert via_fed_length(lam) == 60.0


def test_guided_wavelength():
    assert guided_wavelength(1.8e9, 2.65) == pytest.approx(
        free_space_wavelength(1.8e9) / math.sqrt(2.65))


def test_substrate_validation():
    with pytest.raises(ValueError):
        Substrate("bad", 0.5, 1.6)
    with pytest.raises(ValueError):
        Substrate("bad", 4.3, -1.0)


@pytest.mark.parametrize("eps_r, h", [(math.nan, 1.6), (math.inf, 1.6),
                                      (4.3, math.nan), (4.3, math.inf)])
def test_substrate_must_be_finite(eps_r, h):
    name = "h" if math.isfinite(eps_r) else "eps_r"
    with pytest.raises(ValueError, match="^%s must be finite and " % name):
        Substrate("x", eps_r, h)


def test_geometry_validation():
    with pytest.raises(ValueError):
        DipoleGeometry(L=0, W=6)
    with pytest.raises(ValueError, match="^T must be finite and >= 0, "
                       "got -0.1$"):
        DipoleGeometry(L=67, W=6, T=-0.1)


def test_geometry_thickness_is_keyword_only():
    # a third positional argument, once the gap, cannot become T
    with pytest.raises(TypeError):
        DipoleGeometry(67, 6, 0.035)
    assert DipoleGeometry(67, 6, T=0.035) == DipoleGeometry(L=67, W=6)


@pytest.mark.parametrize("rule, args, reason", [
    (eps_eff_average, (0.5,), "eps_r must be finite and >= 1, got 0.5"),
    (eps_eff_microstrip, (0.5, 3.0, 1.6),
     "eps_r must be finite and >= 1, got 0.5"),
    (eps_eff_microstrip, (4.3, 0.0, 1.6), "w must be finite and > 0, got 0"),
    (eps_eff_microstrip, (4.3, 3.0, -1.6),
     "h must be finite and > 0, got -1.6"),
    (guided_wavelength, (1.8e9, 0.5), "eps_e must be finite and >= 1, got 0.5"),
    (half_wave_length, (0.0,), "wavelength must be finite and > 0, got 0"),
    (stub_fed_length, (-1.0,), "wavelength must be finite and > 0, got -1"),
    (via_fed_length, (0.0,), "wavelength must be finite and > 0, got 0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_sizing_rules_reject_out_of_domain_inputs(rule, args, reason):
    with pytest.raises(ValueError, match="^%s$" % reason):
        rule(*args)


#: each range-checked value: a call that takes x as that value alone, the
#: name its refusal gives and the range it states, "> 0" for (0, inf) and
#: ">= v" for [v, inf)
_GUARDED_VALUES = {
    "Substrate.eps_r": (lambda x: Substrate("s", x, 1.6), "eps_r", ">= 1"),
    "Substrate.h": (lambda x: Substrate("s", 4.3, x), "h", "> 0"),
    "DipoleGeometry.L": (lambda x: DipoleGeometry(L=x, W=6.0), "L", "> 0"),
    "DipoleGeometry.W": (lambda x: DipoleGeometry(L=67.0, W=x), "W", "> 0"),
    "DipoleGeometry.T": (lambda x: DipoleGeometry(L=67.0, W=6.0, T=x), "T",
                         ">= 0"),
    "eps_eff_average": (eps_eff_average, "eps_r", ">= 1"),
    "eps_eff_microstrip.eps_r": (lambda x: eps_eff_microstrip(x, 3.0, 1.6),
                                 "eps_r", ">= 1"),
    "eps_eff_microstrip.w": (lambda x: eps_eff_microstrip(4.3, x, 1.6), "w",
                             "> 0"),
    "eps_eff_microstrip.h": (lambda x: eps_eff_microstrip(4.3, 3.0, x), "h",
                             "> 0"),
    "guided_wavelength.f": (lambda x: guided_wavelength(x, 2.65),
                            "frequency", "> 0"),
    "guided_wavelength.eps_e": (lambda x: guided_wavelength(1.8e9, x),
                                "eps_e", ">= 1"),
    "half_wave_length": (half_wave_length, "wavelength", "> 0"),
    "stub_fed_length": (stub_fed_length, "wavelength", "> 0"),
    "via_fed_length": (via_fed_length, "wavelength", "> 0"),
    "WireModel.total_length": (lambda x: WireModel(x, 1.5), "total_length",
                               "> 0"),
    "WireModel.radius": (lambda x: WireModel(67.0, x), "radius", "> 0"),
    "WireModel.eps_e": (lambda x: WireModel(67.0, 1.5, x), "eps_e", ">= 1"),
    "strip_to_wire": (strip_to_wire, "W", "> 0"),
    "frequency_grid.f_step": (lambda x: frequency_grid(1e9, 2e9, x),
                              "f_step", "> 0"),
    "FeedLineSpec.w": (lambda x: FeedLineSpec(x, 1.6, 50.0, 23.0), "w",
                       "> 0"),
    "FeedLineSpec.h": (lambda x: FeedLineSpec(3.0, x, 50.0, 23.0), "h",
                       "> 0"),
    "FeedLineSpec.z0": (lambda x: FeedLineSpec(3.0, 1.6, x, 23.0), "z0",
                        "> 0"),
    "FeedLineSpec.stub_length": (lambda x: FeedLineSpec(3.0, 1.6, 50.0, x),
                                 "stub_length", "> 0"),
    "synth_width_for_z0": (lambda x: synth_width_for_z0(x, FR4),
                           "target impedance", "> 0"),
    "check_z0": (check_z0, "reference impedance", "> 0"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "boundary"])
@pytest.mark.parametrize("where", _GUARDED_VALUES)
def test_each_guarded_value_is_refused_in_one_form(where, value):
    # the boundary is 0 for "> 0" and the double just below v for ">= v"
    call, name, rule = _GUARDED_VALUES[where]
    op, low = rule.split()
    x = float(value) if value != "boundary" else (
        0.0 if op == ">" else math.nextafter(float(low), -math.inf))
    reason = "%s must be finite and %s, got %g" % (name, rule, x)
    with pytest.raises(ValueError, match="^%s$" % re.escape(reason)):
        call(x)


def test_synthesize_fr4():
    r = synthesize_geometry(FR4, 1.8e9)
    assert r.eps_e == pytest.approx(2.65)
    assert r.lambda_d == pytest.approx(102.31169056280412, rel=1e-12)
    assert r.geometry.L == pytest.approx(51.15584528140206, rel=1e-12)
    assert r.geometry.W == pytest.approx(0.06 * r.lambda_d)
    assert r.recommended_h == pytest.approx(0.02 * r.lambda_d)


def test_synthesized_geometry_has_the_default_thickness():
    # the one thickness synthesis uses; DipoleGeometry.T still moves rules
    assert "T" not in inspect.signature(synthesize_geometry).parameters
    for style in ("ideal", "stub", "via"):
        assert synthesize_geometry(FR4, 1.8e9, style).geometry.T \
            == design.DEFAULT_T_MM


def test_synthesize_feed_styles():
    # frozen: fringing eps_e at the synthesized width sets the feed lengths
    stub = synthesize_geometry(FR4, 1.8e9, feed_style="stub")
    via = synthesize_geometry(FR4, 1.8e9, feed_style="via")
    assert stub.geometry.L == pytest.approx(67.1332, abs=1e-3)
    assert via.geometry.L == pytest.approx(59.6739, abs=1e-3)


def test_geometry_holds_only_dimensions():
    # the feed style is an argument of synthesis, not a geometry field
    assert [f.name for f in fields(DipoleGeometry)] == ["L", "W", "T"]


@pytest.mark.parametrize("style", ["ideal", "stub", "via"])
def test_synthesis_returns_the_rule_table_it_enforced(style):
    r = synthesize_geometry(FR4, 1.8e9, style)
    assert r.rules == check_design_rules(r.geometry, FR4, 1.8e9)
    assert r.rules.ok


def test_synthesize_refuses_an_unknown_feed_style():
    # the CLI's --feed names are the only ones, the old long names included
    for style in ("magic", "ideal_center", "open_stub", "via_hole"):
        with pytest.raises(ValueError, match="feed_style must be one of"):
            synthesize_geometry(FR4, 1.8e9, feed_style=style)


def test_synthesize_checks_the_frequency_before_the_feed_style():
    with pytest.raises(ValueError, match="frequency must be"):
        synthesize_geometry(FR4, 0.0, feed_style="magic")


def test_check_design_rules_table_iii():
    rules = check_design_rules(DipoleGeometry(L=67, W=6), FR4, 1.8e9)
    assert len(rules.entries) == 8
    assert rules.ok
    by_name = {e.rule: e for e in rules.entries}
    assert by_name["w_over_h"].status == "pass"
    assert by_name["eps_min"].status == "pass"


def test_check_design_rules_violation():
    thick = DipoleGeometry(L=67, W=6, T=4.0)
    rules = check_design_rules(thick, FR4, 1.8e9)
    assert not rules.ok
    assert any(e.rule == "t_over_w" for e in rules.violations)


@pytest.mark.parametrize("f", [0.3e9, 1.8e9, 5e9])
@pytest.mark.parametrize("geometry", [
    DipoleGeometry(L=67, W=6),
    DipoleGeometry(L=67, W=0.01, T=4.0),
    DipoleGeometry(L=700, W=33),
], ids=["ok", "three_violations", "w_over_h"])
def test_check_restrictions_are_the_frequency_free_rows_of_the_table(f,
                                                                     geometry):
    # the four restrictions read no wavelength: the table's last four rows,
    # after the four recommendations at f
    table = check_design_rules(geometry, FR4, f).entries
    restrictions = check_restrictions(geometry, FR4)
    assert restrictions.entries == table[4:]
    assert [e.kind for e in table] == (["recommendation"] * 4
                                       + ["restriction"] * 4)
    assert restrictions.violations == check_design_rules(geometry, FR4,
                                                         f).violations


def test_raise_violations_names_each_restriction_in_table_order():
    rules = check_design_rules(DipoleGeometry(L=67, W=0.01, T=4.0), FR4, 1.8e9)
    names = "w_over_h, t_over_w, t_over_h"
    with pytest.raises(DesignRuleError, match=r"^geometry violates "
                       r"restriction\(s\): %s$" % names):
        rules.raise_violations()
    reordered = RuleCheckResult(entries=rules.entries[::-1])
    with pytest.raises(DesignRuleError, match="t_over_h, t_over_w, w_over_h$"):
        reordered.raise_violations()


def test_raise_violations_passes_an_ok_result():
    rules = check_design_rules(DipoleGeometry(L=67, W=6), FR4, 1.8e9)
    assert rules.raise_violations() is None


def test_synthesize_refuses_with_the_one_rule_message():
    thin = Substrate("inline", 4.3, 0.01)
    with pytest.raises(DesignRuleError, match=r"^geometry violates "
                       r"restriction\(s\): w_over_h, t_over_h$"):
        synthesize_geometry(thin, 1.8e9)


def test_parse_catalog():
    cat = parse_catalog("# comment\nfoo,4.3,1.6\n\nbar,2.2,0.8\n")
    assert set(cat) == {"foo", "bar"}
    assert cat["foo"].eps_r == 4.3


def test_parse_catalog_errors():
    with pytest.raises(ConfigError, match="line 2|:2"):
        parse_catalog("foo,4.3,1.6\nbar,notanumber,1\n")
    with pytest.raises(ConfigError):
        parse_catalog("only,two\n")


def test_parse_catalog_refuses_a_repeated_name():
    with pytest.raises(ConfigError,
                       match="^cat:3: substrate 'a' is defined twice$"):
        parse_catalog("a,4.3,1.6\nb,3,1\na,2.2,1\n", source="cat")


@pytest.mark.parametrize("line, reason", [
    pytest.param("bad,nan,1.6", "eps_r must be finite and >= 1, got nan",
                 id="bad,nan,1.6"),
    pytest.param("infh,4.3,inf", "h must be finite and > 0, got inf",
                 id="infh,4.3,inf")])
def test_parse_catalog_rejects_non_finite_values(line, reason):
    with pytest.raises(ConfigError, match="^cat:2: %s$" % reason):
        parse_catalog("fr4,4.3,1.6\n" + line + "\n", source="cat")


@pytest.mark.parametrize("fields, reason", [
    (["4.3"], "expected 2 fields eps_r, h_mm, got 1"),
    (["4.3", "1.6", "0.002"], "expected 2 fields eps_r, h_mm, got 3"),
    (["4.3", "thick"], "could not convert string to float: 'thick'"),
    (["0.5", "1.6"], "eps_r must be finite and >= 1, got 0.5"),
    (["4.3", "nan"], "h must be finite and > 0, got nan"),
])
def test_parse_substrate_names_its_place_and_reason(fields, reason):
    with pytest.raises(ConfigError) as info:
        parse_substrate("s", fields, "here")
    assert str(info.value) == "here: " + reason
    assert isinstance(info.value.__cause__, ValueError)


def test_parse_substrate_reads_text_fields():
    assert parse_substrate("fr4", [" 4.3", "1.6 "], "x") == FR4


def test_bundled_catalog():
    cat = load_substrates()
    assert "fr4" in cat
    assert cat["fr4"].eps_r == 4.3
    assert cat["fr4"].h == 1.6


def test_load_substrates_ignores_the_environment(tmp_path, monkeypatch):
    # a catalog is named by its path alone, never by an environment variable
    p = tmp_path / "cat.txt"
    p.write_text("custom,3.5,1.0\n")
    bundled = load_substrates()
    monkeypatch.setenv("DIPOLEKIT_SUBSTRATES", str(p))
    assert load_substrates() == bundled
    assert set(load_substrates(str(p))) == {"custom"}


def test_load_substrates_returns_a_new_dict():
    first = load_substrates()
    del first["fr4"]
    first["mine"] = FR4
    second = load_substrates()
    assert "fr4" in second and "mine" not in second
    assert load_substrates() is not second


def test_bundled_catalog_is_read_once(monkeypatch):
    reads = []
    real_files = design.resources.files

    def files(package):
        reads.append(package)
        return real_files(package)

    monkeypatch.setattr(design, "resources",
                        types.SimpleNamespace(files=files))
    design._bundled_catalog.cache_clear()
    catalogs = [load_substrates() for _ in range(3)]
    assert reads == ["dipolekit"]
    assert catalogs[0] == catalogs[2]
