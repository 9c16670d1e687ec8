import math

import pytest
from hypothesis import given, strategies as st

from dipolekit.design import (
    C_MM_PER_S,
    DipoleGeometry,
    RuleCheckResult,
    Substrate,
    check_design_rules,
    eps_eff_average,
    eps_eff_microstrip,
    free_space_wavelength,
    guided_wavelength,
    half_wave_length,
    load_substrates,
    parse_catalog,
    stub_fed_length,
    synthesize_geometry,
    via_fed_length,
)
from dipolekit.errors import ConfigError, DesignRuleError

FR4 = Substrate("fr4", 4.3, 1.6, 0.002)


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
        Substrate("bad", 0.5, 1.6, 0.0)
    with pytest.raises(ValueError):
        Substrate("bad", 4.3, -1.0, 0.0)
    with pytest.raises(ValueError):
        Substrate("bad", 4.3, 1.6, 1.5)


@pytest.mark.parametrize("eps_r, h", [(math.nan, 1.6), (math.inf, 1.6),
                                      (4.3, math.nan), (4.3, math.inf)])
def test_substrate_must_be_finite(eps_r, h):
    with pytest.raises(ValueError, match="eps_r and h must be finite"):
        Substrate("x", eps_r, h)


def test_geometry_validation():
    with pytest.raises(ValueError):
        DipoleGeometry(L=0, W=6)
    with pytest.raises(ValueError):
        DipoleGeometry(L=67, W=6, g=70)
    with pytest.raises(ValueError):
        DipoleGeometry(L=67, W=6, feed_style="magic")


def test_synthesize_fr4():
    r = synthesize_geometry(FR4, 1.8e9)
    assert r.eps_e == pytest.approx(2.65)
    assert r.lambda_d == pytest.approx(102.31169056280412, rel=1e-12)
    assert r.geometry.L == pytest.approx(51.15584528140206, rel=1e-12)
    assert r.geometry.W == pytest.approx(0.06 * r.lambda_d)
    assert r.recommended_h == pytest.approx(0.02 * r.lambda_d)


def test_synthesize_feed_styles():
    # frozen: fringing eps_e at the synthesized width sets the feed lengths
    stub = synthesize_geometry(FR4, 1.8e9, feed_style="open_stub")
    via = synthesize_geometry(FR4, 1.8e9, feed_style="via_hole")
    assert stub.geometry.L == pytest.approx(67.1332, abs=1e-3)
    assert via.geometry.L == pytest.approx(59.6739, abs=1e-3)


def test_synthesize_refuses_an_unknown_feed_style():
    with pytest.raises(ValueError, match="feed_style must be one of"):
        synthesize_geometry(FR4, 1.8e9, feed_style="magic")


def test_synthesize_checks_the_frequency_before_the_feed_style():
    with pytest.raises(ValueError, match="frequency must be"):
        synthesize_geometry(FR4, 0.0, feed_style="magic")


def test_check_design_rules_table_iii():
    rules = check_design_rules(DipoleGeometry(L=67, W=6, g=3), FR4, 1.8e9)
    assert len(rules.entries) == 8
    assert rules.ok
    by_name = {e.rule: e for e in rules.entries}
    assert by_name["w_over_h"].status == "pass"
    assert by_name["eps_min"].status == "pass"


def test_check_design_rules_violation():
    thick = DipoleGeometry(L=67, W=6, g=3, T=4.0)
    rules = check_design_rules(thick, FR4, 1.8e9)
    assert not rules.ok
    assert any(e.rule == "t_over_w" for e in rules.violations)


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
    rules = check_design_rules(DipoleGeometry(L=67, W=6, g=3), FR4, 1.8e9)
    assert rules.raise_violations() is None


def test_synthesize_refuses_with_the_one_rule_message():
    thin = Substrate("inline", 4.3, 0.01, 0.0)
    with pytest.raises(DesignRuleError, match=r"^geometry violates "
                       r"restriction\(s\): w_over_h, t_over_h$"):
        synthesize_geometry(thin, 1.8e9)


def test_parse_catalog():
    cat = parse_catalog("# comment\nfoo,4.3,1.6,0.002\n\nbar,2.2,0.8,0\n")
    assert set(cat) == {"foo", "bar"}
    assert cat["foo"].eps_r == 4.3


def test_parse_catalog_errors():
    with pytest.raises(ConfigError, match="line 2|:2"):
        parse_catalog("foo,4.3,1.6,0.002\nbar,notanumber,1,0\n")
    with pytest.raises(ConfigError):
        parse_catalog("only,two\n")


@pytest.mark.parametrize("line", ["bad,nan,1.6,0", "infh,4.3,inf,0"])
def test_parse_catalog_rejects_non_finite_values(line):
    with pytest.raises(ConfigError,
                       match="^cat:2: eps_r and h must be finite$"):
        parse_catalog("fr4,4.3,1.6,0.002\n" + line + "\n", source="cat")


def test_bundled_catalog():
    cat = load_substrates()
    assert "fr4" in cat
    assert cat["fr4"].eps_r == 4.3
    assert cat["fr4"].h == 1.6


def test_catalog_env_var(tmp_path, monkeypatch):
    p = tmp_path / "cat.txt"
    p.write_text("custom,3.5,1.0,0.001\n")
    monkeypatch.setenv("DIPOLEKIT_SUBSTRATES", str(p))
    cat = load_substrates()
    assert set(cat) == {"custom"}
