"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
failure output) and then asserts. Criteria 4, 5b and 6 compare a full-wave
reference/measured behavior against the simplified solver and are expected
to stay red; see the failure text for the measured-vs-required numbers.
"""

import math

import numpy as np
import pytest

import dipolekit as dk
from dipolekit.cli import main
from dipolekit.farfield import directivity_from_intensity, hpbw_from_cut

FR4 = dk.Substrate("fr4", 4.3, 1.6, 0.002)
LAMBDA_18 = 166.55136555555555     # mm, free space at 1.8 GHz


def _report(criterion: str, ok: bool, detail: str) -> None:
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    assert ok, "%s: %s" % (criterion, detail)


# --- criterion 1: substrate sizing table ------------------------------------

TABLE_SUBSTRATES = [
    # (eps_r, h_mm)  ->  (eps_e, lambda_d, L, W, h_recommended), all mm
    ((4.3, 2.08), (2.65, 104.0, 52.0, 6.25, 2.08)),
    ((3.0, 2.36), (2.0, 118.0, 59.0, 7.08, 2.36)),
    ((2.2, 2.64), (1.6, 132.0, 65.88, 7.92, 2.64)),
]


def test_criterion_1_sizing_table():
    worst = 0.0
    for (eps_r, h), expected in TABLE_SUBSTRATES:
        sub = dk.Substrate("s", eps_r, h, 0.0)
        r = dk.synthesize_geometry(sub, 1.8e9)
        got = (r.eps_e, r.lambda_d, r.geometry.L, r.geometry.W,
               r.recommended_h)
        for g, e in zip(got, expected):
            worst = max(worst, abs(g - e) / e)
    ok = worst <= 0.02
    _report("criterion 1 (sizing table, 3 substrates x 5 columns)", ok,
            "max elementwise deviation %.3f%% (limit 2%%)" % (100 * worst))


# --- criterion 2: resonant-length rules with fringing eps_e -----------------

def test_criterion_2_resonant_lengths():
    eps_e = dk.eps_eff_microstrip(4.3, 6.0, 1.6)
    lam = dk.guided_wavelength(1.8e9, eps_e)
    l_stub = dk.stub_fed_length(lam)
    l_via = dk.via_fed_length(lam)
    ok = (abs(lam - 89.9) <= 0.5 and abs(l_stub - 67.0) <= 1.0
          and abs(l_via - 60.0) <= 1.0)
    _report("criterion 2 (guided wavelength and feed-style lengths)", ok,
            "lambda=%.4f mm (target 89.9+-0.5), 3/4=%.4f mm (67+-1), "
            "2/3=%.4f mm (60+-1)" % (lam, l_stub, l_via))


# --- criterion 3: published VSWR/RL row consistency --------------------------

PUBLISHED_ROWS = [
    (1.1013, -26.0), (1.05, -32.0), (1.0081, -47.8),          # length table
    (1.255, -18.95), (1.216, -20.22), (1.18, -21.6), (1.17, -22.74),  # width
]


def test_criterion_3_vswr_rl_consistency():
    worst = 0.0
    for s, rl in PUBLISHED_ROWS:
        derived = dk.return_loss_db(dk.metrics.gamma_from_vswr(s))
        worst = max(worst, abs(derived - rl))
    ok = worst <= 0.8
    _report("criterion 3 (VSWR<->RL consistency over 7 published rows)", ok,
            "max |derived - printed| = %.3f dB (limit 0.8)" % worst)


# --- criterion 4: free-space MoM oracle --------------------------------------

def _resonant_fraction():
    model_at = lambda frac: dk.WireModel(frac * LAMBDA_18, LAMBDA_18 / 1000)
    x_at = lambda frac: dk.impedance_at(model_at(frac), 1.8e9, n=41).imag
    lo, hi = 0.40, 0.52
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if x_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_mom_oracle():
    model = dk.WireModel(LAMBDA_18 / 2, LAMBDA_18 / 1000)
    z41 = dk.impedance_at(model, 1.8e9, n=41)
    z83 = dk.impedance_at(model, 1.8e9, n=83)
    conv = abs(z41 - z83) / abs(z83)
    frac = _resonant_fraction()
    ok_r = abs(z41.real - 73.0) <= 5.0
    ok_x = abs(z41.imag - 42.5) <= 8.0
    ok_res = 0.47 <= frac <= 0.49
    ok_conv = conv < 0.02
    detail = ("Z(n=41)=%.2f%+.2fj ohm (target 73+-5 / 42.5+-8), "
              "resonance at %.4f lambda (0.47..0.49), "
              "doubling change %.2f%% (<2%%)"
              % (z41.real, z41.imag, frac, 100 * conv))
    _report("criterion 4 (half-wave MoM oracle)",
            ok_r and ok_x and ok_res and ok_conv, detail)


# --- criterion 5: length and width trends ------------------------------------

def _length_resonances():
    out = []
    for L in (63.0, 65.0, 67.0):
        res = dk.sweep(dk.DipoleGeometry(L=L, W=6.0, g=3.0), FR4,
                       1.00e9, 1.30e9, 10e6)
        out.append(dk.resonant_frequency(res))
    return out


def test_criterion_5a_length_trend():
    f = _length_resonances()
    ok = f[0] > f[1] > f[2]
    _report("criterion 5a (resonance strictly falls with length 63/65/67 mm)",
            ok, "f_res = %.1f / %.1f / %.1f MHz" % tuple(x / 1e6 for x in f))


def test_criterion_5b_width_trend():
    rows = dk.width_study([5.0, 6.0, 7.0, 8.0], FR4, 1.0e9, 1.6e9, 10e6,
                          length_mm=60.0)
    bws = [r.bw_pct for r in rows]
    rls = [r.rl_db for r in rows]
    ok_bw = all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))
    ok_rl = all(r2 >= r1 for r1, r2 in zip(rls, rls[1:]))   # shallower = up
    _report("criterion 5b (width trend: BW non-decreasing, deepest RL "
            "shallower)", ok_bw and ok_rl,
            "BW% = " + "/".join("%.1f" % b for b in bws)
            + ", RL dB = " + "/".join("%.1f" % r for r in rls))


# --- criterion 6: resonance placement of the published geometry --------------

def test_criterion_6_resonance_placement():
    res = dk.sweep(dk.DipoleGeometry(L=67.0, W=6.0, g=3.0), FR4,
                   1.0e9, 2.6e9, 10e6)
    f_res = dk.resonant_frequency(res)
    ok = abs(f_res - 1.8e9) / 1.8e9 <= 0.08
    _report("criterion 6 (67x6 mm FR4 dipole resonates within 8% of 1.8 GHz)",
            ok, "first resonance at %.1f MHz (%.1f%% off 1.8 GHz)"
            % (f_res / 1e6, 100 * abs(f_res - 1.8e9) / 1.8e9))


# --- criterion 7: far-field suite --------------------------------------------

def test_criterion_7_farfield():
    theta = np.arange(0.5, 180.0, 0.5)
    u_hertz = np.sin(np.radians(theta)) ** 2
    d_hertz = 10 * math.log10(directivity_from_intensity(theta, u_hertz))
    hp = hpbw_from_cut(theta, 10 * np.log10(u_hertz / u_hertz.max()))

    model = dk.WireModel(LAMBDA_18 / 2, LAMBDA_18 / 1000)
    mesh = dk.build_mesh(model, n=41)
    cur = dk.solve_current(dk.assemble_system(mesh, 1.8e9), mesh)
    cut = dk.pattern_from_current(cur, mesh, 1.8e9)
    h_cut = dk.h_plane_cut(cut.directivity_dbi)

    ok = (abs(d_hertz - 1.76) <= 0.02
          and abs(cut.directivity_dbi - 2.15) <= 0.05
          and abs(hp - 90.0) <= 0.5
          and np.max(np.abs(h_cut.field_db)) <= 1e-9)
    _report("criterion 7 (far-field suite)", ok,
            "Hertzian D=%.4f dBi (1.76+-0.02), half-wave D=%.4f dBi "
            "(2.15+-0.05), sin-theta HPBW=%.2f deg (90+-0.5), "
            "H-plane ripple=%.1e dB (<=1e-9)"
            % (d_hertz, cut.directivity_dbi, hp,
               np.max(np.abs(h_cut.field_db))))


# --- criterion 8: optimizer ---------------------------------------------------

def test_criterion_8_optimizer():
    a = dk.optimize_length(FR4, 1.8e9, 35.0, 48.0)
    b = dk.optimize_length(FR4, 1.8e9, 35.0, 48.0)
    c = dk.optimize_for_max_rl(FR4, 1.8e9, 35.0, 48.0)
    ok = (a.iterations <= 60 and abs(a.z_in.imag) < 1.0
          and abs(a.length_mm - b.length_mm) <= 0.1
          and abs(a.length_mm - c.length_mm) <= 2.0)
    _report("criterion 8 (length optimizer)", ok,
            "L=%.4f mm in %d iterations, X=%.3f ohm, rerun delta %.4f mm, "
            "cross-method delta %.3f mm"
            % (a.length_mm, a.iterations, a.z_in.imag,
               abs(a.length_mm - b.length_mm),
               abs(a.length_mm - c.length_mm)))


# --- criterion 9: metrics round-trips -----------------------------------------

def test_criterion_9_metric_roundtrips():
    mags = np.linspace(1e-6, 1 - 1e-6, 20001)
    worst = 0.0
    for m in mags:
        worst = max(worst,
                    abs(dk.metrics.gamma_from_vswr(dk.vswr(m)) - m),
                    abs(dk.metrics.gamma_from_return_loss(
                        dk.return_loss_db(m)) - m))
    g = dk.reflection_coefficient(50.0 + 0j)
    exact = g == 0 and dk.vswr(g) == 1.0
    ok = worst <= 1e-10 and exact
    _report("criterion 9 (metric identities)", ok,
            "max round-trip error %.2e over %d points; matched load exact=%s"
            % (worst, len(mags), exact))


# --- criterion 10: CSV determinism ---------------------------------------------

def test_criterion_10_csv_determinism(tmp_path):
    jobs = [
        ["analyze", "--band", "1050:1250:50"],
        ["pattern", "--freq", "1120"],
        ["study-length", "--lengths", "63,65", "--band", "1050:1350:50"],
    ]
    ok = True
    for i, argv in enumerate(jobs):
        a = tmp_path / ("a%d.csv" % i)
        b = tmp_path / ("b%d.csv" % i)
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _report("criterion 10 (CSV determinism across reruns)", ok,
            "%d command pairs byte-compared" % len(jobs))
