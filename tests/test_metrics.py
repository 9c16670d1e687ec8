import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dipolekit.errors import NonPassiveError, NoResonanceError
from dipolekit.metrics import (
    BandwidthResult,
    SweepResult,
    check_bw_threshold,
    fractional_bandwidth,
    gamma_from_return_loss,
    gamma_from_vswr,
    level_crossings,
    reflection_coefficient,
    resonant_frequency,
    return_loss_db,
    s11_minimum,
    vswr,
)


def test_perfect_match():
    g = reflection_coefficient(50.0 + 0j)
    assert g == 0
    assert vswr(g) == 1.0
    assert return_loss_db(g) == -math.inf


def test_open_and_short():
    assert abs(reflection_coefficient(1e12 + 0j)) == pytest.approx(1.0)
    assert reflection_coefficient(1e-12 + 0j) == pytest.approx(-1.0)
    assert vswr(1.0) == math.inf


def test_known_values():
    # Z = 100 ohm on 50 ohm: gamma = 1/3, VSWR = 2, RL = -9.54 dB
    g = reflection_coefficient(100.0 + 0j)
    assert g == pytest.approx(1.0 / 3.0)
    assert vswr(g) == pytest.approx(2.0)
    assert return_loss_db(g) == pytest.approx(-9.542425094393249)


def test_non_passive_rejected():
    with pytest.raises(NonPassiveError):
        reflection_coefficient(-5.0 + 10.0j)
    with pytest.raises(ValueError):
        return_loss_db(1.5)
    with pytest.raises(ValueError):
        vswr(1.5)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(50.0, math.nan),
                               complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_reflection_coefficient_refuses_a_non_finite_impedance(z):
    for z_in in (z, np.array([50 + 0j, z])):
        with pytest.raises(ValueError, match=r"^Z_in must be finite, got "
                           r"%s$" % re.escape(str(np.complex128(z)))):
            reflection_coefficient(z_in)


@pytest.mark.parametrize("figure", [vswr, return_loss_db])
@pytest.mark.parametrize("gamma", [math.nan, complex(math.nan, 0.0),
                                   complex(0.5, math.nan)])
def test_figures_refuse_a_nan_gamma(figure, gamma):
    # refused as not a number, not as "not passive"
    for g in (gamma, np.array([0.5, gamma])):
        with pytest.raises(ValueError, match=r"^gamma must be a number, got "
                           r"%s$" % re.escape(str(np.asarray(g).flat[-1]))):
            figure(g)


@given(st.floats(1e-8, 1 - 1e-8))
def test_roundtrip_identities(mag):
    s = vswr(mag)
    rl = return_loss_db(mag)
    assert gamma_from_vswr(s) == pytest.approx(mag, abs=1e-10)
    assert gamma_from_return_loss(rl) == pytest.approx(mag, abs=1e-10)


def test_gamma_conversions_reject_out_of_domain_values():
    for s in (0.5, math.nan):
        with pytest.raises(ValueError, match="VSWR must be >= 1"):
            gamma_from_vswr(s)
    for rl in (3.0, math.nan):
        with pytest.raises(ValueError, match="negative-dB convention"):
            gamma_from_return_loss(rl)


@pytest.mark.parametrize("mag", [0.0, 0.5, 1.0])
def test_gamma_conversions_invert_vswr_and_return_loss(mag):
    # the ends map through VSWR 1 and inf, and return loss -inf and 0 dB
    assert gamma_from_vswr(vswr(mag)) == mag
    assert gamma_from_return_loss(return_loss_db(mag)) == mag


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                          allow_infinity=False).filter(lambda z: z.real > 1e-6))
def test_passive_impedance_gives_passive_gamma(z):
    assert abs(reflection_coefficient(z)) <= 1.0 + 1e-12


def _sweep_from(fz):
    f, z = zip(*fz)
    return SweepResult(f, z)


def test_sweep_result_guards():
    with pytest.raises(ValueError, match="equal length"):
        SweepResult([1.0e9, 1.1e9], [50 + 0j])
    with pytest.raises(ValueError, match="equal length"):
        SweepResult([[1.0e9]], [[50 + 0j]])
    with pytest.raises(ValueError, match="empty sweep"):
        SweepResult([], [])
    with pytest.raises(ValueError, match="ascending"):
        SweepResult([1.0e9, 1.0e9], [50 + 0j, 50 + 0j])
    for z0 in (0.0, -50.0):
        with pytest.raises(ValueError, match="reference impedance"):
            SweepResult([1.0e9], [50 + 0j], z0=z0)
    with pytest.raises(NonPassiveError, match=r"Re\(Z_in\) = -5 < 0 is not passive"):
        SweepResult([1.0e9, 1.1e9], [50 + 0j, -5 + 1j])


@pytest.mark.parametrize("f, z_in", [
    ([1.0, np.nan, 3.0], [50 + 0j] * 3),      # passes np.diff(f) <= 0
    ([1.0, 2.0, np.inf], [50 + 0j] * 3),
    ([-np.inf, 2.0, 3.0], [50 + 0j] * 3),
    ([1.0, 2.0, 3.0], [50 + 0j, complex(np.nan, 0.0), 50 + 0j]),
    ([1.0, 2.0, 3.0], [50 + 0j, complex(50.0, np.inf), 50 + 0j]),
    ([1.0, 2.0, 3.0], [50 + 0j, complex(np.inf, 0.0), 50 + 0j]),
])
def test_sweep_result_refuses_non_finite_samples(f, z_in):
    # a nan z_in would give a nan s11_db that s11_minimum takes as the
    # deepest match
    with pytest.raises(ValueError, match="finite"):
        SweepResult(np.array(f), np.array(z_in))


@pytest.mark.parametrize("f, z_in, message", [
    ([1.0, np.nan, 3.0], [50 + 0j] * 3, "f must be finite"),
    ([-np.inf, 2.0, 3.0], [complex(np.nan, 0.0)] * 3, "f must be finite"),
    ([1.0, 2.0, 3.0], [50 + 0j, complex(np.nan, 0.0), 50 + 0j],
     "Z_in must be finite, got (nan+0j)"),
    ([1.0, 2.0, 3.0], [50 + 0j, complex(50.0, np.inf), 50 + 0j],
     "Z_in must be finite, got (50+infj)"),
])
def test_sweep_result_refuses_each_non_finite_value_in_one_place(f, z_in,
                                                                 message):
    # f in __post_init__, before the order check a nan passes; z_in where
    # gamma is formed from it
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        SweepResult(np.array(f), np.array(z_in))


def test_sweep_result_derived_arrays():
    sw = SweepResult([1.0e9, 1.1e9, 1.2e9], [100 + 0j, 50 + 0j, 25 + 0j])
    assert sw.gamma == pytest.approx([1 / 3, 0.0, -1 / 3])
    assert sw.vswr == pytest.approx([2.0, 1.0, 2.0])
    assert sw.s11_db[1] == -math.inf
    assert sw.s11_db[[0, 2]] == pytest.approx([-9.542425094393249] * 2)
    assert sw.mesh is None      # built from arrays, not solved


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False)
                .filter(lambda z: z.real >= 0), min_size=1, max_size=8),
       st.floats(1e-3, 1e4))
def test_array_figures_equal_scalar_calls(zs, z0):
    gamma = reflection_coefficient(np.array(zs), z0)
    s11, swr = return_loss_db(gamma), vswr(gamma)
    for k, z in enumerate(zs):
        g = reflection_coefficient(z, z0)
        # numpy and Python complex division may round the last ulp apart
        assert gamma[k] == pytest.approx(g, rel=1e-14, abs=1e-300)
        assert s11[k] == return_loss_db(gamma[k])
        assert swr[k] == vswr(gamma[k])


def test_sweep_ordering_enforced():
    with pytest.raises(ValueError):
        _sweep_from([(2e9, 50 + 0j), (1e9, 50 + 0j)])


def test_resonant_frequency_interpolated():
    sw = _sweep_from([(1.0e9, 40 - 10j), (1.1e9, 45 - 2j), (1.2e9, 50 + 6j)])
    # crossing between 1.1 and 1.2 GHz at X: -2 -> +6
    assert resonant_frequency(sw) == pytest.approx(1.1e9 + 0.1e9 * 2 / 8)


def test_no_resonance():
    sw = _sweep_from([(1.0e9, 40 - 10j), (1.1e9, 45 - 2j)])
    with pytest.raises(NoResonanceError):
        resonant_frequency(sw)


def _parabolic_sweep():
    # two half-parabolas glued at 1.8 GHz; -10 dB crossings are placed
    # exactly at 1.65 and 1.98 GHz, so BW = (1.98-1.65)/1.8 = 18.333%
    def s11(f):
        if f <= 1.8e9:
            return -30.0 + 20.0 * ((1.8e9 - f) / 0.15e9) ** 2
        return -30.0 + 20.0 * ((f - 1.8e9) / 0.18e9) ** 2

    fs = [1.5e9 + i * 0.03e9 for i in range(21)]
    zs = []
    for f in fs:
        mag = 10 ** (s11(f) / 20.0) if s11(f) < 0 else 0.999
        z = 50.0 * (1 + mag) / (1 - mag)   # real Z with that |gamma|
        zs.append(complex(z, 0.0))
    return SweepResult(fs, zs)


def test_fractional_bandwidth_exact():
    bw = fractional_bandwidth(_parabolic_sweep())
    assert isinstance(bw, BandwidthResult)
    assert bw.f_center == pytest.approx(1.8e9)
    assert bw.f_low == pytest.approx(1.65e9, rel=2e-3)
    assert bw.f_high == pytest.approx(1.98e9, rel=2e-3)
    assert bw.percent == pytest.approx(100 * 0.33 / 1.8, rel=1e-2)
    assert not bw.edge_clipped


@pytest.mark.parametrize("threshold_db", [0.0, 3.0, float("nan")])
def test_bandwidth_threshold_must_be_negative_db(threshold_db):
    for refuse in (check_bw_threshold,
                   lambda t: fractional_bandwidth(_parabolic_sweep(), t)):
        with pytest.raises(ValueError, match="^threshold must be negative dB$"):
            refuse(threshold_db)


def test_bandwidth_below_threshold():
    sw = _sweep_from([(1.0e9, 250 + 0j), (1.1e9, 240 + 0j), (1.2e9, 250 + 0j)])
    bw = fractional_bandwidth(sw)
    assert bw.percent == 0.0


def test_bandwidth_edge_clipped():
    sw = _sweep_from([(1.0e9, 51 + 0j), (1.1e9, 50.5 + 0j), (1.2e9, 51 + 0j)])
    bw = fractional_bandwidth(sw, threshold_db=-20.0)
    assert bw.edge_clipped
    assert bw.f_low == 1.0e9 and bw.f_high == 1.2e9


def test_bandwidth_at_a_perfect_match():
    # S11 = -inf dB at the exact match: each edge on that side is the
    # first sample outside the run, the interpolation's limit, not nan
    one = fractional_bandwidth(SweepResult([1.0e9, 1.1e9, 1.2e9], [100, 50, 100]))
    assert one == BandwidthResult(100.0 * 0.2e9 / 1.1e9, 1.0e9, 1.2e9, 1.1e9, False)
    sw = SweepResult([1.0e9, 1.1e9, 1.2e9, 1.3e9, 1.4e9], [100, 50, 55, 60, 100])
    assert sw.s11_db[1] == -math.inf
    bw = fractional_bandwidth(sw)
    assert bw.f_low == 1.0e9 and bw.f_center == 1.1e9 and not bw.edge_clipped
    s = sw.s11_db
    assert bw.f_high == 1.3e9 + 0.1e9 * (-10.0 - s[3]) / (s[4] - s[3])
    assert bw.percent == 100.0 * (bw.f_high - bw.f_low) / 1.1e9


def test_s11_minimum():
    sw = _sweep_from([(1.0e9, 80 + 0j), (1.1e9, 52 + 0j), (1.2e9, 80 + 0j)])
    assert sw.f[s11_minimum(sw)] == 1.1e9


@pytest.mark.parametrize("y, expected", [
    ([5.0, 1.0, 0.0, 1.0, 5.0], (0.75, 3.25)),   # both edges inside the grid
    ([0.0, 1.0, 0.0, 1.0, 5.0], (None, 3.25)),   # run reaches the left end
    ([5.0, 1.0, 0.0, 1.0, 0.0], (0.75, None)),   # run reaches the right end
    ([0.0, 1.0, 0.0, 1.0, 0.0], (None, None)),   # run reaches both ends
])
def test_level_crossings_edges_and_grid_ends(y, expected):
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert level_crossings(x, y, 2, 2.0, lambda v: v <= 2.0) == expected


def test_level_crossings_sample_at_level():
    x = [0.0, 1.0, 2.0]
    # inside for <=: the walk goes on past the sample at the level
    assert level_crossings(x, [1.0, 2.0, 0.0], 2, 2.0,
                           lambda v: v <= 2.0) == (None, None)
    # outside for >: the edge lands on that sample
    assert level_crossings(x, [-1.0, -2.0, 0.0], 2, -2.0,
                           lambda v: v > -2.0) == (1.0, None)


def _reference_bandwidth(sweep, threshold_db):
    """fractional_bandwidth as written before level_crossings existed."""
    f, s = sweep.f.tolist(), sweep.s11_db.tolist()
    i0 = s11_minimum(sweep)
    f_c = f[i0]
    if s[i0] > threshold_db:
        return BandwidthResult(0.0, f_c, f_c, f_c, False)
    lo = i0
    while lo > 0 and s[lo - 1] <= threshold_db:
        lo -= 1
    hi = i0
    while hi < len(s) - 1 and s[hi + 1] <= threshold_db:
        hi += 1
    clipped = False

    def cross(inside: int, outside: int) -> float:
        return f[inside] + (f[outside] - f[inside]) \
            * (threshold_db - s[inside]) / (s[outside] - s[inside])

    if lo == 0:
        f_lo, clipped = f[0], True
    else:
        f_lo = cross(lo, lo - 1)
    if hi == len(s) - 1:
        f_hi, clipped = f[-1], True
    else:
        f_hi = cross(hi, hi + 1)
    return BandwidthResult(100.0 * (f_hi - f_lo) / f_c, f_lo, f_hi, f_c, clipped)


def test_bandwidth_matches_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    clipped = open_band = 0
    for _ in range(2000):
        count = int(rng.integers(1, 60))
        f = rng.uniform(0.5e9, 2e9) + rng.uniform(1e6, 5e7) * np.arange(count)
        # a random walk in log R and X gives dips of every width
        r = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.3, count)))
        x = np.cumsum(rng.normal(0.0, 8.0, count))
        sw = SweepResult(f, r + 1j * x)
        threshold = float(rng.uniform(-30.0, -1.0))
        bw = fractional_bandwidth(sw, threshold)
        assert bw == _reference_bandwidth(sw, threshold)
        assert type(bw.f_low) is float and type(bw.f_high) is float
        clipped += bw.edge_clipped
        open_band += bw.percent > 0 and not bw.edge_clipped
    assert clipped > 100 and open_band > 100   # both branches exercised
