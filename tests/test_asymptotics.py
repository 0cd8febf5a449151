"""Exponent fits: growth classification, IDS slopes, envelope constants."""

import numpy as np
import pytest

from percospec.asymptotics import (
    fit_growth,
    fit_lifshitz,
    fit_van_hove,
    least_squares,
    sandwich_check,
)
from percospec.bounds import sandwich_inputs
from percospec.cayley import GroupSpec, enumerate_ball, growth_profile, line_subgraph
from percospec.operators import NEUMANN
from percospec.spectra import free_ids_zd, line_site_ids_oracle


# ---------------------------------------------------------------------------
# least squares: scipy.stats.linregress, bit for bit
# ---------------------------------------------------------------------------

def _bits(value):
    return np.float64(value).tobytes()


def _fit_inputs():
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
    cases = [(np.array([1.0, 2.0]), np.array([3.0, 5.0])),      # n = 2
             (np.array([1, 4]), np.array([2.0, 2.0])),          # n = 2, flat
             (np.arange(1, 6), np.zeros(5)),                    # constant y: r is NaN
             (np.arange(1, 6), np.full(5, 0.1)),
             (np.array([1e-200, 2e-200, 3e-200]), np.array([1.0, 2.0, 4.0])),  # ssxm = 0
             (np.arange(1, 9), 2.0 * np.arange(1, 9) - 1.0)]    # r clipped
    for i in range(300):
        n = int(rng.integers(2, 40))
        if i % 3 == 0:      # integer x, as the percolate tail grid
            x = rng.integers(-50, 50, size=n)
            y = np.log(rng.uniform(size=n))
        elif i % 3 == 1:
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        else:               # nearly exact lines, where r is clipped
            x = rng.normal(size=n)
            y = rng.normal() * x + rng.normal()
        if np.ptp(x):
            cases.append((x, y))
    return cases


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_least_squares_is_linregress_bit_for_bit():
    from scipy.stats import linregress

    for x, y in _fit_inputs():
        want = linregress(x, y)
        got = least_squares(x, y)
        assert [_bits(v) for v in got] == [_bits(want.slope), _bits(want.intercept),
                                           _bits(want.rvalue), _bits(want.stderr)], (x, y)


def test_least_squares_refuses_identical_x_as_linregress():
    from scipy.stats import linregress

    x, y = np.full(4, 2.5), np.arange(4.0)
    with pytest.raises(ValueError) as want:
        linregress(x, y)
    with pytest.raises(ValueError, match="^" + str(want.value) + "$"):
        least_squares(x, y)


# ---------------------------------------------------------------------------
# regression oracle: synthetic data round-trips
# ---------------------------------------------------------------------------

def test_regression_recovers_synthetic_parameters():
    e = np.geomspace(1e-3, 1e-1, 30)
    fit = fit_van_hove(e, 0.37 * e ** 1.5)
    assert fit.slope == pytest.approx(1.5, rel=1e-9)
    assert np.exp(fit.intercept) == pytest.approx(0.37, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_lifshitz_synthetic_exponential():
    e = np.geomspace(5e-3, 0.2, 25)
    fit = fit_lifshitz(e, np.exp(-1.0 / e), shift=0.0)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)


def test_lifshitz_synthetic_polynomial_is_flat():
    # pure power law is the sanity control: its double-log slope is the
    # slowly vanishing 1/|log E| shape, far below the exponential signature
    e = np.geomspace(5e-3, 0.2, 25)
    fit = fit_lifshitz(e, e ** 3, shift=0.0)
    assert fit.slope < 0.35
    wide = fit_lifshitz(np.geomspace(1e-6, 0.2, 40),
                        np.geomspace(1e-6, 0.2, 40) ** 3, shift=0.0,
                        e_range=(1e-6, 0.2))
    assert wide.slope < fit.slope


def test_lifshitz_raises_without_resolution():
    e = np.geomspace(5e-3, 0.2, 10)
    with pytest.raises(ValueError, match="insufficient"):
        fit_lifshitz(e, np.zeros_like(e), shift=0.0)


def test_van_hove_flags_nonpositive_values():
    e = np.geomspace(1e-3, 1e-1, 12)
    v = e.copy()
    v[0] = 0.0
    fit = fit_van_hove(e, v)
    assert "range-shrunk-nonpositive-values" in fit.flags
    assert fit.n_points == 11


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

def test_growth_z2_polynomial():
    cls = fit_growth(growth_profile(enumerate_ball(GroupSpec.free_abelian(2), 30)),
                     n_min=8)
    assert cls.label == "polynomial"
    assert cls.loglog.slope == pytest.approx(2.0, abs=0.1)


def test_growth_heisenberg_polynomial_degree_four():
    cls = fit_growth(growth_profile(enumerate_ball(GroupSpec.heisenberg(), 18)),
                     n_min=6)
    assert cls.label == "polynomial"
    assert cls.loglog.slope == pytest.approx(4.0, abs=0.3)


def test_growth_lamplighter_superpolynomial():
    cls = fit_growth(growth_profile(enumerate_ball(GroupSpec.lamplighter(2), 12)),
                     n_min=3)
    assert cls.label == "superpolynomial"
    assert cls.semilog.slope > 0


# ---------------------------------------------------------------------------
# van Hove slopes from the free IDS
# ---------------------------------------------------------------------------

def test_van_hove_z1():
    e = np.geomspace(1e-3, 1e-1, 20)
    v = np.array([free_ids_zd(1, x).value for x in e])
    fit = fit_van_hove(e, v)
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_van_hove_z2():
    e = np.geomspace(1e-3, 1e-1, 20)
    v = np.array([free_ids_zd(2, x).value for x in e])
    fit = fit_van_hove(e, v)
    assert fit.slope == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# Lifshitz slope on the exact line oracle
# ---------------------------------------------------------------------------

def test_neumann_lifshitz_exponent_on_line_oracle():
    p = 0.5
    e = np.geomspace(0.005, 0.2, 40)
    values = line_site_ids_oracle(p, e, NEUMANN)
    fit = fit_lifshitz(e, values, shift=p * (1 - p))
    assert fit.slope == pytest.approx(0.5, abs=0.15)


def test_neumann_lifshitz_slope_moves_toward_half_as_range_shrinks():
    p = 0.5
    e = np.geomspace(0.002, 0.2, 60)
    values = line_site_ids_oracle(p, e, NEUMANN)
    wide = fit_lifshitz(e, values, shift=p * (1 - p), e_range=(0.05, 0.2))
    narrow = fit_lifshitz(e, values, shift=p * (1 - p), e_range=(0.002, 0.05))
    assert abs(narrow.slope - 0.5) < abs(wide.slope - 0.5)


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

def make_line_inputs(n_max=64):
    ball = enumerate_ball(GroupSpec.free_abelian(1), 35)
    ns = list(range(2, n_max + 1))
    family = [line_subgraph(ball, n) for n in ns]
    c = [2 * (1 - np.cos(np.pi / n)) for n in ns]
    return sandwich_inputs(family, c, NEUMANN, labels=ns)


def test_sandwich_on_neumann_line_oracle():
    p = 0.5
    e = np.geomspace(0.005, 0.2, 30)
    values = line_site_ids_oracle(p, e, NEUMANN)
    inputs = make_line_inputs()
    alpha_n = 8.0  # fitted lower-bound constant for segments of Z

    report = sandwich_check(e, values, shift=p * (1 - p),
                            f_inverse=lambda x: np.sqrt(alpha_n / x),
                            inputs=inputs)
    assert not report.empty_measure
    assert report.a > 0
    assert report.b > 0
    assert report.upper_violations == 0
    assert report.lower_violations == 0
    assert report.envelope_ok


def test_sandwich_empty_measure():
    e = np.geomspace(0.005, 0.2, 10)
    inputs = make_line_inputs(16)
    report = sandwich_check(e, np.zeros_like(e), shift=0.0,
                            f_inverse=lambda x: 1.0 / np.sqrt(x), inputs=inputs)
    assert report.empty_measure
    assert report.a is None and report.b is None
