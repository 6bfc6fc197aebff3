"""The special functions of ``structim._special`` against ``scipy.special``.

scipy is a test-only oracle here, as networkx is elsewhere. Tolerances are
relative. The incomplete beta and its inverse are held to 1e-12 up to
parameters of 10^5, the t tail to 1e-12 up to 10^4 degrees of freedom and
1e-11 up to 10^5 (where the continued fraction near its switch point loses
the last digits), the normal tail to 1e-14 plus the x^2 ulps that rounding
its argument costs, and expit to 4e-16.
Incomplete-beta values below 1e-30 are left out: far in the tail scipy
itself drifts (at I = 2.8e-265 it is 1.3e-8 off an mpmath reference, which
the continued fraction matches to 4e-14).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from structim._special import betainc, betaincinv, expit, ndtr, stdtr

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)
_shapes = st.floats(0.5, 1e5, allow_nan=False)
_unit = st.floats(1e-12, 1.0 - 1e-12, allow_nan=False)


@given(_shapes, _shapes, _unit)
@SETTINGS
def test_betainc_matches_scipy(a, b, x):
    p, q, _ = betainc(a, b, x, 1.0 - x)
    want_p, want_q = float(special.betainc(a, b, x)), float(special.betaincc(a, b, x))
    if want_p >= 1e-30:
        assert p == pytest.approx(want_p, rel=1e-12, abs=0.0)
    if want_q >= 1e-30:
        assert q == pytest.approx(want_q, rel=1e-12, abs=0.0)


def test_betainc_edges():
    assert betainc(2.0, 3.0, 0.0, 1.0)[:2] == (0.0, 1.0)
    assert betainc(2.0, 3.0, 1.0, 0.0)[:2] == (1.0, 0.0)
    # the log prefactor is log(x^a y^b / B(a, b))
    a, b, x = 3.5, 7.25, 0.3
    front = betainc(a, b, x, 1.0 - x)[2]
    want = a * math.log(x) + b * math.log1p(-x) - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    assert front == pytest.approx(want, rel=1e-14)


@given(st.integers(1, 10**5), st.integers(1, 10**5),
       st.one_of(st.sampled_from((0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995)), st.floats(1e-10, 1.0 - 1e-10)))
@SETTINGS
def test_betaincinv_matches_scipy(a, b, p):
    assert betaincinv(a, b, p) == pytest.approx(float(special.betaincinv(a, b, p)), rel=1e-12, abs=0.0)


def test_betaincinv_ends():
    assert betaincinv(3, 4, 0.0) == 0.0
    assert betaincinv(3, 4, 1.0) == 1.0
    # I_x(1, 1) = x
    assert betaincinv(1, 1, 0.3) == pytest.approx(0.3, rel=1e-15)


def _t_cdf_oracle(df, t):
    """P(T <= t) from scipy's incomplete beta, on the side that keeps its
    digits: P(|T| < |t|) = I_y(1/2, df/2) near t = 0, where scipy's own
    stdtr is off (1.6e-9 at df = 1, t = 1e-8), the tail I_x(df/2, 1/2) / 2
    beyond."""
    t2 = t * t
    if t2 < df:
        inner = 0.5 * float(special.betainc(0.5, 0.5 * df, t2 / (df + t2)))
        return 0.5 + inner if t > 0 else 0.5 - inner
    tail = 0.5 * float(special.betainc(0.5 * df, 0.5, df / (df + t2)))
    return tail if t < 0 else 1.0 - tail


@given(st.floats(1.0, 1e5), st.floats(-1e3, 1e3))
@SETTINGS
def test_stdtr_matches_scipy(df, t):
    want = _t_cdf_oracle(df, t)
    assume(want >= 1e-30)
    rel = 1e-12 if df <= 1e4 else 1e-11
    assert stdtr(df, t) == pytest.approx(want, rel=rel, abs=0.0)


@pytest.mark.parametrize("t", [-1e6, -3.0, -1e-8, 1e-8, 0.5, 40.0])
def test_stdtr_is_the_cauchy_cdf_at_one_degree_of_freedom(t):
    # 1/2 + atan(t)/pi, written without its cancellation for t < 0
    assert stdtr(1.0, t) == pytest.approx(math.atan2(1.0, -t) / math.pi, rel=1e-14, abs=0.0)


def test_stdtr_ends():
    assert stdtr(7.0, 0.0) == 0.5
    assert stdtr(7.0, -math.inf) == 0.0
    assert stdtr(7.0, math.inf) == 1.0


@given(st.floats(-37.0, 37.0))
@SETTINGS
def test_ndtr_matches_scipy(x):
    # rounding x / sqrt(2) moves erfc by x^2 ulps, in either implementation
    rel = 1e-14 + 5.0 * x * x * 2.0**-52
    assert ndtr(x) == pytest.approx(float(special.ndtr(x)), rel=rel, abs=0.0)


def test_expit_matches_scipy_without_warnings():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(scale=s, size=2000) for s in (1.0, 10.0, 100.0, 1000.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    want = special.expit(x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)
    assert expit(-800.0) == 0.0 and expit(800.0) == 1.0
