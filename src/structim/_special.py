"""The four special functions structim needs, on numpy and ``math``.

``betainc`` is the regularized incomplete beta I_x(a, b) by its continued
fraction (Press et al., *Numerical Recipes*, 3rd ed., 6.4), with the
prefactor x^a y^b / B(a, b) in Loader's saddle-point form (Loader, "Fast and
accurate computation of binomial probabilities", 2000) so that it keeps its
relative precision when a + b is in the millions. ``betaincinv`` inverts it
by safeguarded Halley steps (as in DiDonato & Morris, "Algorithm 708", ACM
TOMS 18, 1992); ``stdtr`` is the Student t tail it gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0**-52
_TINY = 1e-300
_MAXIT = 100000


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x))."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def ndtr(x: float) -> float:
    """Standard normal lower tail P(Z <= x)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def stdtr(df: float, t: float) -> float:
    """Student t lower tail P(T <= t) with ``df`` > 0 degrees of freedom."""
    t2 = t * t
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))[0]
    return tail if t < 0 else 1.0 - tail


def _stirlerr(n: float) -> float:
    """lgamma(n) - ((n - 1/2) log n - n + log sqrt(2 pi))."""
    if n < 15.0:
        return math.lgamma(n) - (n - 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    n2 = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * n2)) / n2) / n2) / n2) / n


def _bd0(x: float, m: float, d: float) -> float:
    """The deviance x log(x / m) + m - x, given d = x - m, to a few ulps of d."""
    return x * math.log(x / m) - d if abs(d) > 0.5 * x else -x * math.log1p(-d / x) - d


def betainc(a: float, b: float, x: float, y: float):
    """(I_x(a, b), 1 - I_x(a, b), log(x^a y^b / B(a, b))) for x + y = 1.

    ``y`` is passed separately so that a caller that knows 1 - x better than
    the subtraction does (the t tail near t = 0) keeps its precision. The
    smaller of ``x`` and ``y`` fixes both deviance terms, so they agree.
    """
    if x <= 0.0:
        return 0.0, 1.0, -math.inf
    if y <= 0.0:
        return 1.0, 0.0, -math.inf
    n = a + b
    if x <= y:
        ma = x * n
        d = a - ma
        mb = b + d
    else:
        mb = y * n
        d = mb - b
        ma = a - d
    front = (0.5 * math.log(a * b / n) - _LOG_SQRT_2PI + _stirlerr(n) - _stirlerr(a) - _stirlerr(b)
             - _bd0(a, ma, d) - _bd0(b, mb, -d))
    if x * (n + 2.0) < a + 1.0:
        p = math.exp(front) * _betacf(a, b, x) / a
        return p, 1.0 - p, front
    q = math.exp(front) * _betacf(b, a, y) / b
    return 1.0 - q, q, front


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    c = 1.0
    h = d = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or _TINY)
    for m in range(1, _MAXIT):
        m2 = a + 2 * m
        for num in (m * (b - m) * x / ((m2 - 1.0) * m2), -(a + m) * (a + b + m) * x / (m2 * (m2 + 1.0))):
            d = 1.0 / ((1.0 + num * d) or _TINY)
            c = (1.0 + num / c) or _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def betaincinv(a: float, b: float, p: float) -> float:
    """The x in [0, 1] with I_x(a, b) = p, for a, b >= 1.

    Halley steps on I_x(a, b) - p from the Abramowitz & Stegun 26.5.22
    starting value; a step that leaves the bracket the iterates have
    established bisects it instead.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0 if p <= 0.0 else 1.0
    a, b = float(a), float(b)
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    z = z if p < 0.5 else -z
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * math.exp(2.0 * w))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        y = 1.0 - x
        ip, iq, front = betainc(a, b, x, y)
        # I_x - p, from the side whose tail is small
        r = ip - p if p <= 0.5 else (1.0 - p) - iq
        if r == 0.0:
            return x
        lo, hi = (x, hi) if r < 0.0 else (lo, x)
        pdf = math.exp(front) / (x * y)
        step = r / pdf if pdf > 0.0 else math.inf
        halley = step * ((a - 1.0) / x - (b - 1.0) / y)
        if abs(halley) < 1.0:
            step /= 1.0 - 0.5 * halley
        if abs(step) <= 4.0 * _EPS * x:
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x
