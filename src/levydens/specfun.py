"""Bessel and Gamma special functions for the radial machinery.

Double precision throughout; every evaluation reports an error estimate and
the method that produced it.  Series / asymptotic switch points are chosen by
comparing the two methods' estimated truncation errors, so the crossover
adapts to the order instead of being a hard-coded constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevyDensError

_EPS = 2.2204460492503131e-16

# Lanczos coefficients, g = 7, n = 9 (double precision classic set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class SpecFunResult:
    """Value of a special function together with accuracy accounting."""

    value: float
    est_error: float
    method: str  # 'series' | 'asymptotic' | 'recurrence'

    def __float__(self):
        return self.value


def gamma_fn(x: float) -> float:
    """Euler Gamma function via the Lanczos approximation.

    Relative accuracy ~1e-13 on [0.5, 30]; poles at nonpositive integers
    raise ValueError.
    """
    if x == math.floor(x) and x <= 0.0:
        raise ValueError(f"gamma_fn pole at x={x}")
    if x < 0.5:
        # Reflection formula keeps the Lanczos sum in its accurate range.
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    x -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def _digamma_int(n: int) -> float:
    """psi(n) for integer n >= 1 (harmonic sum minus Euler's constant)."""
    acc = -0.5772156649015328606
    for k in range(1, n):
        acc += 1.0 / k
    return acc


def _bessel_j_series(nu: float, z: float):
    """Power series for J_nu; error estimate covers cancellation and tail."""
    q = 0.25 * z * z
    term = 1.0
    acc = 1.0
    comp = 0.0
    max_term = 1.0
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + nu))
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        max_term = max(max_term, abs(term))
        if abs(term) < _EPS * max(1.0, abs(acc)) or k > 400:
            break
    prefac = math.exp(nu * math.log(0.5 * z) - math.lgamma(nu + 1.0)) if z > 0 else (1.0 if nu == 0.0 else 0.0)
    value = prefac * acc
    est = prefac * (max_term * _EPS * (k + 1) + abs(term))
    return value, est


def _hankel_pq(nu: float, z: float):
    """Truncated Hankel asymptotic sums P, Q with first-omitted-term error."""
    mu = 4.0 * nu * nu
    p_acc = 1.0
    q_acc = 0.0
    term = 1.0
    k = 0
    prev = math.inf
    omitted = 0.0
    while True:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        if abs(term) >= prev or k > 60:
            omitted = abs(term)
            break
        prev = abs(term)
        if k % 2 == 1:
            q_acc += term if (k // 2) % 2 == 0 else -term
        else:
            p_acc += -term if (k // 2) % 2 == 1 else term
        if abs(term) < 1e-18:
            omitted = abs(term)
            break
    return p_acc, q_acc, omitted


def _bessel_j_asymptotic(nu: float, z: float):
    p, q, omitted = _hankel_pq(nu, z)
    chi = z - 0.5 * nu * math.pi - 0.25 * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    value = amp * (p * math.cos(chi) - q * math.sin(chi))
    return value, amp * (omitted + 4.0 * _EPS * abs(z) * max(abs(p), 1.0))


def bessel_j(nu: float, z: float) -> SpecFunResult:
    """Bessel function of the first kind, nu >= -1/2, z >= 0."""
    if nu < -0.5:
        raise LevyDensError(f"bessel_j: order nu={nu} outside supported range (nu >= -1/2)")
    if z < 0:
        raise LevyDensError("bessel_j: z must be nonnegative")
    if z == 0.0:
        if nu == 0.0:
            return SpecFunResult(1.0, 0.0, "series")
        return SpecFunResult(0.0 if nu > 0.0 else math.inf, 0.0, "series")
    if z < 12.0:
        v, e = _bessel_j_series(nu, z)
        return SpecFunResult(v, e, "series")
    if z > 18.0:
        v, e = _bessel_j_asymptotic(nu, z)
        return SpecFunResult(v, e, "asymptotic")
    vs, es = _bessel_j_series(nu, z)
    va, ea = _bessel_j_asymptotic(nu, z)
    if es <= ea:
        return SpecFunResult(vs, es, "series")
    return SpecFunResult(va, ea, "asymptotic")


def _bessel_i_series(nu: float, z: float) -> float:
    """Modified Bessel I_nu by its (all-positive) power series."""
    q = 0.25 * z * z
    term = 1.0
    acc = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + nu))
        acc += term
        if abs(term) < _EPS * abs(acc) or k > 500:
            break
    # math.gamma keeps the sign right for the negative non-integer orders
    # that the reflection formula needs.
    return (0.5 * z) ** nu / math.gamma(nu + 1.0) * acc


def _bessel_k_asymptotic(nu: float, z: float):
    """Large-z expansion of K_nu, truncated at the smallest term."""
    mu = 4.0 * nu * nu
    acc = 1.0
    term = 1.0
    prev = math.inf
    k = 0
    while True:
        k += 1
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        if abs(term) >= prev or k > 80:
            omitted = abs(term)
            break
        prev = abs(term)
        acc += term
        if abs(term) < 1e-18:
            omitted = abs(term)
            break
    pre = math.sqrt(0.5 * math.pi / z) * math.exp(-z)
    return pre * acc, pre * (omitted + 4.0 * _EPS)


def _bessel_k_series_frac(mu: float, z: float):
    """K_mu for non-integer mu in (0,1) via the reflection series.

    Cancellation between I_{-mu} and I_mu costs ~e^{2z} in relative accuracy,
    which is what the error estimate reports.
    """
    i_plus = _bessel_i_series(mu, z)
    i_minus = _bessel_i_series(-mu, z)
    value = 0.5 * math.pi * (i_minus - i_plus) / math.sin(math.pi * mu)
    est = _EPS * math.exp(2.0 * z) * max(abs(value), 1e-300) + _EPS * abs(value)
    return value, est


def _bessel_k_series_int(n: int, z: float):
    """K_n for integer n >= 0 by the standard logarithmic series."""
    q = 0.25 * z * z
    half = 0.5 * z
    fin = 0.0
    if n > 0:
        for k in range(n):
            fin += (math.factorial(n - k - 1) / math.factorial(k)) * (-q) ** k
        fin *= 0.5 * half ** (-n)
    log_term = (-1.0) ** (n + 1) * math.log(half) * _bessel_i_series(float(n), z)
    acc = 0.0
    term = half ** n / math.factorial(n)
    k = 0
    while True:
        coeff = _digamma_int(k + 1) + _digamma_int(n + k + 1)
        acc += coeff * term
        k += 1
        term *= q / (k * (n + k))
        if term * 20.0 < _EPS * max(abs(acc), 1.0) or k > 500:
            break
    tail = (-1.0) ** n * 0.5 * acc
    value = fin + log_term + tail
    est = _EPS * (abs(fin) + abs(log_term) + abs(tail)) * 8.0
    return value, est


def bessel_k(nu: float, z: float) -> SpecFunResult:
    """Modified Bessel function of the third kind K_nu(z), z > 0.

    Half-integer orders use the exact closed-form recurrence; other orders use
    the small-z series or the large-z asymptotic expansion, lifted to the
    requested order by the (upward-stable) three-term recurrence.
    """
    if z <= 0:
        raise LevyDensError("bessel_k: z must be positive")
    nu = abs(nu)  # K_{-nu} = K_nu
    if z > 705.0:
        return SpecFunResult(0.0, 1e-300, "asymptotic")

    half_steps = nu - 0.5
    if abs(half_steps - round(half_steps)) < 1e-13 and half_steps >= -1e-13:
        # nu = m + 1/2: exact elementary form, recursed upward.
        m = int(round(half_steps))
        k_lo = math.sqrt(0.5 * math.pi / z) * math.exp(-z)  # K_{1/2}
        if m == 0:
            return SpecFunResult(k_lo, 4.0 * _EPS * k_lo, "recurrence")
        k_hi = k_lo * (1.0 + 1.0 / z)  # K_{3/2}
        order = 1.5
        for _ in range(m - 1):
            k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
            order += 1.0
        return SpecFunResult(k_hi, 4.0 * _EPS * k_hi * (m + 1), "recurrence")

    n_steps = int(math.floor(nu))
    mu = nu - n_steps

    def _series_pair():
        if mu < 1e-13:
            a0 = _bessel_k_series_int(0, z)
            a1 = _bessel_k_series_int(1, z)
            return a0, a1, 1.0
        a0 = _bessel_k_series_frac(mu, z)
        # K_{mu+1} straight from its own reflection series.
        i_plus = _bessel_i_series(mu + 1.0, z)
        i_minus = _bessel_i_series(-(mu + 1.0), z)
        w1 = 0.5 * math.pi * (i_minus - i_plus) / math.sin(math.pi * (mu + 1.0))
        a1 = (w1, _EPS * math.exp(2.0 * z) * max(abs(w1), 1e-300))
        return a0, a1, mu + 1.0

    def _asym_pair():
        return _bessel_k_asymptotic(mu, z), _bessel_k_asymptotic(mu + 1.0, z), mu + 1.0

    if z <= 6.0:
        (v0, e0), (v1, e1), order = _series_pair()
        method = "series"
    elif z >= 10.0:
        (v0, e0), (v1, e1), order = _asym_pair()
        method = "asymptotic"
    else:
        # crossover band: evaluate both, keep the smaller error estimate
        ser = _series_pair()
        asy = _asym_pair()
        if ser[0][1] + ser[1][1] <= asy[0][1] + asy[1][1]:
            (v0, e0), (v1, e1), order = ser
            method = "series"
        else:
            (v0, e0), (v1, e1), order = asy
            method = "asymptotic"
    if n_steps == 0:
        return SpecFunResult(v0, e0, method)
    k_lo, k_hi = v0, v1
    for _ in range(n_steps - 1):
        k_lo, k_hi = k_hi, k_lo + (2.0 * order / z) * k_hi
        order += 1.0
    return SpecFunResult(k_hi, (e0 + e1) * (1.0 + k_hi / max(v1, 1e-300)), method)


def h_kernel(nu: float, z: float) -> float:
    """Normalized Bessel kernel H_nu(z) = 2^nu Gamma(nu+1) z^{-nu} J_nu(z).

    H_nu(0) = 1 exactly (removable singularity handled by the series), and
    1 - H_nu(z) ~ z^2 / (4 (nu+1)) as z -> 0.
    """
    if nu < -0.5:
        raise LevyDensError(f"h_kernel: order nu={nu} outside supported range")
    return float(h_kernel_array(nu, np.float64(abs(z))))


def h_kernel_array(nu: float, z: np.ndarray) -> np.ndarray:
    """H_nu over a nonnegative array: the series sum_k (-1)^k (z^2/4)^k /
    (k! (nu+1)_k) for z <= 15, Hankel's expansion beyond.  Each element's
    series runs through its own first term under eps, so no element's value
    depends on the rest of the array."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= 15.0
    if np.any(small):
        # |term_k| rounds nondecreasing in z, so in ascending z the elements
        # whose series has stopped are a prefix: the live ones are a slice
        order = np.argsort(z[small])
        zs = z[small][order]
        q = 0.25 * zs * zs
        term = np.ones_like(q)
        acc = np.ones_like(q)
        lo = 0
        for k in range(1, 402):
            live = term[lo:]
            live *= -q[lo:] / (k * (nu + k))
            acc[lo:] += live
            lo += np.count_nonzero(np.abs(live) < _EPS)
            if lo == q.size:
                break
        vals = np.empty_like(acc)
        vals[order] = acc
        out[small] = vals
    if np.any(~small):
        zl = z[~small]
        mu4 = 4.0 * nu * nu
        # Hankel asymptotics, fixed 20-term truncation (ample for z > 15).
        p = np.ones_like(zl)
        qq = np.zeros_like(zl)
        term = np.ones_like(zl)
        for k in range(1, 21):
            term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * zl)
            if k % 2 == 1:
                qq += term if (k // 2) % 2 == 0 else -term
            else:
                p += -term if (k // 2) % 2 == 1 else term
        chi = zl - 0.5 * nu * math.pi - 0.25 * math.pi
        jv = np.sqrt(2.0 / (math.pi * zl)) * (p * np.cos(chi) - qq * np.sin(chi))
        out[~small] = np.exp(nu * np.log(2.0 / zl) + math.lgamma(nu + 1.0)) * jv
    return out
