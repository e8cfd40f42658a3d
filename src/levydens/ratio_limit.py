"""Large-time ratio limits of the semigroup and its normalized symbol.

With chi_t = e^{-t psi} / ||e^{-t psi}||_1, the mass of chi_t outside any
ball vanishes as t grows, which drives the three ratio limits

    T_t f(x) / ||e^{-t psi}||_1  ->  (2 pi)^{-n} integral of f,
    p_t(x) / p_t(0)              ->  1,

locally uniformly.  The operations here exhibit those limits numerically on
a t-ladder and report every rung rather than claiming a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import IntegrabilityRefusal, RangeError, UnsupportedModelError
from .levy_core import ModelSpec, re_psi_profile
from .inversion import invert_grid, invert_radial, pt_zero

_T_LADDER = (1.0, 10.0, 100.0, 1000.0)
_gl16_x, _gl16_w = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class RatioReport:
    """Observed ratio-limit quantities on a t-ladder."""

    t_grid: Tuple[float, ...]
    delta: float
    tail_mass: Tuple[float, ...]       # chi_t mass outside |xi| > delta, per t
    m_delta: float                     # inf of Re psi outside the ball
    m_delta_flag: bool                 # True when a near-zero was found
    ratios: Tuple[float, ...]          # p_t(x)/p_t(0) per t
    x: float
    limits_expected: dict

    def as_dict(self) -> dict:
        return {
            "t_grid": list(self.t_grid),
            "delta": self.delta,
            "tail_mass": list(self.tail_mass),
            "m_delta": self.m_delta,
            "m_delta_flag": self.m_delta_flag,
            "ratios": list(self.ratios),
            "x": self.x,
            "limits_expected": self.limits_expected,
        }


def _radial_weight_integral(model: ModelSpec, t: float, lo: float) -> float:
    """int_lo^inf e^{-t Re psi(u)} u^{n-1} du by log panels.

    Valid for dim 1 (Re psi is even) and for radial models in general.
    """
    n = model.dim
    if n > 1 and not model.measure.is_radial:
        raise UnsupportedModelError(
            "the L1 norm integral needs dim=1 or a radial model")
    fn = re_psi_profile(model, 1e12)
    a = max(lo, 1e-12)
    total = 0.0
    per_decade = 64
    for d in range(28):
        b = a * 10.0 ** (1.0 / per_decade)
        piece_decade = 0.0
        for _ in range(per_decade):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            u = mid + half * _gl16_x
            piece_decade += half * float(np.dot(
                _gl16_w, np.exp(-t * fn(u)) * u ** (n - 1)))
            a = b
            b = a * 10.0 ** (1.0 / per_decade)
        total += piece_decade
        # a zero piece (underflowed integrand) also terminates the march
        if piece_decade <= 1e-30 * total:
            break
    else:
        raise IntegrabilityRefusal(
            f"e^(-t Re psi) mass did not converge within the probed range at t={t}")
    return total


def chi_tail_mass(model: ModelSpec, t: float, delta: float) -> float:
    """Fraction of the L1 norm of e^{-t psi} outside |xi| > delta."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    if delta < 0.0:
        raise RangeError("delta must be nonnegative")
    pt_zero(model, t)                   # integrability probe; raises refusal
    if delta == 0.0:
        return 1.0
    full = _radial_weight_integral(model, t, 0.0)
    tail = _radial_weight_integral(model, t, delta)
    return min(1.0, tail / full)


def inf_re_psi_outside(model: ModelSpec, delta: float) -> Tuple[float, bool]:
    """(numerical inf of Re psi over |xi| > delta, near-zero flag).

    For monotone radial exponents the infimum sits at |xi| = delta.  The
    flag signals a value within 1e-6 of zero found beyond delta, the
    periodicity obstruction of lattice-supported jump measures.
    """
    if delta <= 0.0:
        raise RangeError("delta must be positive")
    fn = re_psi_profile(model, max(1e7, delta * 16.0))
    at_delta = float(fn(np.array([delta]))[0])
    u = np.geomspace(delta, max(1e6, delta * 8.0), 1 << 14)
    vals = fn(u)
    i = int(np.argmin(vals))
    best_u = u[i]
    lo = u[max(i - 1, 0)]
    hi = u[min(i + 1, u.size - 1)]
    for _ in range(4):
        uu = np.linspace(lo, hi, 513)
        vv = fn(uu)
        j = int(np.argmin(vv))
        best_u = uu[j]
        lo = uu[max(j - 1, 0)]
        hi = uu[min(j + 1, uu.size - 1)]
    m = float(min(at_delta, fn(np.array([best_u]))[0]))
    flag = m < 1e-6
    return max(m, 0.0), flag


def ratio_px_p0(model: ModelSpec, t: float, x) -> float:
    """p_t(x) / p_t(0) from a single inversion pass."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    if model.dim == 1:
        xv = float(np.asarray(x).reshape(-1)[0]) if np.ndim(x) else float(x)
        if xv == 0.0:
            return 1.0
        f = invert_grid(model, t, np.array([0.0, xv]))
        return float(f.values[1] / f.values[0])
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r == 0.0:
        return 1.0
    f = invert_radial(model, t, np.array([0.0, r]))
    return float(f.values[1] / f.values[0])


def semigroup_ratio(model: ModelSpec, f_nodes: Sequence[float],
                    f_values: Sequence[float], t: float,
                    x: float = 0.0) -> Tuple[float, float]:
    """(observed, target) for T_t f(x) / ||e^{-t psi}||_1.

    ``f`` is supplied as samples on a grid; integrals against f use the
    trapezoid rule.  T_t f(x) = int p_t(x - y) f(y) dy is evaluated with the
    density from one inversion pass on the shifted grid, the same quadrature
    engine as everywhere else.  The target is (2 pi)^{-n} times the trapezoid
    integral of f.
    """
    if model.dim != 1:
        raise UnsupportedModelError("sampled-f semigroup ratios are one-dimensional")
    y = np.asarray(f_nodes, dtype=float)
    fv = np.asarray(f_values, dtype=float)
    if y.ndim != 1 or y.shape != fv.shape or y.size < 2:
        raise RangeError("f must be sampled on a one-dimensional grid")
    if np.any(np.diff(y) <= 0.0):
        raise RangeError("f grid must be strictly increasing")
    dens = invert_grid(model, t, x - y[::-1])
    p = dens.values[::-1]               # p_t(x - y) on the y grid
    ttf = float(np.trapezoid(p * fv, y))
    norm = 2.0 * _radial_weight_integral(model, t, 0.0)
    target = float(np.trapezoid(fv, y)) / (2.0 * math.pi)
    return ttf / norm, target


def ratio_report(model: ModelSpec, delta: float, x: float,
                 t_grid: Sequence[float] = _T_LADDER) -> RatioReport:
    """Assemble the ladder of tail masses and density ratios."""
    m_delta, flag = inf_re_psi_outside(model, delta)
    tails = []
    ratios = []
    for t in t_grid:
        tails.append(chi_tail_mass(model, float(t), delta))
        ratios.append(ratio_px_p0(model, float(t), x))
    return RatioReport(tuple(float(t) for t in t_grid), float(delta),
                       tuple(tails), m_delta, flag, tuple(ratios), float(x),
                       {"tail_mass": 0.0, "ratio_px_p0": 1.0})
