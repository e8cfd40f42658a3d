"""Large-time ratio limits of the semigroup and its normalized symbol.

With chi_t = e^{-t psi} / ||e^{-t psi}||_1, the mass of chi_t outside any
ball vanishes as t grows, which drives the three ratio limits

    T_t f(x) / ||e^{-t psi}||_1  ->  (2 pi)^{-n} integral of f,
    p_t(x) / p_t(0)              ->  1,

locally uniformly.  The operations here exhibit those limits numerically on
a t-ladder and report every rung rather than claiming a limit.

The L1 norm of e^{-t psi} is split at |xi| = delta: ``quadrature``'s
``_head_integral`` sums the inside and ``_tail_integral`` the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, QuadratureError, RangeError, UnsupportedModelError
from .levy_core import ModelSpec, re_psi_profile
from .inversion import invert_grid, invert_radial, pt_zero
from .quadrature import _head_integral, _tail_integral

_T_LADDER = (1.0, 10.0, 100.0, 1000.0)
_MASS_PANELS = 64     # GL-16 panels per decade of the e^{-t psi} masses


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


def _masses(model: ModelSpec, t: float, delta: float) -> Tuple[float, float]:
    """(int_0^delta, int_delta^inf) of e^{-t Re psi(u)} u^{n-1} du."""
    pt_zero(model, t)                   # integrability probe; raises refusal
    profile = re_psi_profile(model)
    env = lambda u: np.exp(-t * profile(u))
    return (_head_integral(env, model.dim, delta, panels=_MASS_PANELS),
            _tail_integral(env, model.dim, delta, panels=_MASS_PANELS))


def chi_tail_mass(model: ModelSpec, t: float, delta: float) -> float:
    """Fraction of the L1 norm of e^{-t psi} outside |xi| > delta."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    if not 0.0 <= delta < math.inf:
        raise RangeError(f"delta={delta} must be nonnegative and finite")
    head, tail = _masses(model, t, delta)
    return tail / (head + tail)


def inf_re_psi_outside(model: ModelSpec, delta: float) -> Tuple[float, bool]:
    """(numerical inf of Re psi over |xi| > delta, near-zero flag).

    For monotone radial exponents the infimum sits at |xi| = delta.  The
    flag signals a value within 1e-6 of zero found beyond delta, the
    periodicity obstruction of lattice-supported jump measures.
    """
    if not 0.0 < delta < math.inf:
        raise RangeError(f"delta={delta} must be positive and finite")
    fn = re_psi_profile(model)
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
    """p_t(x) / p_t(0) from a single inversion pass.

    ``x`` is a point with ``model.dim`` coordinates, or a scalar: the
    coordinate in dim 1, the radius |x| above (the exponent is radial)."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    xa = np.asarray(x, dtype=float)
    if xa.ndim and xa.size != model.dim:
        raise DimensionMismatchError(
            f"field 'x' has {xa.size} coordinates, model dim is {model.dim}")
    xv = float(xa.reshape(-1)[0]) if model.dim == 1 else float(np.linalg.norm(xa))
    if not math.isfinite(xv):
        raise RangeError(f"x={x} must be finite")
    if xv == 0.0:
        return 1.0
    if model.dim > 1:
        f = invert_radial(model, t, np.array([0.0, xv]))
        return float(f.values[1] / f.values[0])
    # the two-node grid runs upward: [0, x], or [x, 0] for x < 0
    f = invert_grid(model, t, np.array(sorted((0.0, xv))))
    p0, px = f.values if xv > 0.0 else f.values[::-1]
    return float(px / p0)


def semigroup_ratio(model: ModelSpec, f_nodes: Sequence[float],
                    f_values: Sequence[float], t: float,
                    x: float = 0.0) -> Tuple[float, float]:
    """(observed, target) for T_t f(x) / ||e^{-t psi}||_1.

    ``f`` is supplied as samples on a grid; integrals against f use the
    trapezoid rule.  T_t f(x) = int p_t(x - y) f(y) dy is evaluated with the
    density from one inversion pass on the shifted grid, the same quadrature
    engine as everywhere else.  The target is (2 pi)^{-n} times the trapezoid
    integral of f.  The density's ``tail_bound`` times the integral of |f|,
    over the norm, bounds the error of the observed ratio; when that bound
    is not below |target| the ratio says nothing and ``QuadratureError``
    naming field ``t`` is raised (the density exists, so this is not a
    refusal).
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
    norm = 2.0 * sum(_masses(model, t, 1.0))    # Re psi is even in dim 1
    target = float(np.trapezoid(fv, y)) / (2.0 * math.pi)
    bound = dens.tail_bound * float(np.trapezoid(np.abs(fv), y)) / norm
    if bound >= abs(target):
        raise QuadratureError(
            f"semigroup ratio at t={t}: its error bound is not below the target "
            f"{target:.3e}", achieved=bound, field="t")
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
