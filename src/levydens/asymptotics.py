"""Regular-variation fits and doubling bounds for the density at the origin.

If the sublevel-measure function nu(x) = Leb{Re psi <= x} varies regularly,
nu(x) ~ x^{rho-1} L(x) with L slowly varying, then

    p_t(0) ~ (2 pi)^{-n} Gamma(rho) t^{1-rho} L(1/t),

and under volume doubling nu(2x) <= C nu(x) the two-sided bound

    c1 nu(1/t) <= (2 pi)^n p_t(0) <= c2 nu(1/t)

holds on the probed window.  The constants c1, c2 are reported as empirical
envelope constants over the window, not theoretical values.  The module also
checks the polynomial sublevel bound nu_phi(x) <= c x^lambda that makes
(1 + phi)^{-kappa/2} square integrable for kappa > lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special as _sp

from .errors import IntegrabilityRefusal, QuadratureError, RangeError
from .levy_core import ModelSpec
from .inversion import pt_zero
from . import rearrangement

_T_SMALL = (1e-3, 1e-1)
_T_LARGE = (10.0, 1e3)
_N_SAMPLES = 16


@dataclass(frozen=True)
class AsymptoticReport:
    """Fit diagnostics and predictions for p_t(0) in one limit direction."""

    direction: str                     # "t_to_0" or "t_to_inf"
    t_grid: np.ndarray
    observed: np.ndarray               # pt_zero samples on t_grid
    rho_fit: float
    L_anchor: float
    r_squared: float
    t_exponent: float                  # least-squares slope of ln p_t(0) vs ln t
    doubling_C: float                  # inf when doubling fails on the window
    alpha: float                       # ln(doubling_C)/ln 2
    predicted: Optional[np.ndarray]    # regular-variation prediction, if stable
    bounds: Optional[Tuple[float, float, np.ndarray]]  # (c1, c2, nu(1/t)) or None
    ratio_stats: dict

    def as_dict(self) -> dict:
        d = {
            "direction": self.direction,
            "t_grid": [float(t) for t in self.t_grid],
            "observed": [float(v) for v in self.observed],
            "rho_fit": self.rho_fit,
            "L_anchor": self.L_anchor,
            "r_squared": self.r_squared,
            "t_exponent": self.t_exponent,
            "doubling_C": self.doubling_C,
            "alpha": self.alpha,
            "predicted": None if self.predicted is None
            else [float(v) for v in self.predicted],
            "bounds": None if self.bounds is None else {
                "c1": self.bounds[0], "c2": self.bounds[1],
                "nu_inv_t": [float(v) for v in self.bounds[2]]},
            "ratio_stats": self.ratio_stats,
        }
        return d


def doubling_report(model: ModelSpec, x_range: Tuple[float, float]) -> Tuple[float, float]:
    """Sup of nu(2x)/nu(x) over the window and alpha = ln C / ln 2.

    A ratio that keeps growing across the window (no polynomial envelope),
    or one that is not finite (nu(x) = 0 or nu(2x) = inf), is reported as
    (inf, inf): the doubling property fails.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0.0 < x_lo < x_hi):
        raise RangeError(f"invalid doubling window [{x_lo}, {x_hi}]")
    xs = np.geomspace(x_lo, x_hi, 49)
    nu = rearrangement.nu_dist(model, np.stack((2.0 * xs, xs), axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = nu[:, 0] / nu[:, 1]
    if not np.all(np.isfinite(ratios)):
        return math.inf, math.inf
    c = float(np.max(ratios))
    # growth across the window means no window-independent constant exists:
    # compare the geometric mean of the top and bottom sixths of the ratios
    lo = float(np.exp(np.mean(np.log(ratios[:8]))))
    hi = float(np.exp(np.mean(np.log(ratios[-8:]))))
    if hi > 1.5 * lo and ratios[-1] >= 0.99 * c:
        return math.inf, math.inf
    return c, math.log(c) / math.log(2.0)


def fit_regular_variation(table: rearrangement.RearrangementTable,
                          window: Tuple[float, float]) -> Tuple[float, float]:
    """Power-law fit of the table on the window.

    Returns (rho, L_anchor) with nu(x) ~ x^{rho-1} L(x): rho - 1 is the
    least-squares slope of ln nu vs ln x, and L_anchor = nu(x_edge) /
    x_edge^{rho-1} at the right edge of the window.
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    mask = (table.x_nodes >= x_lo) & (table.x_nodes <= x_hi) & \
        np.isfinite(table.nu_values) & (table.nu_values > 0.0)
    if np.count_nonzero(mask) < 8:
        raise RangeError("fewer than 8 usable table nodes in the fit window")
    lx = np.log(table.x_nodes[mask])
    ly = np.log(table.nu_values[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    rho = float(slope) + 1.0
    x_edge = table.x_nodes[mask][-1]
    nu_edge = table.nu_values[mask][-1]
    l_anchor = float(nu_edge / x_edge ** (rho - 1.0))
    return rho, l_anchor


def _fit_r_squared(table, window, rho, l_anchor) -> float:
    x_lo, x_hi = window
    mask = (table.x_nodes >= x_lo) & (table.x_nodes <= x_hi) & \
        np.isfinite(table.nu_values) & (table.nu_values > 0.0)
    ly = np.log(table.nu_values[mask])
    # L_anchor is pinned at the window edge; R^2 uses the least-squares line
    lx = np.log(table.x_nodes[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-20 else 0.0
    return 1.0 - ss_res / ss_tot


def predict_pt0(model: ModelSpec, direction: str = "t_to_0") -> AsymptoticReport:
    """Compare pt_zero samples with the regular-variation prediction and bounds.

    The prediction (2 pi)^{-n} Gamma(rho) t^{1-rho} L(1/t) is emitted only
    when the power-law fit of nu on the window is stable (R^2 > 0.999); the
    envelope bounds c1 nu(1/t) <= (2 pi)^n p_t(0) <= c2 nu(1/t) are emitted
    whenever doubling holds, with empirical window constants.
    """
    if direction == "t_to_0":
        t_lo, t_hi = _T_SMALL
    elif direction == "t_to_inf":
        t_lo, t_hi = _T_LARGE
    else:
        raise RangeError(f"unknown direction '{direction}'")
    t_grid = np.geomspace(t_lo, t_hi, _N_SAMPLES)
    obs = np.array([pt_zero(model, float(t)) for t in t_grid])
    # the exponent fit uses the asymptotic half of the window, so that lower
    # order terms (tempering, cutoffs) at the far end do not bias the slope
    half = _N_SAMPLES // 2
    sel = slice(0, half) if direction == "t_to_0" else slice(-half, None)
    t_exp = float(np.polyfit(np.log(t_grid[sel]), np.log(obs[sel]), 1)[0])

    x_lo, x_hi = 1.0 / t_hi, 1.0 / t_lo
    table = rearrangement.build_table(model, 2.0 * x_hi, x_min=min(x_lo, 1e-3))
    rho, l_anchor = fit_regular_variation(table, (x_lo, x_hi))
    r2 = _fit_r_squared(table, (x_lo, x_hi), rho, l_anchor)

    n = model.dim
    predicted = None
    if r2 > 0.999 and rho > 0.0:
        predicted = (2.0 * math.pi) ** (-n) * _sp.gamma(rho) * \
            t_grid ** (1.0 - rho) * l_anchor

    c_doub, alpha = doubling_report(model, (x_lo, x_hi))
    bounds = None
    if math.isfinite(c_doub):
        nu_inv_t = rearrangement.nu_dist(model, 1.0 / t_grid)
        scaled = (2.0 * math.pi) ** n * obs / nu_inv_t
        bounds = (float(np.min(scaled)), float(np.max(scaled)), nu_inv_t)

    stats = {}
    if predicted is not None:
        ratio = obs / predicted
        stats["pred_ratio_min"] = float(np.min(ratio))
        stats["pred_ratio_max"] = float(np.max(ratio))
        stats["pred_rel_err_max"] = float(np.max(np.abs(ratio - 1.0)))
    if bounds is not None:
        stats["envelope_spread"] = bounds[1] / bounds[0]

    return AsymptoticReport(direction, t_grid, obs, rho, l_anchor, r2, t_exp,
                            c_doub, alpha, predicted, bounds, stats)


def phi_integrability(phi_model: ModelSpec, kappa: float):
    """Check the polynomial sublevel bound for the symbol phi = Re psi_phi.

    Succeeds when nu_phi(x) <= c x^lambda on [1, x_max] with lambda taken
    from the doubling constant; then (1 + phi)^{-kappa/2} is square
    integrable for every kappa > lambda.  Returns (True, {"c":..,
    "lambda":.., "kappa_ok":..}) or (False, {"failing_x":..}).
    """
    if kappa <= 0.0:
        raise RangeError("kappa must be positive")
    x_max = 50.0
    try:
        c_doub, lam = doubling_report(phi_model, (1.0, x_max))
    except IntegrabilityRefusal:
        return False, {"failing_x": x_max,
                       "reason": "sublevel measure infinite on the window"}
    if not math.isfinite(c_doub):
        xs = np.geomspace(1.0, x_max, 25)
        vals = rearrangement.nu_dist(phi_model, xs)
        # report the first abscissa where the doubling ratio exceeds any
        # polynomial envelope fitted from the lower half of the window
        half = len(xs) // 2
        slope = np.polyfit(np.log(xs[:half]), np.log(np.maximum(vals[:half], 1e-300)), 1)[0]
        envelope = vals[half - 1] * (xs / xs[half - 1]) ** (2.0 * slope + 1.0)
        bad = np.nonzero(vals > envelope)[0]
        failing = float(xs[bad[0]]) if bad.size else float(xs[-1])
        return False, {"failing_x": failing, "reason": "doubling fails"}
    xs = np.geomspace(1.0, x_max, 49)
    vals = rearrangement.nu_dist(phi_model, xs)
    c = float(np.max(vals / xs ** lam))
    ok = kappa > lam
    return ok, {"c": c, "lambda": lam, "kappa_ok": ok}
