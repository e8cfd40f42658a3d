"""Growth functionals of the exponent and verdict reports.

Each functional is sampled on a dyadic probe grid (|xi| = 2^k or eps = 2^-k)
and summarized by trailing statistics plus a log-log slope taken in the
direction of the limit (toward |xi| -> inf, i.e. against 1/eps for the
eps -> 0 functionals).  Verdicts are explicit finite-window estimates:

    diverges      trailing_min > 10 and slope > 0
    vanishes      trailing_max < 0.1 and slope < 0
    bounded       |slope| <= 0.05
    inconclusive  otherwise

The functionals: Re psi / ln(1+|xi|) (Hartman-Wintner quotient), the
truncated-second-moment quotient of the jump measure over eps^2 |ln eps|
(Kallenberg), the tail-mass quotient nu(B_eps^c)/|ln eps|, the same
Hartman-Wintner quotient for the increasing rearrangement of Re psi, and a
generalized quotient Re psi / ln(1 + phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegrabilityRefusal,
    RangeError,
    UnsupportedModelError,
)
from .levy_core import ModelSpec, _radial_breach, _re_psi_rows, re_psi_profile
from .measures import ball_volume
from . import rearrangement

_K_DEFAULT = (4, 40)
_TRAILING_W = 8


@dataclass(frozen=True)
class LimitReport:
    """Finite-window estimate of a limit functional.

    ``slope`` is the least-squares slope of ln(value) against the log of the
    abscissa oriented toward the limit, over the trailing window.  A finite
    window never claims a limit; ``verdict`` is an estimate by the rule in
    the module docstring.
    """

    functional: str
    probe_grid: np.ndarray          # the actual abscissae (xi or eps)
    values: np.ndarray
    trailing_min: float
    trailing_max: float
    slope: float
    verdict: str
    threshold_compare: Optional[dict] = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "functional": self.functional,
            "grid": [float(g) for g in self.probe_grid],
            "values": [float(v) for v in self.values],
            "trailing_min": self.trailing_min,
            "trailing_max": self.trailing_max,
            "slope": self.slope,
            "verdict": self.verdict,
            "threshold_compare": self.threshold_compare,
            "note": self.note,
        }


def _make_report(functional: str, grid: np.ndarray, values: np.ndarray,
                 toward: np.ndarray, threshold_compare: Optional[dict] = None,
                 note: str = "") -> LimitReport:
    """Assemble a LimitReport; ``toward`` is the abscissa growing with the limit."""
    values = np.asarray(values, dtype=float)
    w = min(_TRAILING_W, values.size)
    tail_vals = values[-w:]
    t_min = float(np.min(tail_vals))
    t_max = float(np.max(tail_vals))
    finite = np.isfinite(tail_vals) & (tail_vals > 0)
    if t_max == 0.0:
        slope = 0.0
        verdict = "vanishes"
    else:
        if np.count_nonzero(finite) >= 2:
            lx = np.log(np.asarray(toward, float)[-w:][finite])
            ly = np.log(tail_vals[finite])
            slope = float(np.polyfit(lx, ly, 1)[0])
        else:
            slope = math.nan
        if t_min > 10.0 and slope > 0.0:
            verdict = "diverges"
        elif t_max < 0.1 and slope < 0.0:
            verdict = "vanishes"
        elif math.isfinite(slope) and abs(slope) <= 0.05:
            verdict = "bounded"
        else:
            verdict = "inconclusive"
    return LimitReport(functional, np.asarray(grid, float), values,
                       t_min, t_max, slope, verdict, threshold_compare, note)


def _k_array(k_range: Tuple[int, int]) -> np.ndarray:
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_hi < k_lo:
        raise RangeError("empty probe range")
    return np.arange(k_lo, k_hi + 1)


def _directions(n: int) -> np.ndarray:
    """Axes plus the 2^n - 2 off-axis sign diagonals (unit vectors)."""
    dirs = [np.eye(n)[i] for i in range(n)]
    if n > 1:
        for mask in range(2 ** n):
            signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(n)])
            if abs(signs.sum()) == n:      # pure axes multiples already covered
                continue
            dirs.append(signs / math.sqrt(n))
    return np.array(dirs)


def _re_psi_on_ray(model: ModelSpec, u: np.ndarray) -> np.ndarray:
    """min over the probe directions of Re psi at radius u (liminf proxy)."""
    if not _radial_breach(model):
        return re_psi_profile(model)(u)
    dirs = _directions(model.dim)
    rows = (dirs[:, None, :] * u[None, :, None]).reshape(-1, model.dim)
    return np.min(_re_psi_rows(model, rows).reshape(dirs.shape[0], -1), axis=0)


def hw_functional(model: ModelSpec, k_range: Tuple[int, int] = _K_DEFAULT,
                  t_opt: Optional[float] = None) -> LimitReport:
    """Hartman-Wintner quotient Re psi(xi)/ln(1+|xi|) at |xi| = 2^k."""
    k = _k_array(k_range)
    xi = 2.0 ** k
    vals = _re_psi_on_ray(model, xi) / np.log1p(xi)
    tc = None
    if t_opt is not None:
        if not 0.0 < t_opt < math.inf:
            raise RangeError(f"time t={t_opt} must be positive and finite")
        thr = model.dim / t_opt
        w = min(_TRAILING_W, vals.size)
        tc = {"t": t_opt, "threshold": thr,
              "pass": bool(float(np.min(vals[-w:])) > thr)}
    return _make_report("hw", xi, vals, xi, threshold_compare=tc)


def _radial_masses(model: ModelSpec, eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(int_{|y| <= eps} |y|^2 nu(dy), nu(B_eps^c)) at each eps of an array,
    for radial measures."""
    m2, tail = np.zeros_like(eps), np.zeros_like(eps)
    prof = model.measure.radial_profile(model.dim)
    if prof is not None:
        m2 += eps * eps * prof.scaled_moment(2, eps)
        tail += prof.tail_mass(eps)
    for r, mass in model.measure.radial_atoms():
        m2 += np.where(r <= eps, mass * r * r, 0.0)
        tail += np.where(r > eps, mass, 0.0)
    return m2, tail


def kallenberg_functional(model: ModelSpec,
                          k_range: Tuple[int, int] = _K_DEFAULT) -> LimitReport:
    """Truncated-second-moment quotient at eps = 2^-k.

    One-dimensional form int_{-eps}^{eps} y^2 nu(dy) / (eps^2 |ln eps|); for
    radial measures in higher dimension the same radial integral against the
    tail function of nu.
    """
    if model.dim > 1 and not model.measure.is_radial:
        raise UnsupportedModelError(
            "the truncated-moment functional needs dim=1 or a radial measure")
    k = _k_array(k_range)
    eps = 2.0 ** (-k.astype(float))
    vals = _radial_masses(model, eps)[0] / (eps * eps * np.abs(np.log(eps)))
    return _make_report("kallenberg", eps, vals, 1.0 / eps)


def tail_mass_functional(model: ModelSpec,
                         k_range: Tuple[int, int] = _K_DEFAULT) -> LimitReport:
    """Tail-mass quotient nu(B_eps^c)/|ln eps| at eps = 2^-k."""
    if not model.measure.is_radial:
        raise UnsupportedModelError("the tail-mass functional needs a radial measure")
    note = ""
    if model.dim == 1:
        note = ("the tail-mass equivalence with the Hartman-Wintner quotient "
                "is stated for dim >= 2; dim=1 values are informational")
    k = _k_array(k_range)
    eps = 2.0 ** (-k.astype(float))
    vals = _radial_masses(model, eps)[1] / np.abs(np.log(eps))
    return _make_report("tail_mass", eps, vals, 1.0 / eps, note=note)


def hw_star_functional(model: ModelSpec,
                       k_range: Tuple[int, int] = _K_DEFAULT) -> LimitReport:
    """Hartman-Wintner quotient of the increasing rearrangement of Re psi.

    (Re psi)_*(xi) is read radially as nu^{-1}(V_n |xi|^n) with V_n the unit
    ball volume, which preserves int e^{-t (Re psi)_*} = int e^{-t Re psi}.
    """
    k = _k_array(k_range)
    xi = 2.0 ** k
    vn = ball_volume(model.dim)
    vals = np.empty_like(xi)
    note = ""
    for i, x in enumerate(xi):
        try:
            vals[i] = rearrangement.nu_inverse(model, vn * x ** model.dim)
        except RangeError:
            vals[i] = math.nan
            note = "rearrangement table range exceeded at the largest scales"
    vals = vals / np.log1p(xi)
    return _make_report("hw_star", xi, vals, xi, note=note)


def hw_phi_functional(model: ModelSpec, phi_model: ModelSpec,
                      k_range: Tuple[int, int] = _K_DEFAULT) -> LimitReport:
    """Generalized quotient Re psi(xi) / ln(1 + phi(xi)) with phi = Re psi_phi."""
    if phi_model.dim != model.dim:
        raise DimensionMismatchError(
            f"phi model dimension {phi_model.dim} != model dimension {model.dim}")
    k = _k_array(k_range)
    xi = 2.0 ** k
    num = _re_psi_on_ray(model, xi)
    phi = _re_psi_on_ray(phi_model, xi)
    vals = num / np.log1p(phi)
    return _make_report("hw_phi", xi, vals, xi)


def classify(model: ModelSpec, t_list: Sequence[float] = (0.5, 1.0, 2.0)) -> dict:
    """Aggregate the functional reports into a density-existence verdict.

    The ladder: a diverging Hartman-Wintner quotient predicts a smooth
    density for every t with all derivatives integrable; the per-t threshold
    n/t predicts existence at that t and is cross-checked by a direct
    integrability probe of e^{-t Re psi}; a Re psi liminf estimate that
    decays along dyadic scales (probed at 2^k and 2 pi 2^k, where dyadic atom
    constructions recur) triggers the Riemann-Lebesgue necessity flag: if
    Re psi does not diverge, no density can exist at any t.
    """
    hw = hw_functional(model)

    # liminf proxy for Re psi itself over the trailing dyadic scales
    ks = np.arange(24, 41)
    cand = np.concatenate([2.0 ** ks, 2.0 * math.pi * 2.0 ** ks])
    re_vals = _re_psi_on_ray(model, cand)
    liminf_est = float(np.min(re_vals))
    no_density = liminf_est < 0.5

    per_t = []
    for t in t_list:
        if not 0.0 < t < math.inf:
            raise RangeError(f"time t={t} must be positive and finite")
        rep = hw_functional(model, t_opt=t)
        probe = "unavailable"
        try:
            from .inversion import pt_zero
            pt_zero(model, t)
            probe = "converges"
        except IntegrabilityRefusal:
            probe = "diverges"
        except (UnsupportedModelError, RangeError):
            probe = "unavailable"
        per_t.append({
            "t": t,
            "threshold": model.dim / t,
            "hw_pass": rep.threshold_compare["pass"],
            "integrability_probe": probe,
        })

    if no_density:
        verdict = "no density (Re psi does not diverge)"
    elif hw.verdict == "diverges":
        verdict = "smooth density for all t"
    else:
        passed = [p["t"] for p in per_t if p["hw_pass"]]
        if passed:
            verdict = f"density expected for t in {sorted(passed)} (threshold rule)"
        else:
            verdict = "inconclusive at the probed times"
    return {
        "model": model.name,
        "verdict": verdict,
        "hw_infinity": hw.verdict,
        "smooth_density_all_t": hw.verdict == "diverges" and not no_density,
        "re_psi_liminf": {
            "estimate": liminf_est,
            "scales": [float(c) for c in (2.0 ** ks)],
            "no_density_flag": no_density,
        },
        "per_t": per_t,
    }
