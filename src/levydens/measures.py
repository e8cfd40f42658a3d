"""Levy measure specifications and radial-profile primitives.

A radial measure is represented through its radial marginal: the measure mu on
(0, inf) with mu((r, inf)) = total mass outside the centered ball of radius r.
For a rotation-invariant density n(|y|) in R^n this marginal has density
rho(r) = omega_{n-1} r^{n-1} n(r), with omega_{n-1} = 2 pi^{n/2} / Gamma(n/2).

Each built-in family exposes closed forms for its truncated second and fourth
moments (over r0^p, so that no power underflows), its tail mass and its
density in s = u r; the quadrature engine leans on these to tame the
singularity at 0 and the oscillatory tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import special as _sp

from .errors import ModelFormatError, UnsupportedModelError


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)


def stable_density_constant(n: int, alpha: float) -> float:
    """c(n, alpha) with nu(dy) = c |y|^{-n-alpha} dy giving psi(xi) = |xi|^alpha."""
    if not 0.0 < alpha < 2.0:
        raise ModelFormatError(f"stable index alpha={alpha} must lie in (0, 2)")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 * (alpha + n))
        / (math.pi ** (0.5 * n) * math.gamma(1.0 - 0.5 * alpha))
    )


def _upper_incomplete_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for a > -2, x > 0, via recurrence into the a > 0 range."""
    if a > 0.0:
        return _sp.gammaincc(a, x) * math.gamma(a)
    if abs(a) < 1e-12:
        return _sp.exp1(x)
    # Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a
    return (_upper_incomplete_gamma(a + 1.0, x) - x ** a * np.exp(-x)) / a


def _scaled_lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """gamma(a, x) / x^a for a > 0 over an array x > 0; up to x = 1 the
    series sum_k (-x)^k / (k! (a + k)), within 3e-16, so no x^a underflows."""
    small = np.minimum(x, 1.0)
    term, acc = np.ones_like(small), np.full_like(small, 1.0 / a)
    for k in range(1, 22):
        term = term * -small / k
        acc = acc + term / (a + k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(x <= 1.0, acc, _sp.gammainc(a, x) * math.gamma(a) / x ** a)


class RadialProfile:
    """Base class for radial marginal measures on (0, inf)."""

    #: (r_lo, r_hi) support; r_hi may be math.inf
    support: Tuple[float, float] = (0.0, math.inf)

    def density(self, r: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def s_density(self, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """rho(s / u) / u, the density in s = u r (u broadcasts against s)."""
        return self.density(s / u) / u

    def scaled_moment(self, p: int, r0: np.ndarray) -> np.ndarray:
        """int_0^{r0} (r / r0)^p rho(r) dr for p = 2, 4 over an array r0 > 0:
        the truncated moment over r0^p, formed with no r0^p to underflow."""
        raise NotImplementedError

    def tail_mass(self, r):
        """mu((r, inf)) for a float r (a float is returned) or an array."""
        arr = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self._tail_mass(arr.reshape(-1))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _tail_mass(self, r: np.ndarray) -> np.ndarray:  # over a 1-d array
        raise NotImplementedError

    def levy_integrability_check(self) -> float:
        """int (1 ^ r^2) dmu, which must be finite for a Levy measure."""
        return float(self.scaled_moment(2, np.ones(1))[0]) + self.tail_mass(1.0)


@dataclass(frozen=True)
class PowerLawProfile(RadialProfile):
    """rho(r) = c r^{-1-alpha} on (0, r_max]; the (truncated) stable family."""

    c: float
    alpha: float
    r_max: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ModelFormatError(f"alpha={self.alpha} outside (0, 2)")
        if self.c < 0:
            raise ModelFormatError("power-law coefficient must be nonnegative")
        object.__setattr__(self, "support", (0.0, self.r_max))

    def density(self, r):
        return self.c * np.asarray(r, dtype=float) ** (-1.0 - self.alpha)

    def s_density(self, s, u):
        return self.c * s ** (-1.0 - self.alpha) * u ** self.alpha

    def scaled_moment(self, p, r0):
        r = np.minimum(r0, self.r_max)
        return self.c * (r / r0) ** p * r ** -self.alpha / (p - self.alpha)

    def _tail_mass(self, r):
        # r_max ** -alpha is 0.0 for an infinite r_max
        out = self.c * (r ** (-self.alpha) - self.r_max ** (-self.alpha)) / self.alpha
        return np.where(r >= self.r_max, 0.0, np.where(r <= 0.0, math.inf, out))


@dataclass(frozen=True)
class TemperedPowerLawProfile(RadialProfile):
    """rho(r) = c r^{-1-alpha} e^{-lam r}: tempered stable, and at alpha = 0
    (c = 2, lam = 1) the symmetrized Gamma subordinator measure 2 e^{-r} / r."""

    c: float
    alpha: float
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2.0:
            raise ModelFormatError(f"alpha={self.alpha} outside [0, 2)")
        if self.lam <= 0:
            raise ModelFormatError("tempering rate must be positive")
        object.__setattr__(self, "support", (0.0, math.inf))

    def density(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * r ** (-1.0 - self.alpha) * np.exp(-self.lam * r)

    def s_density(self, s, u):
        return self.c * s ** (-1.0 - self.alpha) * u ** self.alpha * np.exp(-self.lam * s / u)

    def scaled_moment(self, p, r0):
        return self.c * r0 ** -self.alpha * _scaled_lower_gamma(p - self.alpha, self.lam * r0)

    def _tail_mass(self, r):
        out = self.c * self.lam ** self.alpha * _upper_incomplete_gamma(-self.alpha, self.lam * r)
        return np.where(r <= 0.0, math.inf, out)


@dataclass(frozen=True)
class LogKernelProfile(RadialProfile):
    """rho(r) = 2 ln(1/r) / r on (0, 1): the slowly-growing exponent example."""

    def __post_init__(self):
        object.__setattr__(self, "support", (0.0, 1.0))

    def density(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * np.log(1.0 / r) / r

    def scaled_moment(self, p, r0):
        # int_0^r x^p 2 ln(1/x) / x dx = (2 / p) r^p (1 / p - ln r)
        r = np.minimum(r0, 1.0)
        return (r / r0) ** p * (2.0 / p) * (1.0 / p - np.log(r))

    def _tail_mass(self, r):
        return np.where(r >= 1.0, 0.0, np.where(r <= 0.0, math.inf, np.log(r) ** 2))


@dataclass(frozen=True)
class TableProfile(RadialProfile):
    """Radial marginal density sampled on a grid, log-log interpolated.  Its
    moments and tail mass integrate the interpolant exactly, segment by
    segment: r^p rho is a power on a ``loglog`` one and a polynomial of
    degree p + 1 on a ``linear`` one."""

    r_nodes: Tuple[float, ...]
    rho_values: Tuple[float, ...]
    interp: str = "loglog"  # or 'linear'

    def __post_init__(self):
        r = np.asarray(self.r_nodes, dtype=float)
        v = np.asarray(self.rho_values, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ModelFormatError("radial table needs at least two nodes", field="measure.r_nodes")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise ModelFormatError("radial table nodes must be positive and increasing", field="measure.r_nodes")
        if np.any(v < 0):
            raise ModelFormatError("radial table densities must be nonnegative", field="measure.rho_values")
        if self.interp not in ("loglog", "linear"):
            raise ModelFormatError(f"unknown interpolation rule '{self.interp}'", field="measure.interp")
        object.__setattr__(self, "support", (float(r[0]), float(r[-1])))

    def _log_rho(self, log_r):
        """log rho of the loglog interpolant, zero nodes floored at -745."""
        with np.errstate(divide="ignore"):
            logv = np.maximum(np.log(np.asarray(self.rho_values, dtype=float)), -745.0)
        return np.interp(log_r, np.log(np.asarray(self.r_nodes, dtype=float)), logv)

    def density(self, r):
        r = np.asarray(r, dtype=float)
        rn = np.asarray(self.r_nodes, dtype=float)
        if self.interp == "linear":
            return np.interp(r, rn, np.asarray(self.rho_values, dtype=float), left=0.0, right=0.0)
        out = np.exp(self._log_rho(np.log(np.maximum(r, 1e-300))))
        out[(r < rn[0]) | (r > rn[-1])] = 0.0
        return out

    def _piece(self, p, a, b):
        """int_a^b r^p rho(r) dr for each a <= b inside one segment."""
        if self.interp == "linear":   # 3-point Gauss-Legendre: exact to degree 5
            half = 0.5 * (b - a)
            pts = (a + half)[:, None] + half[:, None] * np.array([-0.6 ** 0.5, 0.0, 0.6 ** 0.5])
            vals = pts ** p * self.density(pts)
            return half * (5.0 * (vals[:, 0] + vals[:, 2]) + 8.0 * vals[:, 1]) / 9.0
        # rho = c r^k, so r^p rho = C r^(e-1): the integral is F L phi(|e| L)
        # with L = log(b/a), F the larger of r^(p+1) rho at a and b (no power
        # overflows) and phi(y) = (1 - e^-y) / y, which is 1 at e = 0
        la, lb = np.log(a), np.log(b)
        fa, fb = ((p + 1) * lr + self._log_rho(lr) for lr in (la, lb))
        y = np.maximum(np.abs(fb - fa), 1e-300)
        return np.exp(np.maximum(fa, fb)) * (lb - la) * (-np.expm1(-y) / y)

    @cached_property
    def _sums(self):
        """Whole-segment integrals of r^p rho summed to each node (p = 2, 4) or on from it (p = 0)."""
        rn = np.asarray(self.r_nodes, dtype=float)
        seg = {p: self._piece(p, rn[:-1], rn[1:]) for p in (0, 2, 4)}
        return {0: np.append(np.cumsum(seg[0][::-1])[::-1], 0.0),
                **{p: np.append(0.0, np.cumsum(seg[p])) for p in (2, 4)}}

    def _integral(self, p, r):
        """int of r^p rho up to r (p = 2, 4) or on from r (p = 0), r clipped to the support."""
        rn = np.asarray(self.r_nodes, dtype=float)
        r = np.clip(r, rn[0], rn[-1])
        i = np.minimum(np.searchsorted(rn, r, side="right") - 1, rn.size - 2)
        if p == 0:
            return self._piece(0, r, rn[i + 1]) + self._sums[0][i + 1]
        return self._sums[p][i] + self._piece(p, rn[i], r)

    def scaled_moment(self, p, r0):
        out = self._integral(p, r0)
        for _ in range(p):      # r0^p itself may underflow
            out = out / r0
        return out

    def _tail_mass(self, r):
        return self._integral(0, r)


@dataclass(frozen=True)
class AtomSpec:
    """One atom: either a point in R^n or a radius with symmetric placement."""

    mass: float
    radius: Optional[float] = None
    point: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if (self.radius is None) == (self.point is None):
            raise ModelFormatError("atom needs exactly one of 'radius' or 'point'", field="measure.atoms")
        coords = [self.mass, self.radius] if self.point is None else [self.mass, *self.point]
        if not np.all(np.isfinite(np.asarray(coords, dtype=float))):
            raise ModelFormatError("atom mass, radius and point must be finite",
                                   field="measure.atoms")
        if self.mass < 0:
            raise ModelFormatError("atom mass must be nonnegative", field="measure.atoms")
        if self.radius is not None and self.radius <= 0:
            raise ModelFormatError("atom radius must be strictly positive", field="measure.atoms")
        if self.point is not None and all(abs(c) == 0.0 for c in self.point):
            raise ModelFormatError("atom point must not be the origin", field="measure.atoms")


@dataclass(frozen=True)
class MeasureSpec:
    """Variant type for the Levy measure of a model.

    variant 'none'   : no jump part
    variant 'atoms'  : finite/countable list of AtomSpec
    variant 'family' : built-in radial family with parameters
    variant 'table'  : sampled radial density
    """

    variant: str
    atoms: Tuple[AtomSpec, ...] = ()
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    r_nodes: Tuple[float, ...] = ()
    rho_values: Tuple[float, ...] = ()
    interp: str = "loglog"
    onesided: bool = False  # only meaningful for family='gamma_type'

    FAMILIES = ("stable", "tempered_stable", "truncated_stable", "log_kernel", "gamma_type")

    def __post_init__(self):
        if self.variant not in ("none", "atoms", "family", "table"):
            raise ModelFormatError(f"unknown measure variant '{self.variant}'", field="measure.variant")
        if self.variant == "family" and self.family not in self.FAMILIES:
            raise ModelFormatError(f"unknown radial family '{self.family}'", field="measure.family")
        if self.onesided and self.family != "gamma_type":
            raise ModelFormatError("'onesided' is only supported for the gamma_type family", field="measure.onesided")

    @property
    def is_radial(self) -> bool:
        if self.variant == "none":
            return True
        if self.variant in ("family", "table"):
            return not self.onesided
        return all(a.radius is not None for a in self.atoms)

    def radial_profile(self, dim: int) -> Optional[RadialProfile]:
        """Radial marginal of the continuous part (None for atoms / no jumps)."""
        if self.variant == "family":
            p = self.params
            if self.family == "stable":
                alpha = float(p["alpha"])
                c = stable_density_constant(dim, alpha) * sphere_surface(dim)
                return PowerLawProfile(c=c, alpha=alpha)
            if self.family == "truncated_stable":
                alpha = float(p["alpha"])
                c = stable_density_constant(dim, alpha) * sphere_surface(dim)
                return PowerLawProfile(c=c, alpha=alpha, r_max=float(p.get("R", 1.0)))
            if self.family == "tempered_stable":
                alpha = float(p["alpha"])
                c = stable_density_constant(dim, alpha) * sphere_surface(dim)
                return TemperedPowerLawProfile(c=c, alpha=alpha, lam=float(p.get("lam", 1.0)))
            if self.family == "log_kernel":
                if dim != 1:
                    raise UnsupportedModelError("log_kernel family is defined in dimension 1")
                return LogKernelProfile()
            if self.family == "gamma_type":
                if dim != 1:
                    raise UnsupportedModelError("gamma_type family is defined in dimension 1")
                return TemperedPowerLawProfile(c=2.0, alpha=0.0, lam=1.0)
        if self.variant == "table":
            return TableProfile(tuple(self.r_nodes), tuple(self.rho_values), self.interp)
        return None

    def radial_atoms(self) -> Sequence[Tuple[float, float]]:
        """(radius, mass) pairs for radius-type atoms."""
        return [(a.radius, a.mass) for a in self.atoms if a.radius is not None]

    def point_atoms(self) -> Sequence[Tuple[np.ndarray, float]]:
        return [(np.asarray(a.point, dtype=float), a.mass) for a in self.atoms if a.point is not None]
