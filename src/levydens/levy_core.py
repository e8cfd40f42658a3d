"""Model representation and characteristic-exponent evaluation.

The exponent convention is

    psi(xi) = i l . xi + (1/2) xi . Q xi
              + int (1 - e^{i y.xi} + i y.xi / (1 + |y|^2)) nu(dy),

so that E e^{i xi . X_t} = e^{-t psi(xi)} and Re psi >= 0.  For symmetric
measures the compensator drops and the jump integrand reduces to
1 - cos(y . xi).

Two evaluation routes exist for isotropic models: eval_re_psi integrates
the direction-averaged cosine kernel, while iso_g integrates the normalized
Bessel kernel from specfun.  Both run ``_radial_jump`` on the same engine
layout.  In dims 1 and 3 the two kernels are the same functions (cos s and
sin s / s), so the routes agree bit for bit there; only in the other
dimensions is their agreement a check of the kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import special as _sp
from scipy.interpolate import PchipInterpolator

from .errors import (
    DimensionMismatchError,
    ModelFormatError,
    NotMonotoneError,
    RangeError,
    UnsupportedModelError,
)
from .measures import AtomSpec, MeasureSpec, sphere_surface
from .quadrature import _FOLD_CHUNK
from .radialquad import RadialQuadEngine, one_minus_kernel, sphere_avg_cos
from . import specfun

# int_0^inf e^{-y} / (1 + y^2) dy, the compensator constant of the one-sided
# unit-rate gamma-type measure; expressed through sine/cosine integrals.
_si1, _ci1 = _sp.sici(1.0)
GAMMA_COMPENSATOR = float(_ci1 * math.sin(1.0) + (0.5 * math.pi - _si1) * math.cos(1.0))


@dataclass(frozen=True)
class ModelSpec:
    """A Levy triplet (drift, Gaussian matrix, jump measure) in R^dim.

    ``g_exact`` (the jump part of Re psi as a function of |xi|) and
    ``psi_exact_vec`` (psi on an array of frequencies, dim 1) are optional
    closed forms attached to built-in models; they bypass quadrature but
    never change the model's meaning.
    """

    dim: int
    drift: Tuple[float, ...]
    gaussian: Tuple[Tuple[float, ...], ...]
    measure: MeasureSpec
    isotropic: bool = False
    name: str = ""
    g_exact: Optional[Callable] = field(default=None, compare=False, repr=False)
    psi_exact_vec: Optional[Callable] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ModelFormatError(f"dim={n} must be a positive integer", field="dim")
        if len(self.drift) != n:
            raise ModelFormatError(
                f"drift has length {len(self.drift)}, expected {n}", field="drift")
        if not np.all(np.isfinite(np.asarray(self.drift, dtype=float))):
            raise ModelFormatError("drift must be finite", field="drift")
        q = np.asarray(self.gaussian, dtype=float)
        if q.shape != (n, n):
            raise ModelFormatError(
                f"gaussian matrix has shape {q.shape}, expected ({n}, {n})", field="gaussian")
        if not np.all(np.isfinite(q)):
            raise ModelFormatError("gaussian matrix must be finite", field="gaussian")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ModelFormatError("gaussian matrix is not symmetric", field="gaussian")
        if q.size and np.min(np.linalg.eigvalsh(q)) < -1e-10:
            raise ModelFormatError("gaussian matrix has a negative eigenvalue", field="gaussian")
        object.__setattr__(self, "_cache", {})
        why = self.isotropic and _isotropy_breach(self)
        if why:
            raise ModelFormatError(f"the model is not isotropic: {why}", field="isotropic")
        # numeric Levy integrability check
        tot = 0.0
        prof = self.measure.radial_profile(n)
        if prof is not None:
            tot += prof.levy_integrability_check()
        for r, m in self.measure.radial_atoms():
            tot += m * min(1.0, r * r)
        for y, m in self.measure.point_atoms():
            if len(y) != n:
                raise ModelFormatError("atom point has wrong dimension", field="measure.atoms")
            tot += m * min(1.0, float(y @ y))
        if not math.isfinite(tot):
            raise ModelFormatError("int (1 ^ |y|^2) nu(dy) is not finite", field="measure")

    # -- internal helpers -------------------------------------------------

    @property
    def q_matrix(self) -> np.ndarray:
        c = self._cache
        if "q" not in c:
            c["q"] = np.asarray(self.gaussian, dtype=float)
        return c["q"]

    def _engine(self, route: str) -> Optional[RadialQuadEngine]:
        c = self._cache
        key = ("engine", route)
        if key not in c:
            prof = self.measure.radial_profile(self.dim)
            c[key] = None if prof is None else \
                RadialQuadEngine(self.dim, prof, _route_kernel(self.dim, route))
        return c[key]


def _route_kernel(n: int, route: str):
    """A_n of a route: the cosine's direction average ("avg") or H_{(n-2)/2}
    from specfun ("h")."""
    if route == "avg":
        return functools.partial(sphere_avg_cos, n)
    return functools.partial(specfun.h_kernel_array, 0.5 * n - 1.0)


def _as_xi(model: ModelSpec, xi) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (model.dim,):
        raise DimensionMismatchError(
            f"frequency vector has shape {arr.shape}, model dim is {model.dim}")
    return arr


def _radial_jump(model: ModelSpec, u: np.ndarray, route: str = "avg") -> np.ndarray:
    """Real jump exponent of the radial part at |xi| = u over a 1-d array u:
    the profile's engine (half of it for a one-sided measure), the radius
    atoms and, in dim 1, the point atoms y as radius atoms |y|.  A u or a
    value that is not finite (past the float range) raises RangeError
    naming xi."""
    n = model.dim
    eng = model._engine(route)
    out = np.zeros(u.shape) if eng is None else \
        eng.g(u) * (0.5 if model.measure.onesided else 1.0)
    points = model.measure.point_atoms() if n == 1 else []
    atoms = [*model.measure.radial_atoms(), *((abs(float(y[0])), m) for y, m in points)]
    if atoms:
        radii, masses = np.array(atoms, dtype=float).T
        kernel = _route_kernel(n, route)
        step = max(1, _FOLD_CHUNK // radii.size)
        for lo in range(0, u.size, step):
            s = u[lo:lo + step, None] * radii
            out[lo:lo + step] += np.einsum("ua,a->u", one_minus_kernel(n, s, kernel), masses)
    bad = ~np.isfinite(out) | ~np.isfinite(u)
    if np.any(bad):
        raise RangeError(f"xi: the jump part of Re psi is not finite at |xi| = {np.min(u[bad]):g}")
    return out


def _re_psi_rows(model: ModelSpec, xi: np.ndarray) -> np.ndarray:
    """Re psi at each row of xi (shape (k, dim)) via the cosine route."""
    out = 0.5 * np.sum((xi @ model.q_matrix) * xi, axis=1)
    u = np.hypot.reduce(np.abs(xi), axis=1)      # no square overflows
    if model.g_exact is not None:
        return out + np.asarray(model.g_exact(u), dtype=float)
    out += _radial_jump(model, u)
    if model.dim > 1:
        for y, m in model.measure.point_atoms():
            out += m * one_minus_kernel(1, xi @ y, np.cos)
    return out


def eval_re_psi(model: ModelSpec, xi) -> float:
    """Re psi(xi) >= 0 via the direction-averaged cosine route."""
    return float(_re_psi_rows(model, _as_xi(model, xi)[None, :])[0])


def eval_psi(model: ModelSpec, xi) -> complex:
    """Full complex exponent; conjugate-symmetric, psi(0) = 0."""
    v = _as_xi(model, xi)
    if model.psi_exact_vec is not None:
        return complex(model.psi_exact_vec(v)[0])
    return complex(eval_re_psi(model, v), float(_im_psi(model, v[None, :])[0]))


def _im_psi(model: ModelSpec, xi: np.ndarray) -> np.ndarray:
    """Im psi at each row of xi (shape (k, dim)): drift, point atoms, one-sided part."""
    out = xi @ np.asarray(model.drift, dtype=float)
    for y, m in model.measure.point_atoms():
        s = xi @ y
        out += m * (-np.sin(s) + s / (1.0 + float(y @ y)))
    if model.measure.onesided:
        # one-sided gamma-type jump part: exact sine-transform identity
        out += -np.arctan(xi[:, 0]) + GAMMA_COMPENSATOR * xi[:, 0]
    return out


def radial_G(model: ModelSpec, r: float) -> float:
    """-omega_{n-1} nu(B(0,r)^c) for radial measures; nondecreasing in r."""
    if not model.measure.is_radial:
        raise UnsupportedModelError("radial tail function needs a radial measure")
    if r <= 0:
        raise RangeError(f"radius r={r} must be positive")
    n = model.dim
    tail = 0.0
    prof = model.measure.radial_profile(n)
    if prof is not None:
        tail += prof.tail_mass(r)
    for a, b in model.measure.radial_atoms():
        if a > r:
            tail += b
    return -sphere_surface(n) * tail


@dataclass(frozen=True)
class RadialTail:
    """The tail function G(r) together with its check grid."""

    model: ModelSpec
    nodes: Tuple[float, ...]

    def __call__(self, r: float) -> float:
        return radial_G(self.model, r)

    def check(self) -> None:
        vals = np.array([self(r) for r in self.nodes])
        if np.any(vals > 1e-15):
            raise ModelFormatError("radial tail function must be nonpositive")
        if np.any(np.diff(vals) < -1e-12 * (1.0 + np.abs(vals[:-1]))):
            raise ModelFormatError("radial tail function must be nondecreasing")
        small = np.asarray(self.nodes) ** 2 * np.abs(vals)
        head = small[: max(2, len(small) // 8)]
        if head.size >= 2 and not head[0] <= head[-1] * 10 + 1e-6:
            raise ModelFormatError("r^2 G(r) does not vanish toward r=0 on the node grid")


def radial_tail(model: ModelSpec, r_min: float = 1e-6, r_max: float = 1e3,
                points: int = 200) -> RadialTail:
    tail = RadialTail(model, tuple(np.geomspace(r_min, r_max, points)))
    tail.check()
    return tail


def iso_g(model: ModelSpec, u):
    """Isotropic exponent at |xi| = u via the radial Bessel-kernel route, for
    a float u (a float is returned) or an array of them.

    Includes the Gaussian part, so the value matches eval_re_psi at |xi| = u.
    """
    why = _isotropy_breach(model)
    if why:
        raise UnsupportedModelError(f"iso_g needs an isotropic model: {why}")
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise RangeError("u must be nonnegative")
    flat = arr.reshape(-1)
    q = float(model.q_matrix[0, 0])
    out = 0.5 * q * flat * flat + _radial_jump(model, flat, route="h")
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _measure_breach(model: ModelSpec) -> str:
    """'' for a rotation-invariant measure, else the field that breaks it."""
    m = model.measure
    return "" if m.is_radial else "field 'measure.onesided' is set" if m.onesided \
        else "field 'measure.atoms' holds point atoms"


def _radial_breach(model: ModelSpec) -> str:
    """'' when Re psi is a function of |xi| (Q = q I and, in dim > 1, a
    rotation-invariant measure), else the field that breaks it; cached."""
    c = model._cache
    if "radial_breach" not in c:
        n, q = model.dim, model.q_matrix
        c["radial_breach"] = "" if n == 1 else \
            "field 'gaussian' is not a multiple of the identity" \
            if not np.allclose(q, q[0, 0] * np.eye(n), atol=1e-12) else _measure_breach(model)
    return c["radial_breach"]


def _isotropy_breach(model: ModelSpec) -> str:
    """'' when the triplet is isotropic (no drift, Q = q I, a rotation-invariant
    measure: Sato 1999), else the field that breaks it; cached."""
    c = model._cache
    if "isotropy_breach" not in c:
        c["isotropy_breach"] = "field 'drift' is not zero" if any(model.drift) else \
            _radial_breach(model) or _measure_breach(model)
    return c["isotropy_breach"]


def _re_psi_radial_fn(model: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized u -> Re psi(|xi|=u) for radial models; used by pipelines."""
    why = _radial_breach(model)
    if why:
        raise UnsupportedModelError(f"Re psi is not a function of |xi|: {why}")
    q = float(model.q_matrix[0, 0])
    if model.g_exact is not None:
        g = model.g_exact
        if q == 0.0:
            # adding 0 * u^2 changes no finite value; skip the pass over u
            return lambda u: np.asarray(g(np.asarray(u, float)), float)
        return lambda u: 0.5 * q * np.asarray(u, float) ** 2 + np.asarray(g(np.asarray(u, float)), float)

    def fn(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        flat = u.reshape(-1)
        return (0.5 * q * flat * flat + _radial_jump(model, flat)).reshape(u.shape)
    return fn


_J_FLOOR, _J_CAP, _U_FLOOR, _U_CAP = -576, 672, 1e-12, 1e14    # table nodes 10^(j/48)


class _ExponentTable:
    """The one exponent table of an engine-backed model; see ``re_psi_profile``."""

    def __init__(self, base):
        self.base, self.log_v, self.interp = base, np.empty(0), None
        self.reach, self.direct = 0.0, False

    def grow(self, u_top: float) -> None:
        """Build the nodes through the first at or above u_top, plus two."""
        if not u_top > self.reach or self.direct:
            return
        j = max(math.ceil(48 * math.log10(u_top)), _J_FLOOR)
        last = min(j + 2 + (10.0 ** (j / 48) < u_top), _J_CAP)
        u = np.array([10.0 ** (k / 48) for k in range(_J_FLOOR, last + 1)])
        v = self.base(u[self.log_v.size:])
        self.direct = not np.all(v > 0)
        if not self.direct:
            self.log_v = np.concatenate((self.log_v, np.log(v)))
            self.interp = PchipInterpolator(np.log(u), self.log_v, extrapolate=False)
            self.reach = u[-1] if last == _J_CAP else u[-3]

    def __call__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        inside = (u >= _U_FLOOR) & (u <= _U_CAP)
        self.grow(float(np.max(u, where=inside, initial=_U_FLOOR)))
        if self.direct:
            return self.base(u)
        out = np.zeros_like(u)
        out[inside] = np.exp(self.interp(np.log(u[inside])))
        rest = ~inside & (u > 0)
        if np.any(rest):
            out[rest] = self.base(u[rest])
        return out


def re_psi_profile(model: ModelSpec, u_max: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Fast vectorized radial exponent u -> Re psi(|xi| = u).

    Closed forms and atom sums evaluate directly.  An engine-backed exponent
    reads the model's one log-log PCHIP table on the nodes 10^(j/48) from a
    floor of 1e-12 to a cap of 1e14, grown upward on demand, each node once.
    It answers only intervals with two built nodes beyond them (or ending at
    the cap), which fix PCHIP's cubic there, so no value depends on which call
    grew it.  Outside [1e-12, 1e14], or everywhere once a node's value is not
    positive, the engine is evaluated directly.  The table reaches at least
    min(u_max, 1e14) on return."""
    base = _re_psi_radial_fn(model)
    if model.g_exact is not None or model.measure.radial_profile(model.dim) is None:
        return base
    table = model._cache.setdefault("profile", _ExponentTable(base))
    table.grow(min(float(u_max), _U_CAP))
    return table


def _radial_monotone_ok(model: ModelSpec) -> bool:
    """Cheap probe: Re psi is a function of |xi| that looks nondecreasing."""
    c = model._cache
    if "radial_monotone" not in c:
        v = None if _radial_breach(model) else re_psi_profile(model)(np.geomspace(1e-8, 1e8, 257))
        c["radial_monotone"] = v is not None and bool(
            np.all(np.diff(v) >= -1e-9 * (1.0 + float(np.max(np.abs(v))))))
    return c["radial_monotone"]


_LOG_RADIUS_MAX = 700.0    # e^700 still leaves e^9 of floating-point headroom


def _level_log_radius(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """ln inf{u : Re psi(|xi| = u) >= x} for each positive threshold of x,
    on a radial exponent that ``_radial_monotone_ok`` accepts; +inf where
    the exponent stays below x out to u = e^700, and at x = +inf, which
    takes no walk.  A threshold that the walk has not reached where the
    exponent's evaluation overflows raises RangeError naming it.

    Roots range over hundreds of e-folds near the integrability threshold,
    so all thresholds bisect together in v = ln u on the exponent table.
    The bracket walks evaluate the exponent only at the thresholds still
    walking, and each walk step at each distinct point once (past the
    table's cap each point is a direct engine call): the thresholds walking
    up share one level, and those walking down a few."""
    fn = re_psi_profile(model)
    step = math.log(8.0)
    # u^2 and the like overflow to inf far out, which is still an upper bracket
    with np.errstate(over="ignore"):
        v_hi = np.zeros_like(x)
        short = x == math.inf
        walk = np.flatnonzero(~short)
        while walk.size:
            try:
                short[walk] = fn(np.exp(v_hi[walk[:1]])) < x[walk]
            except RangeError:
                raise RangeError(
                    f"threshold {float(np.min(x[walk])):g} not reached below "
                    f"|xi| = e^{float(np.max(v_hi[walk])):.0f}, where Re psi overflows"
                ) from None
            walk = walk[short[walk] & (v_hi[walk] <= _LOG_RADIUS_MAX)]
            v_hi[walk] += step
        v_lo = v_hi - step
        walk = np.arange(x.size)
        for _ in range(80):
            lv, back = np.unique(v_lo[walk], return_inverse=True)
            walk = walk[fn(np.exp(lv))[back] >= x[walk]]
            if not walk.size:
                break
            v_lo[walk] -= step
            if np.min(v_lo) < -200.0:
                break
        for _ in range(60):
            mid = 0.5 * (v_lo + v_hi)
            below = fn(np.exp(mid)) < x
            v_lo = np.where(below, mid, v_lo)
            v_hi = np.where(below, v_hi, mid)
        return np.where(short | (x == math.inf), math.inf, 0.5 * (v_lo + v_hi))


def g_inverse(model: ModelSpec, x: float) -> float:
    """Generalized inverse inf{s >= 0 : g(s) >= x} of s -> psi at |xi| =
    sqrt(s): u^2 of the log-radius bisection on the exponent table."""
    why = _isotropy_breach(model)
    if why:
        raise UnsupportedModelError(f"g_inverse needs an isotropic model: {why}")
    if x < 0:
        raise RangeError("target value must be nonnegative")
    if x == 0.0:
        return 0.0
    if not _radial_monotone_ok(model):
        raise NotMonotoneError("exponent profile is not nondecreasing on the probed window")
    v = float(_level_log_radius(model, np.array([float(x)]))[0])
    if v == math.inf:
        raise RangeError(f"target {x} not attained by the exponent below u=e^{_LOG_RADIUS_MAX:g}")
    return math.exp(2.0 * v)


def quadratic_majorant(model: ModelSpec, R: float) -> Tuple[float, float]:
    """(c, d) with Re psi(xi) <= c |xi|^2 + d on the working range.

    c = ||Q||/2 + int_{|y|<=R} |y|^2 nu(dy) and d = 2 nu(B_R^c), since the
    cosine-kernel deficit 1 - cos (and its spherical average) never exceeds
    2 per unit mass.
    """
    if R <= 0:
        raise RangeError("majorant radius must be positive")
    n = model.dim
    q = model.q_matrix
    c = 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(q)))) if q.size else 0.0
    d = 0.0
    prof = model.measure.radial_profile(n)
    if prof is not None:
        m2 = R * R * float(prof.scaled_moment(2, np.array([float(R)]))[0])
        if not math.isfinite(m2):
            raise RangeError("second moment inside the ball diverges")
        scale = 0.5 if model.measure.onesided else 1.0
        c += scale * m2
        d += 2.0 * scale * prof.tail_mass(R)
    for a, b in model.measure.radial_atoms():
        if a <= R:
            c += b * a * a
        else:
            d += 2.0 * b
    for y, m in model.measure.point_atoms():
        r2 = float(y @ y)
        if r2 <= R * R:
            c += m * r2
        else:
            d += 2.0 * m
    return c, d


# -- built-in models ------------------------------------------------------

def _log1p_sq(u) -> np.ndarray:
    """log(1 + u^2) with no overflow: log1p(u^2) up to |u| = 1e150, and
    2 log|u| past it, where the two agree to rounding (u^2 overflows near
    1.34e154)."""
    u = np.asarray(u, float)
    if u.size and np.abs(u).max() > 1e150:
        big = np.abs(u) > 1e150
        return np.where(big, 2.0 * np.log(np.where(big, np.abs(u), 1.0)),
                        np.log1p(np.where(big, 0.0, u) ** 2))
    return np.log1p(u ** 2)


def _atoms_dyadic(masses) -> MeasureSpec:
    atoms = tuple(
        AtomSpec(mass=float(b), radius=2.0 ** (-j))
        for j, b in enumerate(masses, start=1) if b > 0)
    return MeasureSpec(variant="atoms", atoms=atoms)


def builtin_model(name: str, **params) -> ModelSpec:
    """Construct one of the named built-in models.

    Known names: gaussian, cauchy, stable, tempered_stable, truncated_stable,
    gamma, sym_gamma, exa2_logkernel, exa3_atoms, exa4_atoms, exa5_atoms.
    Every parameter must be finite; ``dim`` and ``levels`` are integers >= 1.
    """
    for key, val in params.items():
        if not math.isfinite(val):
            raise ModelFormatError(f"builtin parameter must be finite, got {val}", field=key)
        if key in ("dim", "levels") and (val != int(val) or val < 1):
            raise ModelFormatError(f"builtin parameter must be an integer >= 1, got {val}",
                                   field=key)
    n = int(params.pop("dim", 1))
    zeros = tuple(0.0 for _ in range(n))
    eye = tuple(tuple(2.0 if i == j else 0.0 for j in range(n)) for i in range(n))
    zq = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
    none = MeasureSpec(variant="none")

    if name == "gaussian":
        _reject_extra(name, params)
        return ModelSpec(n, zeros, eye, none, isotropic=True, name="gaussian",
                         g_exact=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    if name == "cauchy":
        params.setdefault("alpha", 1.0)
        return builtin_model("stable", dim=n, **params)._rename("cauchy")
    if name == "stable":
        alpha = float(params.pop("alpha", 1.0))
        _reject_extra(name, params)
        if alpha == 2.0:
            return builtin_model("gaussian", dim=n)._rename("stable")
        meas = MeasureSpec(variant="family", family="stable", params={"alpha": alpha})
        return ModelSpec(n, zeros, zq, meas, isotropic=True, name="stable",
                         g_exact=lambda u, a=alpha: np.abs(np.asarray(u, float)) ** a)
    if name == "tempered_stable":
        alpha = float(params.pop("alpha", 1.5))
        lam = float(params.pop("lam", 1.0))
        _reject_extra(name, params)
        meas = MeasureSpec(variant="family", family="tempered_stable",
                           params={"alpha": alpha, "lam": lam})
        return ModelSpec(n, zeros, zq, meas, isotropic=True, name="tempered_stable")
    if name == "truncated_stable":
        alpha = float(params.pop("alpha", 1.5))
        R = float(params.pop("R", 1.0))
        _reject_extra(name, params)
        meas = MeasureSpec(variant="family", family="truncated_stable",
                           params={"alpha": alpha, "R": R})
        return ModelSpec(n, zeros, zq, meas, isotropic=True, name="truncated_stable")
    if name == "gamma":
        _reject_extra(name, params)
        if n != 1:
            raise ModelFormatError("gamma builtin is one-dimensional", field="dim")
        meas = MeasureSpec(variant="family", family="gamma_type", onesided=True)
        return ModelSpec(
            1, (-GAMMA_COMPENSATOR,), ((0.0,),), meas, isotropic=False, name="gamma",
            g_exact=lambda u: 0.5 * _log1p_sq(u),
            psi_exact_vec=lambda xi: 0.5 * _log1p_sq(xi) - 1j * np.arctan(np.asarray(xi, float)))
    if name == "sym_gamma":
        _reject_extra(name, params)
        if n != 1:
            raise ModelFormatError("sym_gamma builtin is one-dimensional", field="dim")
        meas = MeasureSpec(variant="family", family="gamma_type")
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="sym_gamma",
                         g_exact=_log1p_sq)
    if name == "exa2_logkernel":
        _reject_extra(name, params)
        if n != 1:
            raise ModelFormatError("exa2_logkernel builtin is one-dimensional", field="dim")
        meas = MeasureSpec(variant="family", family="log_kernel")
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="exa2_logkernel")
    if name == "exa3_atoms":
        a = float(params.pop("a", 2.0))
        levels = int(params.pop("levels", 60))
        _reject_extra(name, params)
        if a < 2.0:
            raise ModelFormatError("exa3 base must satisfy a >= 2", field="a")
        atoms = []
        for j in range(-levels, levels + 1):
            mass = 1.0 if j <= 0 else 2.0 ** float(-j)
            atoms.append(AtomSpec(mass=mass, radius=a ** float(j)))
        meas = MeasureSpec(variant="atoms", atoms=tuple(atoms))
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="exa3_atoms")
    if name == "exa4_atoms":
        levels = int(params.pop("levels", 60))
        _reject_extra(name, params)
        meas = _atoms_dyadic([1.0 / j for j in range(1, levels + 1)])
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="exa4_atoms")
    if name == "exa5_atoms":
        levels = int(params.pop("levels", 60))
        _reject_extra(name, params)
        masses = [math.log(j) if j % 2 == 0 else float(j) ** 2 for j in range(1, levels + 1)]
        meas = _atoms_dyadic(masses)
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="exa5_atoms")
    raise ModelFormatError(f"unknown builtin model '{name}'")


def _reject_extra(name, params):
    if params:
        raise ModelFormatError(
            f"unknown parameter(s) {sorted(params)} for builtin '{name}'")


def _rename(self: ModelSpec, new_name: str) -> ModelSpec:
    object.__setattr__(self, "name", new_name)
    return self


ModelSpec._rename = _rename
