"""Model representation and characteristic-exponent evaluation.

The exponent convention is

    psi(xi) = i l . xi + (1/2) xi . Q xi
              + int (1 - e^{i y.xi} + i y.xi / (1 + |y|^2)) nu(dy),

so that E e^{i xi . X_t} = e^{-t psi(xi)} and Re psi >= 0.  For symmetric
measures the compensator drops and the jump integrand reduces to
1 - cos(y . xi).

Two independent evaluation routes exist for isotropic models: eval_re_psi
integrates the direction-averaged cosine kernel, while iso_g goes through the
one-dimensional radial representation with the normalized Bessel kernel from
specfun.  Their agreement is a consistency check, not a tautology.
"""

from __future__ import annotations

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
from .radialquad import RadialQuadEngine, one_minus_kernel, sphere_avg_cos
from . import specfun

# int_0^inf e^{-y} / (1 + y^2) dy, the compensator constant of the one-sided
# unit-rate gamma-type measure; expressed through sine/cosine integrals.
_si1, _ci1 = _sp.sici(1.0)
GAMMA_COMPENSATOR = float(_ci1 * math.sin(1.0) + (0.5 * math.pi - _si1) * math.cos(1.0))


@dataclass(frozen=True)
class ModelSpec:
    """A Levy triplet (drift, Gaussian matrix, jump measure) in R^dim.

    ``g_exact``/``psi_exact`` are optional closed forms attached to built-in
    models; they bypass quadrature but never change the model's meaning.
    """

    dim: int
    drift: Tuple[float, ...]
    gaussian: Tuple[Tuple[float, ...], ...]
    measure: MeasureSpec
    isotropic: bool = False
    name: str = ""
    g_exact: Optional[Callable] = field(default=None, compare=False, repr=False)
    psi_exact: Optional[Callable] = field(default=None, compare=False, repr=False)
    psi_exact_vec: Optional[Callable] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ModelFormatError(f"dim={n} must be a positive integer", field="dim")
        if len(self.drift) != n:
            raise ModelFormatError(
                f"drift has length {len(self.drift)}, expected {n}", field="drift")
        q = np.asarray(self.gaussian, dtype=float)
        if q.shape != (n, n):
            raise ModelFormatError(
                f"gaussian matrix has shape {q.shape}, expected ({n}, {n})", field="gaussian")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ModelFormatError("gaussian matrix is not symmetric", field="gaussian")
        if q.size and np.min(np.linalg.eigvalsh(q)) < -1e-10:
            raise ModelFormatError("gaussian matrix has a negative eigenvalue", field="gaussian")
        if self.isotropic:
            if any(c != 0.0 for c in self.drift):
                raise ModelFormatError("isotropic model must have zero drift", field="isotropic")
            if not np.allclose(q, q[0, 0] * np.eye(n), atol=1e-12):
                raise ModelFormatError(
                    "isotropic model needs a scalar multiple of the identity", field="isotropic")
            if not self.measure.is_radial:
                raise ModelFormatError("isotropic model needs a radial measure", field="isotropic")
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
        object.__setattr__(self, "_cache", {})

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
            if prof is None:
                c[key] = None
            elif route == "avg":
                c[key] = RadialQuadEngine(self.dim, prof)
            else:
                c[key] = RadialQuadEngine(
                    self.dim, prof, one_minus=_one_minus_h, kernel=_h_kernel_route)
        return c[key]


def _one_minus_h(n: int, s: np.ndarray) -> np.ndarray:
    """1 - H_{(n-2)/2}(s) via the Bessel-kernel route.

    For s <= 0.5 the cancellation-free hypergeometric series is used; it is
    the same polynomial identity either route must satisfy.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) <= 0.5
    if np.any(small):
        out[small] = one_minus_kernel(n, s[small])
    big = ~small
    if np.any(big):
        out[big] = 1.0 - specfun.h_kernel_array(0.5 * n - 1.0, s[big])
    return out


def _h_kernel_route(n: int, s: np.ndarray) -> np.ndarray:
    return specfun.h_kernel_array(0.5 * n - 1.0, np.asarray(s, dtype=float))


def _as_xi(model: ModelSpec, xi) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (model.dim,):
        raise DimensionMismatchError(
            f"frequency vector has shape {arr.shape}, model dim is {model.dim}")
    return arr


def _jump_re_at_radius(model: ModelSpec, u: float, route: str = "avg") -> float:
    """Real jump exponent of the radial part (profile + radius atoms) at |xi|=u."""
    n = model.dim
    total = 0.0
    eng = model._engine(route)
    if eng is not None:
        val, _ = eng.g(u)
        total += val
        if model.measure.onesided:
            total *= 0.5
    radius_atoms = model.measure.radial_atoms()
    if radius_atoms:
        one_minus = one_minus_kernel if route == "avg" else _one_minus_h
        radii = np.array([a for a, _ in radius_atoms])
        masses = np.array([b for _, b in radius_atoms])
        total += math.fsum(masses * one_minus(n, u * radii))
    return total


def eval_re_psi(model: ModelSpec, xi) -> float:
    """Re psi(xi) >= 0 via the direction-averaged cosine route."""
    v = _as_xi(model, xi)
    q = model.q_matrix
    out = 0.5 * float(v @ q @ v)
    u = float(np.linalg.norm(v))
    if model.g_exact is not None:
        return out + float(model.g_exact(u))
    out += _jump_re_at_radius(model, u)
    for y, m in model.measure.point_atoms():
        out += m * float(one_minus_kernel(1, np.array([float(y @ v)]))[0])
    return out


def eval_psi(model: ModelSpec, xi) -> complex:
    """Full complex exponent; conjugate-symmetric, psi(0) = 0."""
    v = _as_xi(model, xi)
    if model.psi_exact is not None and model.dim == 1:
        return complex(model.psi_exact(float(v[0])))
    re = eval_re_psi(model, v)
    im = float(np.dot(model.drift, v))
    for y, m in model.measure.point_atoms():
        s = float(y @ v)
        im += m * (-math.sin(s) + s / (1.0 + float(y @ y)))
    if model.measure.onesided:
        # one-sided gamma-type jump part: exact sine-transform identity
        u = float(v[0])
        im += -math.atan(u) + GAMMA_COMPENSATOR * u
    return complex(re, im)


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


def iso_g(model: ModelSpec, u: float) -> float:
    """Isotropic exponent at |xi| = u via the radial Bessel-kernel route.

    Includes the Gaussian part, so the value matches eval_re_psi at |xi| = u.
    """
    if not model.isotropic:
        raise UnsupportedModelError("iso_g needs an isotropic model")
    if u < 0:
        raise RangeError("u must be nonnegative")
    if u == 0.0:
        return 0.0
    q = float(model.q_matrix[0, 0])
    return 0.5 * q * u * u + _jump_re_at_radius(model, float(u), route="h")


def _scalar_q(model: ModelSpec) -> Optional[float]:
    """q when Q = q I, as always in dim 1; else None: Re psi is then no
    function of |xi|."""
    q = model.q_matrix
    scalar = model.isotropic or model.dim == 1 or \
        np.allclose(q, q[0, 0] * np.eye(model.dim), atol=1e-12)
    return float(q[0, 0]) if scalar else None


def _re_psi_radial_fn(model: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized u -> Re psi(|xi|=u) for radial models; used by pipelines."""
    q = _scalar_q(model)
    if q is None:
        raise UnsupportedModelError("Re psi is not a function of |xi|: field "
                                    "'gaussian' is not a multiple of the identity")
    if model.g_exact is not None:
        g = model.g_exact
        if q == 0.0:
            # adding 0 * u^2 changes no finite value; skip the pass over u
            return lambda u: np.asarray(g(np.asarray(u, float)), float)
        return lambda u: 0.5 * q * np.asarray(u, float) ** 2 + np.asarray(g(np.asarray(u, float)), float)

    def direct(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return np.array([_jump_re_at_radius(model, x) for x in u]) + 0.5 * q * u * u

    prof = model.measure.radial_profile(model.dim)
    if prof is None:
        # atoms only: direct vectorized sum
        n = model.dim
        radius_atoms = model.measure.radial_atoms()
        radii = np.array([a for a, _ in radius_atoms])
        masses = np.array([b for _, b in radius_atoms])

        def atoms_fn(u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            vals = np.empty_like(u)
            chunk = 1 << 12
            for lo in range(0, u.size, chunk):
                seg = u[lo:lo + chunk]
                vals[lo:lo + chunk] = one_minus_kernel(
                    n, seg[:, None] * radii[None, :]) @ masses
            return vals + 0.5 * q * u * u
        return atoms_fn
    return direct


def re_psi_profile(model: ModelSpec, u_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Fast vectorized radial exponent over [0, u_max].

    Closed forms and atom sums evaluate directly; engine-backed profiles are
    tabulated once on a log grid and monotone-cubic interpolated.
    """
    base = _re_psi_radial_fn(model)
    if model.g_exact is not None or model.measure.radial_profile(model.dim) is None:
        return base
    key = ("profile", math.ceil(math.log10(max(u_max, 1e-7))))
    cache = model._cache
    if key not in cache:
        hi = 10.0 ** key[1]
        grid = np.geomspace(1e-8, hi, int(math.log10(hi / 1e-8) * 48) + 1)   # 48 a decade
        vals = base(grid)
        if np.all(vals > 0):
            interp = PchipInterpolator(np.log(grid), np.log(vals), extrapolate=False)
            def fast(u, _i=interp, _g=grid, _b=base):
                u = np.atleast_1d(np.asarray(u, dtype=float))
                out = np.zeros_like(u)
                inside = (u >= _g[0]) & (u <= _g[-1])
                out[inside] = np.exp(_i(np.log(u[inside])))
                rest = ~inside & (u > 0)
                if np.any(rest):
                    out[rest] = _b(u[rest])
                return out
        else:
            fast = base
        cache[key] = fast
    return cache[key]


def _radial_monotone_ok(model: ModelSpec) -> bool:
    """Cheap probe: isotropic and the radial exponent looks nondecreasing."""
    if not model.isotropic:
        return False
    key = "radial_monotone"
    cached = model._cache.get(key)
    if cached is None:
        fn = re_psi_profile(model, 1e9)
        u = np.geomspace(1e-8, 1e8, 257)
        v = fn(u)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(v))))
        cached = bool(np.all(np.diff(v) >= -tol))
        model._cache[key] = cached
    return cached


_LOG_RADIUS_MAX = 700.0    # e^700 still leaves e^9 of floating-point headroom


def _level_log_radius(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """ln inf{u : Re psi(|xi| = u) >= x} for each positive threshold of x,
    on a radial exponent that ``_radial_monotone_ok`` accepts; +inf where
    the exponent stays below x out to u = e^700, and at x = +inf.

    Roots range over hundreds of e-folds near the integrability threshold,
    so all thresholds bisect together in v = ln u on the exponent table."""
    fn = re_psi_profile(model, 1e9)
    step = math.log(8.0)
    # u^2 and the like overflow to inf far out, which is still an upper bracket
    with np.errstate(over="ignore"):
        v_hi = np.zeros_like(x)
        while True:
            short = fn(np.exp(v_hi)) < x
            grow = short & (v_hi <= _LOG_RADIUS_MAX)
            if not np.any(grow):
                break
            v_hi = np.where(grow, v_hi + step, v_hi)
        v_lo = v_hi - step
        for _ in range(80):
            shrink = fn(np.exp(v_lo)) >= x
            if not np.any(shrink):
                break
            v_lo = np.where(shrink, v_lo - step, v_lo)
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
    if not model.isotropic:
        raise UnsupportedModelError("g_inverse needs an isotropic model")
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
        m2 = prof.second_moment(R)
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
                         g_exact=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                         psi_exact=(lambda xi: complex(xi * xi)) if n == 1 else None)
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
                         g_exact=lambda u, a=alpha: np.abs(np.asarray(u, float)) ** a,
                         psi_exact=(lambda xi, a=alpha: complex(abs(xi) ** a)) if n == 1 else None)
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
            g_exact=lambda u: 0.5 * np.log1p(np.asarray(u, float) ** 2),
            psi_exact=lambda xi: complex(0.5 * math.log1p(xi * xi), -math.atan(xi)),
            psi_exact_vec=lambda xi: 0.5 * np.log1p(np.asarray(xi, float) ** 2)
            - 1j * np.arctan(np.asarray(xi, float)))
    if name == "sym_gamma":
        _reject_extra(name, params)
        if n != 1:
            raise ModelFormatError("sym_gamma builtin is one-dimensional", field="dim")
        meas = MeasureSpec(variant="family", family="gamma_type")
        return ModelSpec(1, (0.0,), ((0.0,),), meas, isotropic=True, name="sym_gamma",
                         g_exact=lambda u: np.log1p(np.asarray(u, float) ** 2),
                         psi_exact=lambda xi: complex(math.log1p(xi * xi)))
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
