"""Distribution function of Re psi and the Laplace route to p_t(0).

nu(x) is the Lebesgue measure of the sublevel set {xi : Re psi(xi) <= x}.
Its generalized right-continuous inverse nu^{-1}(s) = inf{x : nu(x) >= s}
is the increasing rearrangement of Re psi, u*(s) = e^{-t nu^{-1}(s)} the
decreasing rearrangement of e^{-t Re psi}, and equimeasurability gives

    (2 pi)^n p_t(0) = int e^{-t Re psi} d xi = t int_0^inf nu(x) e^{-tx} dx.

The last form is a Laplace transform of nu and is evaluated here through a
pipeline independent of the Fourier-side integration in the inversion module.

For isotropic models with a nondecreasing radial exponent the sublevel sets
are balls and nu comes from inverting the radial profile; otherwise (dim
<= 2) the measure is counted on a uniform cell lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    IntegrabilityRefusal,
    RangeError,
    UnsupportedModelError,
)
from .levy_core import (
    ModelSpec,
    _level_log_radius,
    _radial_monotone_ok,
    quadratic_majorant,
    re_psi_profile,
)
from .measures import ball_volume

_GRID_CELLS_1D = 1 << 20
_GRID_CELLS_2D = 1 << 10          # per axis
_BOX_CAP = 1e7


@dataclass(frozen=True)
class RearrangementTable:
    """Tabulated distribution function of Re psi.

    ``nu_values[i]`` is the measure of {Re psi <= x_nodes[i]}; ``method``
    records how it was obtained, ``cell_size`` the lattice resolution for
    the counted variant (0 for the radial closed route).
    """

    x_nodes: np.ndarray
    nu_values: np.ndarray
    method: str                    # 'radial_bisection' or 'grid_count'
    cell_size: float = 0.0

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# method={self.method}\n")
            fh.write(f"# cell_size={self.cell_size!r}\n")
            fh.write("x,nu\n")
            for x, v in zip(self.x_nodes, self.nu_values):
                fh.write(f"{x!r},{v!r}\n")


def _field_eval(model: ModelSpec, L: float, ncell: int) -> Tuple[np.ndarray, float, float]:
    """Re psi on a centred lattice of ncell (per axis) cells over [-L, L]^n.

    Returns (values flat, cell volume, edge_min = smallest value on the
    outermost one-percent layer)."""
    fn = re_psi_profile(model, 1e9) if model.measure.is_radial else None
    if model.dim == 1:
        cell = 2.0 * L / ncell
        xi = -L + (np.arange(ncell) + 0.5) * cell
        if fn is not None:
            vals = fn(np.abs(xi))
        else:
            from .levy_core import eval_re_psi
            vals = np.array([eval_re_psi(model, [x]) for x in xi])
        layer = max(ncell // 100, 1)
        edge_min = float(min(np.min(vals[:layer]), np.min(vals[-layer:])))
        return vals, cell, edge_min
    cell = 2.0 * L / ncell
    ax = -L + (np.arange(ncell) + 0.5) * cell
    if fn is not None:
        R = np.hypot(ax[:, None], ax[None, :])
        vals = fn(R.reshape(-1))
    else:
        from .levy_core import eval_re_psi
        vals = np.array([eval_re_psi(model, [a, b]) for a in ax for b in ax])
    V = vals.reshape(ncell, ncell)
    layer = max(ncell // 100, 1)
    edge_min = float(min(np.min(V[:layer]), np.min(V[-layer:]),
                         np.min(V[:, :layer]), np.min(V[:, -layer:])))
    return vals, cell ** model.dim, edge_min


def _grid_field(model: ModelSpec, x_max: float) -> Tuple[np.ndarray, float, float, bool]:
    """Sorted Re psi samples on a centred lattice covering {Re psi <= x_max}.

    Returns (sorted values, cell volume, box half-width, boundary_hit).  The
    box is doubled (on a coarse probe lattice) until the outermost cell layer
    carries no sublevel cells, then sampled at full resolution and cached.
    boundary_hit=True signals a sublevel set reaching the box cap, for which
    the counted measure is only a lower bound (reported as +inf upstream).

    Exponents with narrow sublevel channels recurring at ever larger scales
    (dyadic atom constructions) can evade the edge-layer probe; counts are
    then lower bounds at the reported cell resolution and may grow when a
    later, larger threshold enlarges the cached box.
    """
    if model.dim > 2:
        raise UnsupportedModelError(
            "sublevel measures for non-monotone exponents support dim <= 2")
    cached = model._cache.get("gridfield")
    if cached is not None:
        if x_max < cached["edge_min"]:
            return cached["vals"], cached["vol"], cached["L"], False
        if cached["boundary"] and x_max >= cached["x_req"]:
            return cached["vals"], cached["vol"], cached["L"], True
    c, d = quadratic_majorant(model, 1.0)
    L = 2.0 * math.sqrt(max(x_max - d, 0.0) / max(c, 1e-300)) if c > 0 else 8.0
    L = max(L, 8.0)
    n_probe = (1 << 14) if model.dim == 1 else (1 << 8)
    boundary = False
    while True:
        _, _, edge_min = _field_eval(model, L, n_probe)
        if x_max < edge_min:
            break
        if 2.0 * L > _BOX_CAP:
            boundary = True
            break
        L *= 2.0
    n_fine = _GRID_CELLS_1D if model.dim == 1 else _GRID_CELLS_2D
    vals, vol, edge_min = _field_eval(model, L, n_fine)
    vals = np.sort(vals)
    model._cache["gridfield"] = {"vals": vals, "vol": vol, "L": L,
                                 "edge_min": edge_min, "boundary": boundary,
                                 "x_req": x_max if boundary else math.inf}
    return vals, vol, L, boundary


def nu_dist(model: ModelSpec, x):
    """nu(x): Lebesgue measure of the sublevel set {Re psi <= x}, for a
    threshold or an array of them (an array of its shape is returned); inf
    where the set is unbounded."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise RangeError("threshold must be nonnegative")
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    if _radial_monotone_ok(model):
        out[pos] = _nu_vec(model, arr[pos])
    else:
        # the counted field is cached and regrown per threshold, so a count
        # depends on the thresholds before it: count them one by one, in order
        out[pos] = [_nu_vec(model, np.array([v]))[0] for v in arr[pos]]
    return float(out) if arr.ndim == 0 else out


def build_table(model: ModelSpec, x_max: float, x_min: float = 1e-3,
                nodes_per_decade: int = 16) -> RearrangementTable:
    """Distribution-function table on logarithmic nodes over [x_min, x_max]."""
    for name, val in (("x_min", x_min), ("x_max", x_max)):
        if not math.isfinite(val):
            raise RangeError(f"{name}={val} must be finite")
    if not x_max > x_min > 0:
        raise RangeError("need x_max > x_min > 0")
    decades = math.log10(x_max / x_min)
    nodes = np.geomspace(x_min, x_max, int(decades * nodes_per_decade) + 2)
    if _radial_monotone_ok(model):
        return RearrangementTable(nodes, _nu_vec(model, nodes), "radial_bisection")
    vals, vol, _, boundary = _grid_field(model, x_max)
    nu = np.searchsorted(vals, nodes, side="right").astype(float) * vol
    if boundary:
        nu[:] = np.where(nu > 0, math.inf, nu)
    return RearrangementTable(nodes, nu, "grid_count", cell_size=vol)


def nu_inverse(model: ModelSpec, s: float) -> float:
    """Generalized right-continuous inverse inf{x : nu(x) >= s}."""
    if s < 0:
        raise RangeError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    n = model.dim
    if _radial_monotone_ok(model):
        r = (s / ball_volume(n)) ** (1.0 / n)
        fn = re_psi_profile(model, max(r, 1.0))
        return float(fn(np.array([r]))[0])
    # counted route: the k-th smallest cell value with k = ceil(s / cell)
    x_probe = 1.0
    for _ in range(40):
        vals, vol, _, boundary = _grid_field(model, x_probe)
        count = np.searchsorted(vals, x_probe, side="right")
        if count * vol >= s:
            k = int(math.ceil(s / vol))
            if k <= vals.size:
                return float(vals[k - 1])
        if boundary:
            raise RangeError(f"requested measure s={s} beyond the grid range")
        x_probe *= 4.0
    raise RangeError(f"requested measure s={s} not reached by the exponent table")


def u_star(model: ModelSpec, t: float, s: float) -> float:
    """Decreasing rearrangement of e^{-t Re psi}: exp(-t nu^{-1}(s))."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    return math.exp(-t * nu_inverse(model, s))


def _nu_vec(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """nu on an array of positive thresholds; inf where the sublevel set is
    unbounded.  The counted route counts all of them on the field grown
    for the largest."""
    n = model.dim
    if _radial_monotone_ok(model):
        return ball_volume(n) * np.exp(n * _level_log_radius(model, x))
    vals, vol, _, boundary = _grid_field(model, float(np.max(x)))
    out = np.searchsorted(vals, x, side="right").astype(float) * vol
    if boundary:
        out[:] = math.inf
    return out


_gl16_x, _gl16_w = np.polynomial.legendre.leggauss(16)


def pt0_laplace(model: ModelSpec, t: float) -> float:
    """p_t(0) as a Laplace transform: t (2 pi)^{-n} int nu(x) e^{-tx} dx.

    Substituting y = t x gives int nu(y/t) e^{-y} dy, integrated over
    geometric panels near 0 (algebraic behaviour of nu) and unit panels
    beyond; growing panel contributions past y = 40 mean nu outruns the
    exponential factor and the density does not exist at this t.
    """
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    n = model.dim

    def integrand(y):
        nu = _nu_vec(model, y / t)
        if np.any(np.isinf(nu)):
            # a threshold the exponent never reaches means nu = +inf there
            raise IntegrabilityRefusal(
                f"nu is infinite on the Laplace window at t={t}",
                diagnostics={"t": t})
        return nu * np.exp(-y)

    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(_gl16_w, integrand(mid + half * _gl16_x)))

    total = 0.0
    # geometric panels through the algebraic region y in [1e-12, 1]
    edges = np.geomspace(1e-12, 1.0, 49)
    for a, b in zip(edges[:-1], edges[1:]):
        total += panel(a, b)
    # head below 1e-12: nu is monotone, so the piece is at most nu(1e-12/t)*1e-12
    head_bound = float(_nu_vec(model, np.array([1e-12 / t]))[0]) * 1e-12
    total += 0.5 * head_bound
    # unit panels outward with growth monitoring
    y = 1.0
    prev = math.inf
    grow_run = 0
    for _ in range(800):
        piece = panel(y, y + 1.0)
        total += piece
        if piece > prev and y > 40.0:
            grow_run += 1
            if grow_run >= 5:
                raise IntegrabilityRefusal(
                    f"Laplace transform of nu diverges at t={t}",
                    diagnostics={"t": t, "y": y})
        else:
            grow_run = 0
        if piece < 1e-16 * max(total, 1e-300):
            break
        prev = piece
        y += 1.0
    else:
        raise IntegrabilityRefusal(
            f"Laplace transform of nu not converged within the panel budget at t={t}",
            diagnostics={"t": t, "y": y})
    return total / (2.0 * math.pi) ** n
