"""Distribution function of Re psi and the Laplace route to p_t(0).

nu(x) is the Lebesgue measure of the sublevel set {xi : Re psi(xi) <= x}.
Its generalized right-continuous inverse nu^{-1}(s) = inf{x : nu(x) >= s}
is the increasing rearrangement of Re psi, u*(s) = e^{-t nu^{-1}(s)} the
decreasing rearrangement of e^{-t Re psi}, and equimeasurability gives

    (2 pi)^n p_t(0) = int e^{-t Re psi} d xi = t int_0^inf nu(x) e^{-tx} dx.

The last form is a Laplace transform of nu and is evaluated here through a
pipeline independent of the Fourier-side integration in the inversion module.

For isotropic models with a nondecreasing radial exponent the sublevel sets
are balls and nu comes from inverting the radial profile.  Otherwise (dim
<= 2) cells are counted on fixed nested shells: box k = [-8 2^k, 8 2^k]^n,
k = 0 .. 20, has 2^16 cells per axis in dim 1 and 2^10 in dim 2, and shell
k is the cells of box k outside box k - 1.  With edge_k the least Re psi on
the outermost 1 % layer of box k and K(x) the first k with edge_k > x,
nu(x) = sum_{k <= K(x)} cell_k #{cells of shell k with Re psi <= x}, and inf
when no edge exceeds x: nondecreasing, and the same whatever came before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    _scalar_q,
    eval_re_psi,
    re_psi_profile,
)
from .measures import ball_volume

_SHELLS = 21                       # boxes k = 0 .. 20
_BOX0 = 8.0                        # box 0 is [-8, 8]^n
_CELLS = {1: 1 << 16, 2: 1 << 10}  # cells per axis in every box


@dataclass(frozen=True)
class RearrangementTable:
    """Tabulated distribution function of Re psi.

    ``nu_values[i]`` is the measure of {Re psi <= x_nodes[i]}; ``method``
    records how it was obtained.  ``cell_size`` is the cell volume of shell
    0, the finest of the counted variant's shells (0 for the radial route).
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


class _Shell(NamedTuple):
    vals: np.ndarray     # sorted Re psi at the centres of the cells with xi_1 > 0
    cell: float          # cell volume
    edge: float          # least Re psi on the outermost 1 % layer of the box


def _build_shell(model: ModelSpec, k: int) -> _Shell:
    """Shell k: the cells of box k outside box k - 1 (all of box 0).

    Re psi is even, so only the cells with xi_1 > 0 are evaluated, each
    standing for itself and its mirror image."""
    n = model.dim
    N = _CELLS[n]
    h = 2.0 * _BOX0 * 2.0 ** k / N
    # cell i spans [i h, (i + 1) h]; ring counts the cells out from the centre
    i = np.arange(-N // 2, N // 2)
    axes = np.meshgrid(i[N // 2:], *([i] * (n - 1)), indexing="ij")
    ring = np.maximum.reduce([np.maximum(a, -a - 1) for a in axes])
    keep = ring >= N // 4 if k else np.ones(ring.shape, dtype=bool)
    xi = [(a[keep] + 0.5) * h for a in axes]
    if model.measure.is_radial and _scalar_q(model) is not None:
        fn = re_psi_profile(model, 1e9)
        vals = fn(xi[0] if n == 1 else np.hypot(*xi))
    else:
        vals = np.array([eval_re_psi(model, p) for p in np.stack(xi, axis=-1)])
    edge = float(np.min(vals[ring[keep] >= N // 2 - N // 100]))
    return _Shell(np.sort(vals), h ** n, edge)


def _shells_through(model: ModelSpec, k: int) -> list:
    """Shells 0 .. k, built once per model in order and cached."""
    if model.dim > 2:
        raise UnsupportedModelError(
            "sublevel measures for non-monotone exponents support dim <= 2")
    shells = model._cache.setdefault("shells", [])
    while len(shells) <= k:
        shells.append(_build_shell(model, len(shells)))
    return shells[:k + 1]


def _count(shells: list, x: np.ndarray) -> np.ndarray:
    """sum over the shells of cell_k #{Re psi <= x}, a mirror pair per value."""
    out = np.zeros(np.shape(x))
    for sh in shells:
        out += 2.0 * sh.cell * np.searchsorted(sh.vals, x, side="right")
    return out


def _counted_nu(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    x_max, last = np.max(x, initial=0.0), 0
    # shells through K(x_max), or all of them when no edge exceeds x_max
    while last < _SHELLS - 1 and _shells_through(model, last)[last].edge <= x_max:
        last += 1
    shells = _shells_through(model, last)
    above = np.array([sh.edge for sh in shells]) > x[:, None]
    K = np.where(np.any(above, axis=1), np.argmax(above, axis=1), -1)
    out = np.full(x.shape, math.inf)
    for k in np.unique(K[K >= 0]):
        out[K == k] = _count(shells[:k + 1], x[K == k])
    return out


def nu_dist(model: ModelSpec, x):
    """nu(x): Lebesgue measure of the sublevel set {Re psi <= x}, for a
    threshold or an array of them (an array of its shape is returned); inf
    where the set is unbounded."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise RangeError("threshold must be nonnegative")
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    out[pos] = _nu_vec(model, arr[pos])
    return float(out) if arr.ndim == 0 else out


def build_table(model: ModelSpec, x_max: float, x_min: float = 1e-3) -> RearrangementTable:
    """Distribution-function table on logarithmic nodes over [x_min, x_max]."""
    for name, val in (("x_min", x_min), ("x_max", x_max)):
        if not math.isfinite(val):
            raise RangeError(f"{name}={val} must be finite")
    if not x_max > x_min > 0:
        raise RangeError("need x_max > x_min > 0")
    decades = math.log10(x_max / x_min)
    nodes = np.geomspace(x_min, x_max, int(decades * 16) + 2)     # 16 a decade
    if _radial_monotone_ok(model):
        return RearrangementTable(nodes, _nu_vec(model, nodes), "radial_bisection")
    return RearrangementTable(nodes, _counted_nu(model, nodes), "grid_count",
                              cell_size=(2.0 * _BOX0 / _CELLS[model.dim]) ** model.dim)


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
    # counted route: on [lo, edge_k), lo the largest earlier edge, nu counts
    # shells 0 .. k; from the largest edge of all on it is inf
    lo = 0.0
    for k in range(_SHELLS):
        shells = _shells_through(model, k)
        hi = shells[k].edge
        if hi > lo:
            x = max(lo, _first_reaching(shells, s))
            if x < hi:
                return x
        lo = max(lo, hi)
    return lo


def _first_reaching(shells: list, s: float) -> float:
    """Least value v of the shells with _count(shells, v) >= s, inf if none;
    the count is nondecreasing along each sorted shell: bisect them all."""
    lo = np.zeros(len(shells), dtype=int)
    hi = np.array([sh.vals.size for sh in shells])
    while np.any(lo < hi):
        live, mid = lo < hi, (lo + hi) // 2
        v = np.array([sh.vals[min(m, sh.vals.size - 1)] for sh, m in zip(shells, mid)])
        reached = _count(shells, v) >= s
        hi, lo = np.where(live & reached, mid, hi), np.where(live & ~reached, mid + 1, lo)
    return float(min((sh.vals[j] for sh, j in zip(shells, lo) if j < sh.vals.size),
                     default=math.inf))


def u_star(model: ModelSpec, t: float, s: float) -> float:
    """Decreasing rearrangement of e^{-t Re psi}: exp(-t nu^{-1}(s))."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    return math.exp(-t * nu_inverse(model, s))


def _nu_vec(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """nu on an array of positive thresholds; inf where the sublevel set is
    unbounded."""
    if _radial_monotone_ok(model):
        n = model.dim
        return ball_volume(n) * np.exp(n * _level_log_radius(model, x))
    return _counted_nu(model, x)


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
