"""Quadrature engine for radial jump-part exponents.

For a rotation-invariant measure with radial marginal mu the real exponent of
the jump part evaluated at |xi| = u is

    g(u) = int_0^inf (1 - A_n(u r)) dmu(r),

where A_n(s) is the average of cos(s e . x) over directions x on S^{n-1}:
A_1 = cos s, A_3 = sin(s)/s, and for other n a Gauss-Jacobi quadrature of
int cos(s x) (1-x^2)^{(n-3)/2} dx.  The integral is split into three regions:

  * s = u r <= 1e-3 : two-term Taylor expansion through truncated moments,
  * mid range up to s = 30 : log-spaced then half-period panels, GL-16,
  * oscillatory tail : 1 - A_n = tail mass minus an oscillatory integral,
    ``quadrature._half_period_tail`` stopped on the profile's tail mass.

Kernel evaluation here is independent of the Bessel routines in specfun, so
exponent values obtained through this engine and through the one-dimensional
profile representation constitute genuinely separate computations.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np
from scipy import special as _sp

from .errors import QuadratureError
from .measures import RadialProfile
from .quadrature import (
    _gl16_w,
    _gl16_x,
    _half_period_ends,
    _half_period_tail,
    _panel_terms,
)

_S_TAYLOR = 1e-3
_S_BIG = 30.0

# direction-average quadrature nodes per dimension (n >= 2, n != 3)
_kernel_nodes: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _get_kernel_nodes(n: int, m: int = 800) -> Tuple[np.ndarray, np.ndarray]:
    nodes = _kernel_nodes.get(n)
    if nodes is None:
        if n == 2:
            x, w = _sp.roots_chebyt(m)
        else:
            x, w = _sp.roots_jacobi(m, 0.5 * (n - 3), 0.5 * (n - 3))
        w = w / w.sum()
        nodes = (x, w)
        _kernel_nodes[n] = nodes
    return nodes


def sphere_avg_cos(n: int, s: np.ndarray) -> np.ndarray:
    """A_n(s): directional average of cos(s x . e) over the unit sphere."""
    s = np.asarray(s, dtype=float)
    if n == 1:
        return np.cos(s)
    if n == 3:
        out = np.ones_like(s)
        nz = s != 0
        out[nz] = np.sin(s[nz]) / s[nz]
        return out
    x, w = _get_kernel_nodes(n)
    flat = s.reshape(-1)
    out = np.cos(flat[:, None] * x[None, :]) @ w
    return out.reshape(s.shape)


def one_minus_kernel(n: int, s: np.ndarray) -> np.ndarray:
    """1 - A_n(s), with a series branch avoiding cancellation for small s."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) <= 0.5
    if np.any(small):
        q = 0.25 * s[small] ** 2
        term = q / (0.5 * n)          # k = 1 term of A_n with sign flipped
        acc = term.copy()
        k = 1
        while np.max(np.abs(term)) > 1e-19 and k < 40:
            k += 1
            term = -term * q / (k * (0.5 * n + k - 1.0))
            acc += term
        out[small] = acc
    big = ~small
    if np.any(big):
        out[big] = 1.0 - sphere_avg_cos(n, s[big])
    return out


class RadialQuadEngine:
    """Evaluates g(u) for one radial profile in a fixed dimension."""

    def __init__(self, dim: int, profile: RadialProfile, one_minus=None, kernel=None):
        """Optional ``one_minus``/``kernel`` callables (n, s)->array replace
        the built-in direction-average kernel, e.g. by a Bessel-based one."""
        if dim < 1:
            raise QuadratureError(f"dimension {dim} invalid")
        self.dim = dim
        self.profile = profile
        self._one_minus = one_minus if one_minus is not None else one_minus_kernel
        self._kernel = kernel if kernel is not None else sphere_avg_cos

    def g(self, u: float) -> float:
        """int (1 - A_n(u r)) dmu(r)."""
        if u == 0.0:
            return 0.0
        u = abs(float(u))
        n = self.dim
        prof = self.profile
        r_lo, r_hi = prof.support

        total = 0.0

        # Taylor region: s = u r <= _S_TAYLOR
        r0 = min(_S_TAYLOR / u, r_hi)
        if r0 > r_lo:
            total += (1.0 / (2.0 * n) * u * u * prof.second_moment(r0)
                      - 1.0 / (8.0 * n * (n + 2.0)) * u ** 4 * prof.fourth_moment(r0))
        else:
            r0 = r_lo

        # mid region: s in [u r0, _S_BIG], smooth panels
        r_mid_hi = min(r_hi, _S_BIG / u)
        if r_mid_hi > r0:
            f = lambda r: self._one_minus(n, u * np.asarray(r)) * prof.density(np.asarray(r))
            r_knee = min(max(1.0 / u, r0), r_mid_hi)
            mid = 0.0
            if r_knee > r0 * (1.0 + 1e-14):
                decades = math.log10(r_knee / r0)
                k = max(2, int(math.ceil(8.0 * decades)))
                edges = np.geomspace(r0, r_knee, k + 1)
                mid += float(np.sum(_panel_terms(f, edges, _gl16_x, _gl16_w)))
            if r_mid_hi > r_knee * (1.0 + 1e-14):
                step = 0.5 * math.pi / u
                k = max(1, int(math.ceil((r_mid_hi - r_knee) / step)))
                edges = np.linspace(r_knee, r_mid_hi, k + 1)
                mid += float(np.sum(_panel_terms(f, edges, _gl16_x, _gl16_w)))
            total += mid

        # oscillatory tail: r > r_mid_hi
        if r_hi > r_mid_hi * (1.0 + 1e-14):
            total += prof.tail_mass(r_mid_hi)
            total -= self._oscillatory_tail(u, r_mid_hi, r_hi)

        return total

    def _oscillatory_tail(self, u: float, r_from: float, r_hi: float) -> float:
        """int_{r_from}^{r_hi} A_n(u r) rho(r) dr; the panel ends are clipped
        at r_hi, where every profile's tail mass is 0."""
        f = lambda r: self._kernel(self.dim, u * np.asarray(r)) * self.profile.density(np.asarray(r))
        ends = np.minimum(_half_period_ends(r_from, math.pi / u), r_hi)
        return _half_period_tail(f, ends, self.profile.tail_mass)[0]
