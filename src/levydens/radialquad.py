"""Quadrature engine for radial jump-part exponents.

For a rotation-invariant measure with radial marginal mu the real exponent of
the jump part evaluated at |xi| = u is

    g(u) = int_0^inf (1 - A_n(u r)) dmu(r),

where A_n(s) is the average of cos(s e . x) over directions x on S^{n-1}:
A_1 = cos s, A_3 = sin(s)/s, and for other n a Gauss-Jacobi quadrature of
int cos(s x) (1-x^2)^{(n-3)/2} dx.  It is also H_{(n-2)/2}(s), the kernel
that ``iso_g`` takes from specfun; the engine takes either one.

The engine integrates in s = u r, on one panel layout for every u:

  * s <= 1e-3 : two-term Taylor expansion through the truncated moments
    over r0^p, which stays finite where u^4 would overflow,
  * [1e-3, 30] : 24 geometric GL-16 panels up to s = 1, then 19 linear ones,
  * oscillatory tail : 1 - A_n = tail mass minus int A_n, over the pi-panels
    of ``quadrature._half_period_tail`` from max(30, u r_lo), each u stopped
    on its own tail mass.

The kernel is evaluated once per engine on each whole panel's nodes; only
the panels that a bounded support [u r_lo, u r_hi] cuts, at most two a u,
get their own nodes.  Below s = 0.5, 1 - A_n is the series that both kernels
share.  No u's value depends on the other u of its call.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np
from scipy import special as _sp

from .measures import RadialProfile
from .quadrature import (
    _FOLD_CHUNK,
    _gl16_w,
    _gl16_x,
    _half_period_ends,
    _half_period_tail,
    _panel_terms,
)

_S_TAYLOR = 1e-3
_S_BIG = 30.0


@functools.lru_cache(maxsize=None)
def _get_kernel_nodes(n: int, m: int = 800) -> Tuple[np.ndarray, np.ndarray]:
    """Direction-average quadrature nodes and weights for n >= 2, n != 3."""
    x, w = _sp.roots_chebyt(m) if n == 2 else _sp.roots_jacobi(m, 0.5 * (n - 3), 0.5 * (n - 3))
    return x, w / w.sum()


def sphere_avg_cos(n: int, s: np.ndarray) -> np.ndarray:
    """A_n(s): directional average of cos(s x . e) over the unit sphere."""
    s = np.asarray(s, dtype=float)
    if n == 1:
        return np.cos(s)
    if n == 3:
        with np.errstate(invalid="ignore"):
            return np.where(s == 0.0, 1.0, np.sin(s) / s)
    x, w = _get_kernel_nodes(n)
    flat = s.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _FOLD_CHUNK // x.size)
    for lo in range(0, flat.size, step):
        # einsum sums each s's row alike, so no value depends on the rest of the array
        out[lo:lo + step] = np.einsum("sn,n->s", np.cos(flat[lo:lo + step, None] * x), w)
    return out.reshape(s.shape)


def one_minus_kernel(n: int, s: np.ndarray, kernel) -> np.ndarray:
    """1 - kernel(s) for a kernel equal to A_n, with the series of 1 - A_n
    for |s| <= 0.5, where the difference would cancel."""
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
        out[big] = 1.0 - kernel(s[big])
    return out


class _Layout:
    """Panel ends in s, with the kernel on each whole panel's nodes, filled
    in the first time the panel is whole for some u."""

    def __init__(self, ends: np.ndarray, kern):
        self.ends, self.kern = ends, kern
        self.known = np.zeros(ends.size - 1, dtype=bool)
        self.vals = None

    def integrand(self, profile: RadialProfile, u, s_lo, s_hi):
        """f(i, j, x) of ``quadrature._panel_terms``: kernel times density in
        s of the u of rows i at the nodes x of panel j; a panel that
        [s_lo, s_hi] cuts takes the kernel on its own nodes."""
        def f(i, j, x):
            if self.vals is None:
                self.vals = np.empty((self.known.size, x.shape[1]))
            whole = (self.ends[j] >= s_lo[i]) & (self.ends[j + 1] <= s_hi[i])
            new = whole & ~self.known[j]
            if np.any(new):
                first, at = np.unique(j[new], return_index=True)
                self.vals[first] = self.kern(x[new][at])
                self.known[first] = True
            k = self.vals[j]
            if not np.all(whole):
                k[~whole] = self.kern(x[~whole])
            return k * profile.s_density(x, u[i, None])
        return f


class RadialQuadEngine:
    """Evaluates g(u) for one radial profile, dimension and kernel A_n."""

    def __init__(self, dim: int, profile: RadialProfile, kernel):
        self.dim, self.profile = dim, profile
        mid = np.concatenate((np.geomspace(_S_TAYLOR, 1.0, 25), np.linspace(1.0, _S_BIG, 20)[1:]))
        self._mid = _Layout(mid, lambda s: one_minus_kernel(dim, s, kernel))
        self._tail = _Layout(_half_period_ends(_S_BIG, math.pi), kernel)

    def g(self, u: np.ndarray) -> np.ndarray:
        """int (1 - A_n(u r)) dmu(r) at each u of a 1-d array."""
        n, prof = self.dim, self.profile
        r_lo, r_hi = prof.support
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        v = u[u > 0.0]
        s_lo, s_hi = v * r_lo, v * r_hi
        with np.errstate(over="ignore", invalid="ignore"):
            r0 = np.minimum(_S_TAYLOR / v, r_hi)
            s0 = v * r0
            total = np.where(r0 > r_lo, s0 * s0 * prof.scaled_moment(2, r0) / (2.0 * n)
                             - s0 ** 4 * prof.scaled_moment(4, r0) / (8.0 * n * (n + 2.0)), 0.0)
            ends = np.clip(self._mid.ends, s_lo[:, None], s_hi[:, None])
            f = self._mid.integrand(prof, v, s_lo, s_hi)
            total += np.sum(_panel_terms(f, ends, _gl16_x, _gl16_w), axis=1)
            tail = np.flatnonzero(s_hi > _S_BIG)
            if tail.size:
                w = v[tail]
                total[tail] += prof.tail_mass(_S_BIG / w) - \
                    self._tail_rows(w, s_lo[tail], s_hi[tail])
        out[u > 0.0] = total
        return out

    def _tail_rows(self, u: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray) -> np.ndarray:
        """int A_n(s) rho(s / u) ds / u from s = 30 to s_hi at each u, over
        the half-period panels from max(30, s_lo), stopped on the tail mass
        past their ends.  A row that starts past 30 has panels of its own,
        none of them the layout's whole panels."""
        prof = self.profile
        ends = np.minimum(_half_period_ends(np.maximum(_S_BIG, s_lo), math.pi), s_hi[:, None])
        left = lambda i, e: np.where(e >= s_hi[i, None], 0.0, prof.tail_mass(e / u[i, None]))
        f = self._tail.integrand(prof, u, np.where(s_lo > _S_BIG, np.inf, s_lo), s_hi)
        return _half_period_tail(f, ends, left)[0]
