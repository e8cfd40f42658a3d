"""The Bessel layer: the normalized kernel H_nu and J_{nu+k} by one backward
recurrence.

H_nu(z) = 2^nu Gamma(nu+1) z^{-nu} J_nu(z) is the kernel of the radial
formula (``iso_g``, ``invert_radial``); the spherical Bessel functions j_k
are the moments of the 1-d routes' Filon panels
(``inversion._spherical_jn_orders``).  Both come from ``bessel_j_orders``,
Miller's backward recurrence normalised by Neumann's sum (Gautschi,
"Computational aspects of three-term recurrence relations", SIAM Review
1967).  Past ``_HANKEL_Z`` H_nu takes Hankel's expansion; H_{-1/2} and
H_{1/2} are cos z and sin z / z.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LevyDensError

# with a start of max(floor(z) + 1, K) + _MILLER_EXTRA, within 2e-16 of 40-digit
# values for H_nu (z <= 20) and j_0..j_11 (z < 12); 25 would leave 1.6e-13, 20 8e-11
_MILLER_EXTRA = 30
# Hankel's 20-term expansion is within 4e-16 past z = 18
_HANKEL_Z = 20.0


def bessel_j_orders(nu: float, K: int, z: np.ndarray) -> np.ndarray:
    """R_k(z) = Gamma(nu+1) (z/2)^{-nu} J_{nu+k}(z) for k = 0 .. K-1 over a
    1-d array of z in [0, 20] (the callers' range; the steps grow with z),
    nu >= -1/2: shape (K, z.size).  Row 0 is H_nu(z); for nu = 1/2 the rows
    are the spherical Bessel j_k(z).

    The recurrence runs in q_m = (2/z)^m R_m, which needs no division by z,
    so no z down to 0 overflows:
        q_{m-1} = (nu + m) q_m - (z^2/4) q_{m+1},
    from q_N = 1, q_{N+1} = 0 at each element's own start N = max(floor(z) + 1,
    K) + _MILLER_EXTRA, so no value depends on the rest of the array.
    Neumann's sum sum_k (nu + 2k) Gamma(nu + k) / (k! Gamma(nu + 1)) R_{2k} =
    1 (DLMF 10.23.15) normalises it, summed by Horner in z^2/4 as the
    recurrence runs down."""
    z = np.asarray(z, dtype=float)
    zeta = 0.25 * z * z
    N = np.maximum(z.astype(np.intp) + 1, K) + _MILLER_EXTRA
    # the elements that start at order m are seed[bounds[m]:bounds[m + 1]]
    seed = np.argsort(N, kind="stable")
    top = int(N[seed[-1]]) if z.size else K
    bounds = np.searchsorted(N[seed], np.arange(top + 2)).tolist()
    # ws[j] = (nu + 2j) (nu + 1)_{j-1} / j!, the Neumann weight of R_{2j}
    ws, c = [1.0], 1.0
    for j in range(1, top // 2 + 1):
        if j > 1:
            c *= (nu + j - 1.0) / j
        ws.append((nu + 2.0 * j) * c)
    q_next, q, S, tmp = (np.zeros_like(z) for _ in range(4))
    out = np.empty((K, z.size))
    for m in range(top, -1, -1):
        lo, hi = bounds[m], bounds[m + 1]
        if lo < hi:
            q[seed[lo:hi]] = 1.0
        if m % 2 == 0:
            S *= zeta
            np.multiply(q, ws[m // 2], out=tmp)
            S += tmp
        if m < K:
            out[m] = q
        if m:
            q_next *= zeta
            np.multiply(q, nu + m, out=tmp)
            np.subtract(tmp, q_next, out=q_next)
            q, q_next = q_next, q
    out /= S            # at z = 0, S is q_0: H_nu(0) = 1 exactly
    half = 0.5 * z
    p = half.copy()
    for k in range(1, K):
        out[k] *= p
        p *= half
    return out


def h_kernel(nu: float, z: float) -> float:
    """Normalized Bessel kernel H_nu(z) = 2^nu Gamma(nu+1) z^{-nu} J_nu(z).

    H_nu(0) = 1 exactly, and 1 - H_nu(z) ~ z^2 / (4 (nu+1)) as z -> 0.
    """
    if nu < -0.5:
        raise LevyDensError(f"h_kernel: order nu={nu} outside supported range")
    return float(h_kernel_array(nu, np.float64(abs(z))))


def h_kernel_array(nu: float, z: np.ndarray) -> np.ndarray:
    """H_nu over a nonnegative array: cos z for nu = -1/2, sin z / z for
    nu = 1/2, else ``bessel_j_orders`` up to ``_HANKEL_Z`` and Hankel's
    expansion beyond.  No element's value depends on the rest of the array."""
    z = np.asarray(z, dtype=float)
    if nu == -0.5:
        return np.cos(z)
    if nu == 0.5:
        with np.errstate(invalid="ignore"):
            return np.where(z == 0.0, 1.0, np.sin(z) / z)
    out = np.empty_like(z)
    near = z <= _HANKEL_Z
    if np.any(near):
        out[near] = bessel_j_orders(nu, 1, z[near])[0]
    if not np.all(near):
        zl = z[~near]
        mu4 = 4.0 * nu * nu
        # Hankel asymptotics, fixed 20-term truncation
        p = np.ones_like(zl)
        qq = np.zeros_like(zl)
        term = np.ones_like(zl)
        for k in range(1, 21):
            term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * zl)
            if k % 2 == 1:
                qq += term if (k // 2) % 2 == 0 else -term
            else:
                p += -term if (k // 2) % 2 == 1 else term
        chi = zl - 0.5 * nu * math.pi - 0.25 * math.pi
        jv = np.sqrt(2.0 / (math.pi * zl)) * (p * np.cos(chi) - qq * np.sin(chi))
        out[~near] = np.exp(nu * np.log(2.0 / zl) + math.lgamma(nu + 1.0)) * jv
    return out
