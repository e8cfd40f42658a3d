"""Reference densities computed apart from levydens, with scipy only.

Conventions follow the package: the built-in gaussian model has exponent
|xi|^2 (covariance 2t at time t), cauchy has |xi| (scale t), sym_gamma has
log(1 + xi^2) and the one-sided gamma model has log(1 - i xi) (the Gamma(t, 1)
law).  None of these functions calls into levydens.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def gaussian(t, x):
    """p_t(x) for psi = |xi|^2 in dim 1, for an array of points."""
    return stats.norm.pdf(np.asarray(x, float), scale=math.sqrt(2.0 * t))


def gaussian_nd(t, points):
    """p_t at the rows of ``points`` (shape (k, n)) for psi = |xi|^2."""
    pts = np.atleast_2d(np.asarray(points, float))
    n = pts.shape[1]
    return stats.multivariate_normal(np.zeros(n), 2.0 * t * np.eye(n)).pdf(pts)


def cauchy(t, x):
    """p_t(x) for psi = |xi| in dim 1."""
    return stats.cauchy.pdf(np.asarray(x, float), scale=t)


def cauchy_nd(t, points):
    """p_t at the rows of ``points`` for psi = |xi|: multivariate t, one degree of freedom."""
    pts = np.atleast_2d(np.asarray(points, float))
    n = pts.shape[1]
    return stats.multivariate_t(np.zeros(n), t * t * np.eye(n), df=1).pdf(pts)


def cauchy_ratio(t, x):
    """p_t(x) / p_t(0) for psi = |xi| in dim 1."""
    return t * t / (t * t + x * x)


def laplace(x):
    """p_1(x) for psi = log(1 + xi^2): the standard Laplace law."""
    return stats.laplace.pdf(np.asarray(x, float))


def sym_gamma(t, x):
    """p_t(x) for psi = log(1 + xi^2), t > 1/2: the Bessel-K (variance-gamma) form."""
    nu = t - 0.5
    r = np.abs(np.asarray(x, float))
    c = 1.0 / (math.sqrt(math.pi) * special.gamma(t))
    with np.errstate(invalid="ignore"):
        out = c * (0.5 * r) ** nu * special.kv(nu, r)
    at_zero = 0.5 * c * special.gamma(nu)
    return np.where(r == 0.0, at_zero, out)


def sym_gamma_at_zero(t):
    """p_t(0) = Gamma(t - 1/2) / (2 sqrt(pi) Gamma(t)) for psi = log(1 + xi^2)."""
    return special.gamma(t - 0.5) / (2.0 * math.sqrt(math.pi) * special.gamma(t))


def stable_at_zero(alpha, t):
    """p_t(0) = Gamma(1 + 1/alpha) / (pi t^(1/alpha)) for psi = |xi|^alpha in dim 1."""
    return special.gamma(1.0 + 1.0 / alpha) / (math.pi * np.asarray(t, float) ** (1.0 / alpha))


def gamma(t, x):
    """p_t(x) for psi = log(1 - i xi): the Gamma(t, 1) density."""
    return stats.gamma.pdf(np.asarray(x, float), a=t)
