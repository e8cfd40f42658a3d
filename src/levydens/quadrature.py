"""Gauss-Legendre panels, the radial tail and the decade integrals of the
Fourier side: grid and radial inversion, the radial exponent engine and
the ratio-limit masses.  The Laplace route (``pt0_laplace``) keeps its own
panels, so that its p_t(0) stays a separate computation.

``_panel_terms`` is the one Gauss-Legendre panel function: a caller lays out
rows of panel ends first (one row for each u of the exponent engine, one for
each radius of a stretch of ``invert_radial``), and their nodes go to the
integrand in blocks of at most ``_FOLD_CHUNK``.
``_half_period_tail`` is the one oscillatory radial tail, of g(u) in
``radialquad`` and of ``invert_radial``, each row stopped on its own or
accelerated by repeated averaging (Longman, Proc. Camb. Phil. Soc. 1956).
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

_gl16_x, _gl16_w = np.polynomial.legendre.leggauss(16)
_gl12_x, _gl12_w = np.polynomial.legendre.leggauss(12)
_OSC_PANELS = 240     # half-period panels of a radial tail before acceleration
_FOLD_CHUNK = 1 << 16     # samples, moments or nodes built at once


def _accelerated(terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Repeated averaging of the partial sums of ``terms`` along the last
    axis: (value, error estimate) of each row, scalars for a 1-d input.  The
    estimate is the change made by the last averaging stage."""
    s = np.cumsum(terms, axis=-1)
    prev = s[..., -1]
    est = np.abs(prev)
    while s.shape[-1] > 2:
        s = 0.5 * (s[..., :-1] + s[..., 1:])
        est = np.abs(s[..., -1] - prev)
        prev = s[..., -1]
    return prev, est


def _half_period_ends(start, step) -> np.ndarray:
    """The _OSC_PANELS + 1 ends start, start + step, ... as a running sum:
    one row for each start and step of equal-shape arrays, or one 1-d row
    for floats."""
    start, step = np.broadcast_arrays(np.asarray(start, dtype=float), np.asarray(step, dtype=float))
    steps = np.repeat(step[..., None], _OSC_PANELS, axis=-1)
    return np.cumsum(np.concatenate((start[..., None], steps), axis=-1), axis=-1)


def _panel_terms(f, ends: np.ndarray, gx: np.ndarray, gw: np.ndarray,
                 count=None) -> np.ndarray:
    """GL integrals over each row's panels between consecutive ``ends``
    (shape (rows, P + 1)) as a (rows, P) array: 0 for a panel of no width,
    and with ``count`` for panels from the row's count on.  f(i, j, x) is the
    integrand of rows i at the nodes x (shape (pairs, gx.size)) of their
    panels j, called on at most ``_FOLD_CHUNK`` nodes at a time.  Each panel
    sums its own nodes (einsum's loop, unlike a BLAS product, takes every
    row alike), so no term depends on the other rows."""
    P = ends.shape[1] - 1
    a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
    keep = b > a
    if count is not None:
        keep &= (np.arange(P) < count[:, None]).ravel()
    pairs = np.flatnonzero(keep)
    out = np.zeros(a.size)
    step = max(1, _FOLD_CHUNK // gx.size)
    for lo in range(0, pairs.size, step):
        k = pairs[lo:lo + step]
        half = 0.5 * (b[k] - a[k])
        x = (0.5 * (a[k] + b[k]))[:, None] + half[:, None] * gx
        out[k] = half * np.einsum("pn,n->p", f(k // P, k % P, x), gw)
    return out.reshape(-1, P)


def _half_period_tail(f, ends: np.ndarray, left) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, estimates, panel terms) of each row's int f over the GL-12
    panels between its ``_half_period_ends`` (shape (rows, _OSC_PANELS + 1)),
    the terms as far as the longest row reaches; f is as in ``_panel_terms``,
    and left(i, e) gives the leftover tails of rows i past their ends e,
    tried in blocks of 1, 2, 4, ... ends.  Up to a row's first end whose
    leftover is under 1e-16 (or infinite, for the caller to refuse) its
    panels are summed exactly, estimate that leftover; a row with no such
    end accelerates all its panels, estimate the change."""
    rows = ends.shape[0]
    count = np.full(rows, _OSC_PANELS)
    est = np.zeros(rows)
    stop = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    lo, size = 1, 1
    while lo <= _OSC_PANELS and live.size:
        rest = left(live, ends[live, lo:lo + size])
        hit = (rest < 1e-16) | (rest == math.inf)
        done = hit.any(axis=1)
        if done.any():
            k = hit[done].argmax(axis=1)
            row = live[done]
            count[row], est[row], stop[row] = lo + k, rest[done][np.arange(k.size), k], True
            live = live[~done]
        lo, size = lo + size, 2 * size
    reach = int(count.max()) if stop.all() else _OSC_PANELS
    terms = _panel_terms(f, ends[:, :reach + 1], _gl12_x, _gl12_w, count)
    value = np.empty(rows)
    value[stop] = list(map(math.fsum, terms[stop].tolist()))
    if not np.all(stop):
        value[~stop], est[~stop] = _accelerated(terms[~stop])
    return value, est, terms


def _env_power(env, u: np.ndarray, p: int) -> np.ndarray:
    """env(u) u^p, 0 where env(u) is 0, also past the overflow of u^p."""
    e = env(u)
    out = e * u ** p
    out[e == 0.0] = 0.0
    return out


def _decade_piece(env, n, u_lo: np.ndarray, *, panels: int = 3) -> np.ndarray:
    """GL quadrature of env(u) u^{n-1} du over [u_lo, 10 u_lo] for each lower
    limit, log substitution, ``panels`` GL-16 panels a decade; one env call
    for each block of limits with at most ``_FOLD_CHUNK`` nodes."""
    # libm's log, as the scalar rule took it: numpy's vectorised log can
    # differ from it in the last bit (about 2 arguments in 10^4 on AVX-512)
    a = np.fromiter(map(math.log, u_lo), dtype=float, count=u_lo.size)
    out = np.empty(a.size)
    block = max(1, _FOLD_CHUNK // (panels * _gl16_x.size))
    for lo in range(0, a.size, block):
        edges = a[lo:lo + block, None] + math.log(10.0) * (np.arange(panels + 1) / panels)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        half = 0.5 * np.diff(edges, axis=-1)
        pts = mid[..., None] + half[..., None] * _gl16_x
        vals = _env_power(env, np.exp(pts.reshape(-1)), n).reshape(pts.shape)
        out[lo:lo + block] = np.sum(half * (vals @ _gl16_w), axis=-1)
    return out


def _head_integral(env, n: int, a: float, *, panels: int = 3) -> float:
    """int_0^a env(u) u^{n-1} du, env rising to 1 at 0, decade by decade down
    from a; the rest [0, u] counts u^n / n, off by under 1e-18 of the total."""
    total, u = 0.0, a
    while (1.0 - env(np.array([u]))[0]) * u ** n > 1e-18 * n * total:
        u *= 0.1
        total += float(_decade_piece(env, n, np.array([u]), panels=panels)[0])
    return total + u ** n / n


def _tail_integral(env: Callable[[np.ndarray], np.ndarray], n: int, xi0, *,
                   panels: int = 3):
    """int_{xi0}^{inf} env(u) u^{n-1} du, decade by decade, for one lower
    limit xi0 (a float is returned) or an array of them (an array of its
    shape is returned).

    env is the decaying envelope (weight times e^{-t Re psi}).  Each limit
    stops on its own once a decade adds nothing; after the probed decades
    the remainder is extrapolated geometrically from the decade-contribution
    ratio, and a non-contracting ratio marks a divergent (or not
    demonstrably convergent) tail and returns inf.  The limits still
    running share one env call per decade.  Lower limits below 1e-12 start
    at 1e-12.
    """
    lim = np.asarray(xi0, dtype=float)
    u_lo = np.maximum(lim.reshape(-1), 1e-12)
    out = np.empty(u_lo.size)
    live = np.arange(u_lo.size)
    total = np.zeros(u_lo.size)
    ratio = np.ones(u_lo.size)
    prev = None
    for _ in range(24):
        piece = _decade_piece(env, n, u_lo, panels=panels)
        total += piece
        done = (piece < 1e-18 * np.maximum(total, 1e-300)) | (piece == 0.0)
        stopped = np.count_nonzero(done)
        if stopped == live.size:
            out[live] = total
            break
        if prev is not None:
            np.divide(piece, prev, out=ratio, where=np.isfinite(prev) & (prev > 0.0))
        if stopped:
            out[live[done]] = total[done]
            keep = ~done
            live, u_lo, total, piece, ratio = (
                v[keep] for v in (live, u_lo, total, piece, ratio))
        prev = piece
        u_lo = 10.0 * u_lo
    else:
        diverged = ratio >= 0.999
        out[live[diverged]] = math.inf
        go = ~diverged
        out[live[go]] = total[go] + piece[go] * ratio[go] / (1.0 - ratio[go])
    return float(out[0]) if lim.ndim == 0 else out.reshape(lim.shape)
