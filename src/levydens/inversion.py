"""Fourier inversion of e^{-t psi} into transition densities.

Convention: p_t(x) = (2 pi)^{-n} int e^{-t psi(xi)} e^{-i x.xi} d xi.

Grid inversion uses a trapezoid rule on the frequency axis, read as a DFT of
length M whose period M hx in x is the wrap (frequencies beyond one DFT
period fold, which is exactly the aliasing the grid step allows), with one
Richardson step-halving pass to kill the leading h^2 trapezoid error coming
from kinks like |xi| at 0.  The step-halving pass doubles M over the same
window, so the coarse samples are its even samples: they are reused and
only the new odd samples are evaluated.  A symmetric exponent (no one-sided
part, no point atoms, no drift) gives a real even integrand, and only the
half axis xi >= 0 is sampled.

The DFT is taken by one of two routes, chosen per inversion by comparing
their transform costs (``_zoom_pays``), from M, the sample count and the
node count:

* the fold adds each sample into bin k mod M by slices (a contiguous run of
  k lands on contiguous bins) and transforms all M bins by FFT; the mirrored
  half axis goes through ``rfft``.  Few nodes at a coarse step need many
  more samples than bins, and only the fold handles them.
* the zoom, when no sample wraps and the samples and nodes are far fewer
  than M, evaluates the sum only at the output bins and the wrap-edge probe
  bins by Bluestein's chirp-z convolution, of length about samples + nodes
  (Bluestein 1970; Bailey and Swarztrauber 1991).  Heavy-tailed laws widen
  the wrap to 2^21-2^22 bins for a few percent of nonzero samples; the zoom
  allocates nothing of length M.

The xi-window is chosen by a doubling ladder; the leftover tail integral of
the envelope is estimated on a log grid and reported as part of tail_bound.
A tail whose decade contributions do not decrease marks a non-integrable
exponent at this t and raises IntegrabilityRefusal.

The frequency tail beyond the window is added back analytically, for all
nodes of a 1-d grid at once.  A symmetric exponent takes Filon-type panels
(``_filon_tail``): every node shares the panels, and each panel takes the
spherical Bessel moments of all orders at all nodes from one recurrence
pass.  Any other exponent takes 240 half-period panels per node
(``_osc_tail_term``): the panel points and exponent samples are built in
node blocks of at most ``_FOLD_CHUNK`` samples, and one decade tail
integral and one repeated-averaging pass serve every node.  Only x = 0 and
the few nodes with a slow phase near it go one by one.  The GL panels, the
accelerator and the tail integral are those of ``quadrature``.

The 2-d lattice (``_lattice_sum_2d``) sums a radial F on a square frequency
lattice as a product of two cosine matrices around the samples.  F(|xi|)
is symmetric in the two axes, so only the half of the lattice on and above
the diagonal is sampled, the diagonal at half weight, in row blocks of at
most ``_LATTICE_BLOCK`` samples.  One fine pass serves the Richardson step:
the coarse lattice is its even sub-lattice, and the blocks start on even
rows, so the coarse sums come from the same samples.  The wrap-length
search ends with a probe on that coarse lattice, and the fine pass reads it
too, at three extra points stacked under the output nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as _sfft
from scipy import special as _sp

from .errors import (
    DimensionMismatchError,
    IntegrabilityRefusal,
    QuadratureError,
    RangeError,
    UnsupportedModelError,
)
from .levy_core import ModelSpec, _scalar_q, eval_psi, re_psi_profile
from .measures import sphere_surface
from .quadrature import (
    _accelerated,
    _gl12_w,
    _gl12_x,
    _gl16_w,
    _gl16_x,
    _head_integral,
    _panel_sum,
    _tail_integral,
)
from . import specfun

_POINT_TOL = 1e-4      # pointwise envelope level at the window edge; the
_TAIL_TARGET = math.inf   # analytic tail correction covers what is cut off
_BUDGET = 1 << 20


@dataclass(frozen=True)
class DensityField:
    """A computed density (or multiplier image) on a spatial grid.

    ``nodes`` holds one array per axis for grid fields, or the radius list
    for radial fields.  ``tail_bound`` is the estimated total truncation /
    aliasing error; ``imag_residue`` the largest discarded imaginary part.
    """

    kind: str                      # 'grid' or 'radial'
    dim: int
    t: float
    nodes: Tuple[np.ndarray, ...]
    values: np.ndarray
    mass: float
    tail_bound: float
    imag_residue: float = 0.0

    def to_csv(self, path, metadata: Optional[dict] = None) -> None:
        meta = {"t": self.t, "mass": self.mass, "tail_bound": self.tail_bound}
        if metadata:
            meta.update(metadata)
        with open(path, "w") as fh:
            for k, v in meta.items():
                fh.write(f"# {k}={v}\n")
            if self.kind == "radial":
                fh.write("r,p\n")
                for r, p in zip(self.nodes[0], self.values):
                    fh.write(f"{r!r},{p!r}\n")
            elif self.dim == 1:
                fh.write("x,p\n")
                for x, p in zip(self.nodes[0], self.values):
                    fh.write(f"{x!r},{p!r}\n")
            else:
                fh.write("x,y,p\n")
                xs, ys = self.nodes
                for i, x in enumerate(xs):
                    for j, y in enumerate(ys):
                        fh.write(f"{x!r},{y!r},{self.values[i, j]!r}\n")


def _uniform_step(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise RangeError("grid must be a 1-d array with at least two nodes")
    d = np.diff(x)
    h = d[0]
    if h <= 0 or not np.allclose(d, h, rtol=1e-9, atol=1e-12):
        raise RangeError("grid must be uniformly spaced and increasing")
    return float(h)


def _choose_window(env, t, n, dxi, tail_target=_TAIL_TARGET,
                   point_tol=_POINT_TOL, budget=_BUDGET):
    """Smallest Xi on a doubling ladder meeting the pointwise and tail goals.

    Returns (Xi, tail_estimate).  If the budget is exhausted the largest
    affordable window is kept with its honest tail estimate; a divergent tail
    raises IntegrabilityRefusal.
    """
    xi = max(64.0 * dxi, 1.0)
    best = None
    while True:
        probes = np.geomspace(xi, 2.0 * xi, 9)
        point = float(np.max(env(probes) * probes ** (n - 1)))
        tail = _tail_integral(env, n, xi)
        if math.isinf(tail):
            raise IntegrabilityRefusal(
                f"e^(-t Re psi) tail does not converge at t={t}",
                diagnostics={"window": xi, "pointwise": point})
        best = (xi, tail)
        if point < point_tol and tail < tail_target:
            return best
        if 2.0 * xi / dxi > budget:
            return best
        xi *= 2.0


_FOLD_CHUNK = 1 << 16


def _add_wrapped(bins: np.ndarray, F: np.ndarray, k0: int) -> None:
    """bins[k mod M] += F[k - k0] for the contiguous run k = k0, k0 + 1, ...

    A run lands on contiguous bins and wraps once per M samples, so it is
    one slice add up to the wrap, whole periods summed as rows, and the rest
    from bin 0."""
    M = bins.size
    b = k0 % M
    n = min(F.size, M - b)
    bins[b:b + n] += F[:n]
    rest = F[n:]
    whole = rest.size - rest.size % M
    if whole:
        bins += rest[:whole].reshape(-1, M).sum(axis=0)
    bins[:rest.size - whole] += rest[whole:]


def _fold_frequency(Ffun, dxi: float, nside: int, M: int, sym: bool,
                    odd: bool = False) -> np.ndarray:
    """Fold trapezoid samples into M DFT bins: bin j sums the samples whose
    index k has k mod M = j.

    With ``odd`` false the samples are F(k dxi), k = -nside..nside, with half
    weight at both ends.  With ``odd`` true they are F((2k + 1) dxi),
    k = -nside..nside-1: the midpoints that halving a step 2 dxi adds to the
    same window, which land on the odd bins 2 (k mod M) + 1 of a 2M wrap.

    ``sym`` marks F real and even.  Then only k >= 0 is evaluated (the k = 0
    sample at half weight) and folded in float64, and the negative half-axis
    is the mirror image of the bins: j + (M - j) for even samples, and
    j + (M - 1 - j) for odd ones.  Each sample is evaluated once and streamed
    in chunks, so multi-million-sample windows never materialize."""
    dtype = float if sym else complex
    folded = np.zeros(M, dtype=dtype)
    lo = 0 if sym else -nside
    hi = nside if odd else nside + 1
    for a in range(lo, hi, _FOLD_CHUNK):
        b = min(a + _FOLD_CHUNK, hi)
        if odd:
            k = np.arange(2 * a + 1, 2 * b + 1, 2, dtype=float)
        else:
            k = np.arange(a, b, dtype=float)
        F = np.asarray(Ffun(k * dxi), dtype=dtype)
        if not odd:
            if a == lo:
                F[0] *= 0.5
            if b == hi:
                F[-1] *= 0.5
        _add_wrapped(folded, F, a)
    if sym:
        if odd:
            folded += folded[::-1]
        else:
            folded[1:] += folded[:0:-1]
            folded[0] *= 2.0
    return folded


def _edge_bins(M: int, hx: float, sym: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Bins of the wrap-edge band and of the quarter-period ring.

    Bin (j + M/2) mod M holds x = j hx - W/2, W = M hx; the band is
    |x| >= W/2 - 4 hx and the ring ||x| - W/4| < 2 hx.  Only the j near
    0, M/4, 3M/4 and M can qualify, so only those are tested.  The half
    spectrum of a symmetric F is read at bin min(b, M - b)."""
    W = M * hx
    q = M // 4
    j = np.concatenate([np.arange(0, 8), np.arange(q - 4, q + 5),
                        np.arange(3 * q - 4, 3 * q + 5), np.arange(M - 8, M)])
    x = j * hx - 0.5 * W
    b = (j + M // 2) % M
    # the grid reaches at most W/2 from the origin, so the nearest image of
    # any output node sits at distance >= W/2 and the folded magnitude at the
    # wrap edge bounds the per-image contribution for decaying densities
    band = np.abs(x) >= 0.5 * W - 4.0 * hx
    quarter = np.abs(np.abs(x) - 0.25 * W) < 2.0 * hx
    if sym:
        b = np.minimum(b, M - b)
    return b[band], b[quarter]


def _edge_levels(band: np.ndarray, quarter: np.ndarray) -> Tuple[float, float]:
    """(alias estimate, density level a quarter period out) from the spectrum
    magnitudes on the ``_edge_bins``."""
    alias_est = 2.0 * float(np.max(band)) if band.size else 0.0
    p_quarter = float(np.max(quarter)) if quarter.size else 0.0
    return alias_est, p_quarter


def _wrap_edge(spec, M: int, hx: float, sym: bool) -> Tuple[float, float]:
    """``_edge_levels`` read from the spectrum of one pass (the half
    spectrum for a symmetric F)."""
    band, quarter = _edge_bins(M, hx, sym)
    return _edge_levels(np.abs(spec[band]), np.abs(spec[quarter]))


class _Zoom:
    """Bluestein's chirp-z transform over the samples F_k, k = lo, lo + 1, ...

    ``at`` returns X_m = sum_k F_k e^{-2 pi i k m / M} at any integer bins m in
    O(N log N) per run of ``n_out`` consecutive bins, N >= samples + n_out - 1,
    with no array of length M.  With km = (k^2 + m^2 - (m - k)^2) / 2 a run
    m = s + i is a convolution of F_k e^{-i pi (k^2 + 2 s k) / M} with the
    chirp e^{i pi (i - k)^2 / M}.  Every phase is reduced modulo 2 M in exact
    integers first: a float k^2 loses the phase once k exceeds about 1e5.
    The kernel FFT depends only on (M, lo, samples, n_out), so one plan
    serves a pass and its step-halving odd samples (one sample fewer)."""

    def __init__(self, M: int, lo: int, size: int, n_out: int):
        self.M, self.lo, self.n_out = M, lo, n_out
        self.N = _sfft.next_fast_len(size + n_out - 1)
        # kernel at lag u = i - (k - lo) in [1 - size, n_out), wrapped mod N
        v = np.arange(1 - size, n_out, dtype=np.int64) - lo
        h = np.zeros(self.N, dtype=complex)
        self._phase(v[size - 1:] ** 2, 1.0, h[:n_out])
        self._phase(v[:size - 1] ** 2, 1.0, h[self.N - size + 1:])
        self.kernel = np.fft.fft(h, out=h)
        i = np.arange(n_out, dtype=np.int64)
        self.post = self._phase(i * i, -1.0)

    def _phase(self, r: np.ndarray, sign: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """e^{sign i pi r / M} for integers r, reduced mod 2 M exactly (in
        place in r), written into ``out`` when given."""
        r %= 2 * self.M
        theta = r * (sign * math.pi / self.M)
        if out is None:
            out = np.empty(r.shape, dtype=complex)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out

    def run(self, F: np.ndarray, s: int) -> np.ndarray:
        """X_{s + i} for i = 0 .. n_out - 1."""
        k = np.arange(self.lo, self.lo + F.size, dtype=np.int64)
        r = k + 2 * (s % self.M)
        r *= k
        a = np.zeros(self.N, dtype=complex)
        self._phase(r, -1.0, a[:F.size])
        del k, r
        a[:F.size] *= F
        np.fft.fft(a, out=a)
        a *= self.kernel
        np.fft.ifft(a, out=a)
        return a[:self.n_out] * self.post

    def at(self, F: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """X_m at integer bins m, one ``run`` per cluster of nearby bins."""
        out = np.empty(bins.size, dtype=complex)
        order = np.argsort(bins, kind="stable")
        sb = bins[order]
        a = 0
        while a < sb.size:
            b = int(np.searchsorted(sb, sb[a] + self.n_out))
            out[order[a:b]] = self.run(F, int(sb[a]))[sb[a:b] - sb[a]]
            a = b
        return out


class _ZoomSums(NamedTuple):
    """What a zoom pass hands its step-halving pass: the plan, the unscaled
    sums at the output bins and the summed sample magnitude."""
    zoom: _Zoom
    sums: np.ndarray
    mag: float


_EDGE_RUN = 16     # longest cluster of ``_edge_bins``, read by one zoom run
_EPS = float(np.finfo(float).eps)


def _zoom_pays(M: int, nside: int, nx: int, sym: bool) -> bool:
    """True when no sample wraps and the zoom costs less than the fold.

    A length-n FFT counts n log2 n, and so does evaluating n exact-integer
    phases.  The fold transforms M and then 2 M bins; for a symmetric F its
    cheaper ``rfft`` is offset by the passes that zero, mirror and copy the
    bins.  The zoom computes its chirp kernel (phases and one FFT), then per
    run of bins the sample phases and two FFTs of length N.  The runs are
    the output nodes, the wrap-edge bins (two runs with the mirror, three
    without) and the step-halving odd samples."""
    if 2 * nside + 1 > M:      # samples wrap
        return False
    size = nside + 1 if sym else 2 * nside + 1
    N = _sfft.next_fast_len(size + max(nx, _EDGE_RUN) - 1)
    runs = 4 if sym else 5
    fold = M * math.log2(M) + 2 * M * math.log2(2 * M)
    zoom = ((2 + 2 * runs) * N + runs * size) * math.log2(N)
    return zoom < fold


def _zoom_pass(Ffun, dxi: float, nside: int, zoom: _Zoom, sym: bool, bins: np.ndarray,
               coarse: Optional[_ZoomSums] = None):
    """Trapezoid sums at integer bins by the plan ``zoom``: without
    ``coarse`` over the samples k = zoom.lo..nside (zoom.lo = 0 for a
    symmetric F, summed as 2 Re; -nside otherwise), with it over the odd
    samples 2k + 1, k = zoom.lo..nside-1, of the step-halving pass only
    (``nside`` then counts coarse samples), added to the coarse sums with the
    twiddle e^{-2 pi i m / (2 zoom.M)}.  Returns (sums, summed sample
    magnitude)."""
    dtype = float if sym else complex
    if coarse is None:
        k = np.arange(zoom.lo, nside + 1, dtype=float)
        F = np.asarray(Ffun(k * dxi), dtype=dtype)
        F[0] *= 0.5
        F[-1] *= 0.5
    else:
        k = np.arange(2 * zoom.lo + 1, 2 * nside + 1, 2, dtype=float)
        F = np.asarray(Ffun(k * dxi), dtype=dtype)
    X = zoom.at(F, bins)
    mag = (2.0 if sym else 1.0) * float(np.sum(np.abs(F)))
    if coarse is not None:
        # the odd samples sit at odd indices of a wrap twice the plan's
        X *= zoom._phase(bins.copy(), -1.0)
        mag += coarse.mag
    sums = 2.0 * X.real if sym else X
    if coarse is not None:
        sums = sums + coarse.sums
    return sums, mag


def _grid_1d_sum(Ffun, Xi, x0, hx, nx, sym, refine=1, coarse=None):
    """One trapezoid evaluation; the frequency step is 2 pi over the spatial
    wrap period M hx, so ``refine`` doubling M halves the step at a fixed
    x-grid.  Node i sits at x = m hx with m = x0 / hx + i, and its value is
    the DFT of the samples at bin m mod M.

    Two routes give the same sums; ``_zoom_pays`` picks by transform cost.
    The fold adds the samples into M bins (``_fold_frequency``) and
    transforms them all by FFT (``rfft`` for a symmetric F, read at bin
    min(m, M - m)); it is the route once samples wrap.  The zoom (``_Zoom``)
    evaluates the sum only at the output and ``_edge_bins`` bins, with no
    array of length M.

    ``coarse`` is the ``fold`` returned by the pass at twice this step over
    the same window, whose samples are exactly the even samples of this
    pass; only the odd samples are evaluated, on the coarse pass's route.
    Returns (p, ``_edge_levels`` or None with ``coarse``, step, M, fold),
    fold being (bins or ``_ZoomSums``, nside, rounding estimate); the
    estimate is eps times the summed magnitude the transform takes in, the
    step / 2 pi scale and log2 of the transform length."""
    x_reach = max(abs(x0), abs(x0 + (nx - 1) * hx)) + hx
    M = refine << max(8, math.ceil(math.log2(2.0 * x_reach / hx + 2)))
    dxi_eff = 2.0 * math.pi / (M * hx)
    scale = dxi_eff / (2.0 * math.pi)
    nside = int(math.ceil(Xi / dxi_eff))
    shift = int(round(x0 / hx))
    if abs(x0 / hx - shift) > 1e-8:
        raise RangeError("grid origin must be an integer multiple of the step")
    bins = np.arange(nx) + shift
    if coarse is None:
        if _zoom_pays(M, nside, nx, sym):
            lo = 0 if sym else -nside
            zoom = _Zoom(M, lo, nside + 1 - lo, max(nx, _EDGE_RUN))
            band, quarter = _edge_bins(M, hx, sym)
            sums, mag = _zoom_pass(Ffun, dxi_eff, nside, zoom, sym,
                                   np.concatenate((bins, band, quarter)))
            spec = scale * sums
            edge = _edge_levels(np.abs(spec[nx:nx + band.size]),
                                np.abs(spec[nx + band.size:]))
            rnd = _EPS * mag * scale * math.log2(zoom.N)
            return spec[:nx], edge, dxi_eff, M, (_ZoomSums(zoom, sums[:nx], mag), nside, rnd)
        folded = _fold_frequency(Ffun, dxi_eff, nside, M, sym)
    else:
        state, nside_c, _ = coarse
        zoomed = isinstance(state, _ZoomSums)
        if nside != 2 * nside_c or 2 * (state.zoom.M if zoomed else state.size) != M:
            raise QuadratureError("the step-halving pass must double the coarse samples")
        if zoomed:
            sums, mag = _zoom_pass(Ffun, dxi_eff, nside_c, state.zoom, sym, bins,
                                   coarse=state)
            rnd = _EPS * mag * scale * math.log2(state.zoom.N)
            return scale * sums, None, dxi_eff, M, (state._replace(sums=sums, mag=mag),
                                                   nside, rnd)
        folded = np.empty(M, dtype=state.dtype)
        folded[0::2] = state
        folded[1::2] = _fold_frequency(Ffun, dxi_eff, nside_c, M // 2, sym, odd=True)
    # one DFT serves both the requested grid and the wrap-edge probe: an
    # integer-step origin is a cyclic shift of the output bins
    idx = bins % M
    if sym:
        spec = np.fft.rfft(folded)
        idx = np.minimum(idx, M - idx)
    else:
        spec = np.fft.fft(folded)
    spec *= scale
    edge = None if coarse is not None else _wrap_edge(spec, M, hx, sym)
    rnd = _EPS * float(np.sum(np.abs(folded))) * scale * math.log2(M)
    return spec[idx], edge, dxi_eff, M, (folded, nside, rnd)


_filon_K = 12
_filon_P = np.polynomial.legendre.legvander(_gl16_x, _filon_K - 1)  # (16, K)


def _spherical_jn_orders(K: int, s: np.ndarray) -> np.ndarray:
    """j_0(s) .. j_{K-1}(s) for a 1-d array of finite s, K >= 2, shape
    (K, s.size), as ``scipy.special.spherical_jn`` gives them order by order.

    Where s > k scipy runs the upward recurrence j_0 = sin s / s,
    j_1 = (j_0 - cos s) / s, j_{k+1} = (2k + 1) j_k / s - j_{k-1}; one pass
    of it, in the same operation order, yields every order at once.  Where
    s <= k scipy switches to AMOS's J_{k+1/2}, since the upward recurrence
    is unstable there; those (order, s) pairs go to scipy in one call."""
    s = np.asarray(s, dtype=float)
    j = np.empty((K, s.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j[0] = np.sin(s) / s
        j[1] = (j[0] - np.cos(s)) / s
        for k in range(1, K - 1):
            j[k + 1] = (2 * k + 1) * j[k] / s - j[k - 1]
    order, at = np.nonzero(~(s > np.arange(K)[:, None]))
    if order.size:
        j[order, at] = _sp.spherical_jn(order, s[at])
    return j


def _filon_tail(env, Xi: float, x: np.ndarray) -> Tuple[np.ndarray, float]:
    """(1/pi) Re int_Xi^inf env(u) e^{-i x u} du for an array of nonzero x.

    The envelope is expanded in Legendre polynomials on geometric panels and
    integrated against the exact oscillatory moments
    int_{-1}^{1} P_k(tau) e^{-i s tau} d tau = 2 (-i)^k j_k(s), so the
    accuracy is uniform in x.  Every node shares the panels, and each panel
    takes the moments of all K orders at all nodes from one recurrence pass
    (``_spherical_jn_orders``).  The remainder beyond the last panel is the
    leading integration-by-parts term.  Returns (values, error estimate).
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(x)
    proj = 0.5 * (2.0 * np.arange(_filon_K) + 1.0)[:, None] * (_filon_P.T * _gl16_w)
    even = np.arange(0, _filon_K, 2)
    odd = np.arange(1, _filon_K, 2)
    sgn_e = (-1.0) ** (even // 2)
    sgn_o = (-1.0) ** ((odd - 1) // 2)
    u_lo = Xi
    proj_err = 0.0
    env_lo = float(env(np.array([u_lo]))[0])
    for _ in range(400):
        # panel width: at most +-15 percent of u and at most ~2 e-folds of
        # envelope decay per half-width, so degree 11 resolves the panel
        du = 1e-3 * u_lo
        e_p = float(env(np.array([u_lo + du]))[0])
        lam = max((env_lo - e_p) / (du * max(env_lo, 1e-300)), 0.0)
        width = 0.3 * u_lo
        if lam > 0.0:
            width = min(width, 4.0 / lam)
        u_hi = u_lo + width
        c = 0.5 * (u_lo + u_hi)
        h = 0.5 * (u_hi - u_lo)
        ev = env(c + h * _gl16_x)
        a = proj @ ev
        jn = _spherical_jn_orders(_filon_K, ax * h)
        A = np.zeros_like(x)
        B = np.zeros_like(x)
        for k, sg in zip(even, sgn_e):
            A += 2.0 * sg * a[k] * jn[k]
        for k, sg in zip(odd, sgn_o):
            B += 2.0 * sg * a[k] * jn[k]
        out += h * (A * np.cos(ax * c) - B * np.sin(ax * c))
        proj_err += 2.0 * h * abs(a[-1])
        u_lo = u_hi
        env_lo = float(env(np.array([u_lo]))[0])
        if env_lo < 1e-25 or u_lo > 1e12:
            break
    U = u_lo
    envU = env_lo
    # leading integration-by-parts term for the remainder past the panels
    out -= envU * np.sin(ax * U) / np.maximum(ax, 1e-300)
    dU = 1e-3 * U
    envp = abs(float(env(np.array([U + dU]))[0]) - float(env(np.array([U - dU]))[0])) / (2.0 * dU)
    x_min = float(np.min(ax))
    rem_err = min(envp / max(x_min, 1e-300) ** 2 + envU / max(U * x_min * x_min, 1e-300),
                  3.0 * envU * U)
    return out / math.pi, (proj_err + rem_err) / math.pi


_OSC_PANELS = 240     # half-period panels of an oscillatory tail, per node or radius


def _osc_tail_term(Ffun_c, env, Xi, x: np.ndarray,
                   sym: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(1/pi) int_Xi^inf F(xi) e^{-i x xi} d xi for each node of the 1-d
    array x, by half-period panels.

    The nodes with |x| Xi >= 0.5 go through the panels together: their
    panel points are built and F is evaluated in node blocks of at most
    ``_FOLD_CHUNK`` samples, then one ``_tail_integral`` over all the panel
    ends tells which nodes have exhausted the envelope (plain sum) and one
    ``_accelerated`` pass averages the partial sums of every node.  The rest
    go one by one: at x = 0 (one node of a uniform grid) a symmetric F gives
    the plain tail integral of the envelope; a slow-phase node (|x| Xi <
    0.5) marches in decades out to u = 0.5 / |x| and joins the panels from
    there, and x = 0 of a non-symmetric F marches for good, with what the
    envelope leaves past its last decade as the error.  Returns (values,
    error estimates), one per node."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    val = np.zeros(x.size, dtype=complex)
    err = np.zeros(x.size)
    start = np.full(x.size, float(Xi))     # where each node's panels begin
    extra = np.zeros(x.size, dtype=complex)
    panels = ax * Xi >= 0.5
    for j in np.flatnonzero(~panels):
        xj = float(x[j])
        if xj == 0.0 and sym:
            tail = _tail_integral(env, 1, Xi)
            val[j], err[j] = complex(tail / math.pi), 1e-8 * tail
            continue
        # phase is slow out to u ~ 1/|x|: march in decades with the phase
        # factor treated as a smooth function, then hand over to half-period
        # panels once the oscillation sets in
        u_hand = 0.5 / abs(xj) if xj != 0.0 else math.inf
        u = Xi
        head = 0.0 + 0.0j
        exhausted = False
        for _ in range(32):
            u_next = min(10.0 * u, u_hand)
            la, lb = math.log(u), math.log(u_next)
            edges_l = np.linspace(la, lb, 4)
            mid = 0.5 * (edges_l[:-1] + edges_l[1:])
            half = 0.5 * np.diff(edges_l)
            pts = np.exp(mid[:, None] + half[:, None] * _gl16_x[None, :])
            fv = (Ffun_c(pts.reshape(-1)).reshape(pts.shape)
                  * np.exp(-1j * xj * pts) * pts)
            head += complex(np.sum(half[:, None] * _gl16_w[None, :] * fv))
            u = u_next
            if u >= u_hand - 1e-12:
                break
            rest = _tail_integral(env, 1, u)
            exhausted = rest < 1e-16
            if exhausted:
                break
        if exhausted:
            val[j], err[j] = head / math.pi, 1e-12
        elif xj == 0.0:
            val[j], err[j] = head / math.pi, rest / math.pi
        else:
            start[j], extra[j], panels[j] = u, head, True
    sel = np.flatnonzero(panels)
    if not sel.size:
        return val, err
    step = math.pi / ax[sel]
    terms = np.empty((sel.size, _OSC_PANELS), dtype=complex)
    per = max(1, _FOLD_CHUNK // (_OSC_PANELS * _gl12_x.size))
    for a in range(0, sel.size, per):
        blk = sel[a:a + per]
        st = step[a:a + per, None]
        edges = start[blk, None] + st * np.arange(_OSC_PANELS + 1)
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        pts = mids[..., None] + (0.5 * st)[..., None] * _gl12_x
        fv = Ffun_c(pts.reshape(-1)).reshape(pts.shape)
        terms[a:a + per] = 0.5 * st * np.sum(
            _gl12_w * fv * np.exp(-1j * x[blk, None, None] * pts), axis=-1)
    leftover = _tail_integral(env, 1, start[sel] + step * float(_OSC_PANELS))
    # envelope exhausted inside the panel range: plain sum is exact
    plain = leftover < 1e-15
    sums = np.sum(terms, axis=-1)
    re, ere = _accelerated(terms.real)
    im, eim = _accelerated(terms.imag)
    val.real[sel] = (extra.real[sel] + np.where(plain, sums.real, re)) / math.pi
    val.imag[sel] = (extra.imag[sel] + np.where(plain, sums.imag, im)) / math.pi
    err[sel] = np.where(plain, (1e-14 * np.sum(np.abs(terms), axis=-1) + leftover) / math.pi,
                        (ere + eim) / math.pi)
    return val, err


def _invert_1d(model: ModelSpec, t: float, x: np.ndarray,
               weight: Optional[Callable] = None) -> DensityField:
    hx = _uniform_step(x)
    x0 = float(x[0])
    nx = x.size
    sym = not (model.measure.onesided or model.measure.point_atoms() or any(model.drift))
    profile = re_psi_profile(model, 1e9)

    if weight is None:
        env = lambda u: np.exp(-t * profile(np.abs(u)))
    else:
        env = lambda u: np.abs(weight(np.abs(u))) * np.exp(-t * profile(np.abs(u)))
    dxi_cap = math.pi / (max(abs(x0), abs(x[-1])) + hx)
    Xi, tail = _choose_window(env, t, 1, dxi_cap)

    if sym:
        def Ffun(xi):
            out = np.exp(-t * profile(np.abs(xi)))
            if weight is not None:
                out = out * weight(np.abs(xi))
            return out
        Ffun_c = Ffun
    else:
        def Ffun_c(xi):
            xi = np.asarray(xi, dtype=float)
            if model.psi_exact_vec is not None:
                psis = model.psi_exact_vec(xi.reshape(-1))
            else:
                psis = np.array([eval_psi(model, [u]) for u in xi.reshape(-1)])
            vals = np.exp(-t * psis).reshape(xi.shape)
            if weight is not None:
                vals = vals * weight(np.abs(xi))
            return vals
        Ffun = Ffun_c

    # widen the DFT wrap period until the folded-image (aliasing) level is
    # negligible; heavy-tailed densities need a period far beyond the grid
    x_reach = max(abs(x0), abs(x[-1])) + hx
    refine = 1
    while True:
        p1, (alias_est, p_quarter), d1, M1, fold1 = _grid_1d_sum(
            Ffun, Xi, x0, hx, nx, sym, refine=refine)
        if alias_est < 1e-8 or M1 >= (1 << 21):
            break
        # predict the wrap period that meets the target from the observed
        # power-law decay between half and full edge, then jump directly
        jump = 2
        if p_quarter > 0.0 and alias_est > 0.0:
            q = math.log(max(2.0 * p_quarter / alias_est, 1.0 + 1e-12)) / math.log(2.0)
            if q > 0.1:
                need = (alias_est / 1e-8) ** (1.0 / q)
                jump = max(2, 1 << math.ceil(math.log2(need)))
        while refine * jump > (1 << 21) // (M1 // refine):
            jump //= 2
        refine *= max(jump, 2)
    # Richardson pass: frequency steps d and d/2 share the x-grid (doubling
    # the DFT length halves the frequency step); truncation edges coincide,
    # so the coarse samples are every other fine sample and are reused
    Xi_eff = math.ceil(Xi / d1) * d1
    p2, _, d2, M2, fold2 = _grid_1d_sum(Ffun, Xi_eff - 0.25 * d1, x0, hx, nx, sym,
                                        refine=2 * refine, coarse=fold1)
    p = (4.0 * p2 - p1) / 3.0
    rounding = (4.0 * fold2[2] + fold1[2]) / 3.0

    # analytic continuation of the truncated frequency tail
    corr_err = 0.0
    corr = np.zeros(nx)
    osc = np.ones(nx, dtype=bool)
    if sym:
        # the two half-axes pair into Re of the one-sided integral; the
        # Filon route evaluates it for every nonzero grid node at once
        osc = x == 0.0
        if not np.all(osc):
            corr[~osc], ce = _filon_tail(env, Xi_eff, x[~osc])
            corr_err = max(corr_err, ce)
    if np.any(osc):
        c, e = _osc_tail_term(Ffun_c, env, Xi_eff, x[osc], sym)
        corr[osc] = c.real
        corr_err = max([corr_err, *e.tolist()])
    p = p + corr

    vals = np.real(p)
    residue = float(np.max(np.abs(np.imag(p)))) if p.size else 0.0
    mass = float(np.trapezoid(vals, x))
    # the sums sit at x = (x0 / hx + i) hx, which misses x[i] by the rounding
    # carried in hx = x[1] - x[0]; the slope of the result converts the miss
    miss = np.abs(x - (round(x0 / hx) + np.arange(nx)) * hx)
    rounding += float(np.max(miss * np.abs(np.gradient(vals, x))))
    tail_bound = alias_est + float(np.max(np.abs(p2 - p1))) / 3.0 + corr_err + rounding
    return DensityField(kind="grid", dim=1, t=t, nodes=(np.asarray(x, float),),
                        values=vals, mass=mass, tail_bound=tail_bound,
                        imag_residue=residue)


_LATTICE_BLOCK = 1 << 16    # lattice samples evaluated at once


def _lattice_sum_2d(Fr, dxi: float, n: int, pts_x: np.ndarray,
                    pts_y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(dxi/2pi)^2 trapezoid of Fr(|xi|) e^{-i x.xi} on the square lattice
    xi = dxi (a, b), |a|, |b| <= n, at the points pts_x x pts_y; and the
    same at step 2 dxi over its even sub-lattice, from the same samples (a
    trapezoid sum when n is even).  Returns (fine, coarse).

    Fr takes radii, so evenness in both axes folds the sum onto one quadrant
    and makes it the product C1 S C2^T of two cosine matrices around the
    radial samples S.  S is symmetric: with U its half a <= b, diagonal at
    half weight, C1 S C2^T = C1 U C2^T + (C2 U C1^T)^T, so only U is sampled.
    The radii are dxi sqrt(a^2 + b^2), from integer squares that are exact
    in floating point.  U is built in blocks of rows of at most
    ``_LATTICE_BLOCK`` samples, so no (n + 1)^2 array exists; every block
    starts on an even row, so its even rows and columns are the coarse
    lattice's, and the coarse cosine matrices are every other column of the
    fine ones."""
    xi = np.arange(n + 1) * dxi
    wfold = np.full_like(xi, 2.0)
    wfold[0] = wfold[-1] = 1.0
    ny = pts_y.size
    C = np.cos(np.outer(np.concatenate((pts_y, pts_x)), xi)) * wfold   # C2 over C1
    Cc = C[:, ::2].copy()      # contiguous for the products
    fine = (np.zeros((pts_x.size, ny)), np.zeros((ny, pts_x.size)))
    coarse = (np.zeros_like(fine[0]), np.zeros_like(fine[1]))

    def add(sums, Ck, U, lo, hi):
        # rows lo:hi of U against the columns from lo on, in both orders
        s, s_t = sums
        V = U @ Ck[:, lo:].T
        s += Ck[ny:, lo:hi] @ V[:, :ny]
        s_t += Ck[:ny, lo:hi] @ V[:, ny:]

    sq = np.arange(n + 1, dtype=float) ** 2
    a = 0
    while a <= n:
        cols = n + 1 - a
        b = min(a + 2 * max(1, _LATTICE_BLOCK // (2 * cols)), n + 1)
        R = sq[a:b, None] + sq[a:]
        np.sqrt(R, out=R)
        R *= dxi
        U = Fr(R.reshape(-1)).reshape(R.shape)
        # the block's lower triangle lies off U; the diagonal, which U and
        # U^T share, counts half
        for r in range(1, b - a):
            U[r, :r] = 0.0
        U.reshape(-1)[::cols + 1] *= 0.5
        add(fine, C, U, a, b)
        add(coarse, Cc, U[::2, ::2], a // 2, (b + 1) // 2)
        a = b
    scale = (dxi / (2.0 * math.pi)) ** 2
    return ((fine[0] + fine[1].T) * scale,
            (coarse[0] + coarse[1].T) * (4.0 * scale))


def _alias_estimate(pv: np.ndarray) -> float:
    """Alias estimate from the lattice sums at the three wrap-edge probe
    points (the diagonal of ``pv``)."""
    return 4.0 * float(np.max(np.abs(np.diag(pv))))


def _invert_2d(model: ModelSpec, t: float, grid) -> DensityField:
    xs = np.asarray(grid[0], dtype=float)
    ys = np.asarray(grid[1], dtype=float)
    hx = _uniform_step(xs)
    hy = _uniform_step(ys)
    if not model.measure.is_radial or any(model.drift) or _scalar_q(model) is None:
        raise UnsupportedModelError(
            "two-dimensional inversion needs a symmetric radial model: a radial "
            "measure, no drift and a gaussian matrix q I")
    profile = re_psi_profile(model, 1e9)
    env = lambda u: np.exp(-t * profile(u))
    Fr = env
    reach = max(np.max(np.abs(xs)) + hx, np.max(np.abs(ys)) + hy)
    Xi, tail = _choose_window(env, t, 2, math.pi / reach, tail_target=1e-8,
                              point_tol=1e-9, budget=1 << 13)

    # widen the lattice wrap period until the density probed at the wrap
    # edge (the nearest periodic image) is negligible
    W = 4.0 * reach
    for k in range(7):
        dxi = 2.0 * math.pi / W
        n1 = min(int(math.ceil(Xi / dxi)), 1500)
        e = 0.5 * W
        px = np.array([e, e / math.sqrt(2.0), 0.0])
        py = np.array([0.0, e / math.sqrt(2.0), e])
        if k == 6:
            # the last probe, which always ends the search, samples the
            # coarse Richardson lattice: the fine pass reads it below
            break
        alias_est = _alias_estimate(_lattice_sum_2d(Fr, dxi, n1, px, py)[0])
        if alias_est < 1e-7:
            px = py = np.empty(0)
            break
        W *= 2.0
    Xi_eff = n1 * dxi
    tail_eff = _tail_integral(env, 2, Xi_eff)

    # Richardson pass in the frequency step for the |xi|-kink error; the
    # coarse lattice is the even sub-lattice of the fine one.  x = 0 is
    # stacked last: F is positive, so the sums there are the summed sample
    # magnitudes.  The rounding estimate is eps times those and log2 of the
    # fine lattice's sample count, as the 1-d route takes it
    nx, ny = xs.size, ys.size
    p2, p1 = _lattice_sum_2d(Fr, 0.5 * dxi, 2 * n1, np.concatenate((xs, px, [0.0])),
                             np.concatenate((ys, py, [0.0])))
    if px.size:
        alias_est = _alias_estimate(p1[nx:-1, ny:-1])
    rounding = _EPS * (4.0 * p2[-1, -1] + p1[-1, -1]) / 3.0 * math.log2((4 * n1 + 1) ** 2)
    p1, p2 = p1[:nx, :ny], p2[:nx, :ny]
    vals = (4.0 * p2 - p1) / 3.0
    mass = float(np.trapezoid(np.trapezoid(vals, ys, axis=1), xs))
    tail_bound = (tail_eff / (2.0 * math.pi) ** 2 * 2.0 * math.pi
                  + alias_est + float(np.max(np.abs(p2 - p1))) / 3.0 + rounding)
    return DensityField(kind="grid", dim=2, t=t, nodes=(xs, ys), values=vals,
                        mass=mass, tail_bound=tail_bound)


def invert_grid(model: ModelSpec, t: float, grid) -> DensityField:
    """Density field of model at time t on a uniform spatial grid (dim 1 or 2)."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    if model.dim == 1:
        x = np.asarray(grid, dtype=float)
        return _invert_1d(model, t, x)
    if model.dim == 2:
        return _invert_2d(model, t, grid)
    raise UnsupportedModelError("grid inversion supports dim 1 and 2; use invert_radial")


# -- radial route ---------------------------------------------------------


def pt_zero(model: ModelSpec, t: float) -> float:
    """p_t(0) = (2 pi)^{-n} int e^{-t Re psi(xi)} d xi for radial-exponent models."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    n = model.dim
    if n > 1 and not model.measure.is_radial:
        raise UnsupportedModelError("pt_zero needs a radial exponent for dim > 1")
    profile = re_psi_profile(model, 1e12)
    env = lambda u: np.exp(-t * profile(u))
    tail_all = _tail_integral(env, n, 1e-8)
    if math.isinf(tail_all):
        raise IntegrabilityRefusal(
            f"int e^(-t Re psi) diverges at t={t}",
            diagnostics={"t": t, "dim": n})
    head = _head_integral(env, n, 1e-8)
    return sphere_surface(n) * (head + tail_all) / (2.0 * math.pi) ** n


def invert_radial(model: ModelSpec, t: float, radii: Sequence[float]) -> DensityField:
    """p_t(|x|) for isotropic models in any dimension via the radial formula.

    p_t(r) = (2 pi)^{-n} omega_{n-1} int_0^inf e^{-t g(u^2)} u^{n-1}
             H_{(n-2)/2}(u r) du, with half-period oscillatory panels and
    series acceleration for slowly decaying envelopes.
    """
    if not model.isotropic:
        raise UnsupportedModelError("invert_radial needs an isotropic model")
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    n = model.dim
    nu = 0.5 * n - 1.0
    profile = re_psi_profile(model, 1e12)
    env = lambda u: np.exp(-t * profile(u))
    pref = sphere_surface(n) / (2.0 * math.pi) ** n

    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0):
        raise RangeError("radii must be nonnegative")
    vals = np.empty_like(radii)
    worst_tail = 0.0
    p0 = None
    for i, r in enumerate(radii):
        if r == 0.0:
            if p0 is None:
                p0 = pt_zero(model, t)
            vals[i] = p0
            continue
        f = lambda u: env(u) * u ** (n - 1) * specfun.h_kernel_array(nu, u * r)
        u_knee = min(1.0, 30.0 / r)
        edges = np.geomspace(1e-9, u_knee, 64)
        total = env(np.array([5e-10]))[0] * 1e-9 ** n / n   # [0, 1e-9] head
        total += _panel_sum(f, edges, _gl16_x, _gl16_w)
        u_big = 30.0 / r
        if u_big > u_knee:
            # panel width capped both by the kernel half-period and by a
            # geometric-growth rule that keeps the envelope resolved
            half_period = 0.5 * math.pi / r
            u = u_knee
            while u < u_big:
                du = min(half_period, max(0.25 * u, 1e-3))
                u_next = min(u + du, u_big)
                total += _panel_sum(f, np.array([u, u_next]), _gl16_x, _gl16_w)
                u = u_next
                if env(np.array([u]))[0] * u ** (n - 1) < 1e-22 * abs(total):
                    break
            u_big = u
        # oscillatory tail in half periods of the Bessel kernel, summed
        # plainly up to the first panel end whose envelope tail is under
        # 1e-16, else accelerated over all the panels; the ends' tails are
        # taken in blocks of 1, 2, 4, ... ends
        ends = np.full(_OSC_PANELS + 1, math.pi / r)
        ends[0] = u_big
        np.cumsum(ends, out=ends)
        stop = None
        lo, size = 1, 1
        while stop is None and lo <= _OSC_PANELS:
            for k, left in enumerate(_tail_integral(env, n, ends[lo:lo + size]).tolist(),
                                     lo):
                if math.isinf(left):
                    raise IntegrabilityRefusal(
                        f"envelope tail diverges at t={t}", diagnostics={"t": t})
                if left < 1e-16:
                    stop, tail_est = k, left
                    break
            lo, size = lo + size, 2 * size
        terms = [_panel_sum(f, ends[k:k + 2], _gl12_x, _gl12_w)
                 for k in range(stop or _OSC_PANELS)]
        if stop is not None:
            total += math.fsum(terms)
        else:
            acc, tail_est = _accelerated(np.asarray(terms))
            total += acc
        vals[i] = pref * total
        worst_tail = max(worst_tail, pref * tail_est)
    order = np.argsort(radii)
    mass = float(sphere_surface(n) * np.trapezoid(
        vals[order] * radii[order] ** (n - 1), radii[order])) if radii.size > 1 else math.nan
    return DensityField(kind="radial", dim=n, t=t, nodes=(radii,), values=vals,
                        mass=mass, tail_bound=worst_tail)


def multiplier_apply(model: ModelSpec, phi_model: ModelSpec, m: int, t: float,
                     grid) -> DensityField:
    """Field of phi(D)^m p_t, the Fourier multiplier phi^m applied to the density.

    m = 0 delegates to invert_grid and is bit-identical with it.
    """
    if m < 0 or int(m) != m:
        raise RangeError("multiplier power m must be a nonnegative integer")
    if m == 0:
        return invert_grid(model, t, grid)
    if model.dim != 1:
        raise UnsupportedModelError("multiplier fields are one-dimensional here")
    phi_profile = re_psi_profile(phi_model, 1e9)
    weight = lambda u: phi_profile(np.abs(u)) ** m
    return _invert_1d(model, t, np.asarray(grid, dtype=float), weight=weight)


def closed_form(family: str, t: float, x, dim: int = 1) -> float:
    """Closed-form reference densities used as oracles.

    Families: gaussian, cauchy, gamma, sym_gamma_besselk, laplace.
    """
    n = dim
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    if family == "gaussian":
        r2 = float(np.dot(x, x)) if np.ndim(x) else float(x) ** 2
        return (4.0 * math.pi * t) ** (-0.5 * n) * math.exp(-r2 / (4.0 * t))
    if family == "cauchy":
        r2 = float(np.dot(x, x)) if np.ndim(x) else float(x) ** 2
        cn = math.gamma(0.5 * (n + 1)) / math.pi ** (0.5 * (n + 1))
        return cn * t / (t * t + r2) ** (0.5 * (n + 1))
    if family == "gamma":
        xv = float(x)
        if xv <= 0:
            raise RangeError("gamma density needs x > 0")
        return xv ** (t - 1.0) * math.exp(-xv) / math.gamma(t)
    if family in ("sym_gamma_besselk", "laplace"):
        if family == "laplace":
            n = 1
        nu = t - 0.5 * n
        if nu <= 0:
            raise RangeError(
                f"Bessel-form symmetric gamma density needs t > dim/2 (t={t}, dim={n})")
        r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, float))))
        c = 2.0 ** (1.0 - n) / (math.pi ** (0.5 * n) * math.gamma(t))
        if r == 0.0:
            return 0.5 * c * math.gamma(nu)
        kv = specfun.bessel_k(nu, r).value
        return c * (0.5 * r) ** nu * kv
    raise RangeError(f"unknown closed-form family '{family}'")
