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

A 1-d grid takes one of three routes, chosen per inversion by counted cost
(``_route``) from M, the sample count, the node count and, for a symmetric
exponent, the point route's panel count, with M the wrap that the grid's
first pass predicts.  Two of them take the DFT:

* the fold adds each sample into bin k mod M by slices (a contiguous run of
  k lands on contiguous bins) and transforms all M bins by FFT; the mirrored
  half axis goes through ``rfft``.  Grids with many more samples than bins
  and too many nodes for the point route need it.
* the zoom, when no sample wraps and the samples and nodes are far fewer
  than M, evaluates the sum only at the output bins and the wrap-edge probe
  bins by Bluestein's chirp-z convolution, of length about samples + nodes
  (Bluestein 1970; Bailey and Swarztrauber 1991).  Heavy-tailed laws widen
  the wrap to 2^21-2^22 bins for a few percent of nonzero samples; the zoom
  allocates nothing of length M.

The third, the point route (``_point_pass``), serves a symmetric exponent
on few nodes: p(x_i) = (1/pi) int_0^inf F(u) cos(x_i u) du at the exact
nodes, by one Filon run from the origin (Filon 1928; Iserles and Norsett
2005).  It has no wrap, no Richardson pass and no node placement error.
It costs about 16 exponent samples a panel and K moment terms per panel and
node.  The route is chosen after the grid route's first pass, which
predicts the wrap the grid widens to (``_widened``, the same jump rule the
widening runs): the point route is taken only when its weighted cost is
below a grid pass at that wrap, a lower bound on any grid run.  A wrap
edge that shows no decay predicts only a doubling; the grid's next passes,
which it would run anyway, then run before the choice.  The grid route
continues from the passes already run, so none runs twice.  A symmetric F
whose grid origin is off the step's lattice takes the point route, which
needs no DFT bins.  Its tail_bound is the sum of four
parts: the projection (the dropped Legendre orders), the remainder past the
last panel, the head below the first panel, and the rounding.

The xi-window is chosen by a doubling ladder on every route; the leftover
tail integral of the envelope is estimated on a log grid and reported as
part of tail_bound.  A tail whose decade contributions do not decrease
marks a non-integrable exponent at this t and raises IntegrabilityRefusal.

On a grid route the frequency tail beyond the window is added back
analytically, for all nonzero nodes of a 1-d grid at once, by the Filon
panels of the point route run from the window's edge (``_filon_tail``):
the panel edges come from one ladder of envelope samples
(``_filon_panels``), one call of F serves every panel's GL points, and the
spherical Bessel moments of all orders at all (panel, node) pairs come from
one upward recurrence pass per block of at most ``_FOLD_CHUNK`` pairs, and
from ``specfun``'s backward recurrence where the upward one is unstable
(s <= k), the recurrence that also gives ``invert_radial`` its kernel.  A complex
F (a one-sided part, point atoms, drift) takes the same panels, with Re F
and Im F expanded alike.  At x = 0, on either route, a run cut at the cap
adds the decade tail of Re F past its last panel (``_tail_at_zero``).

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

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as _sfft
from scipy import special as _sp

from .errors import IntegrabilityRefusal, QuadratureError, RangeError, UnsupportedModelError
from .levy_core import ModelSpec, _im_psi, _isotropy_breach, re_psi_profile
from .measures import sphere_surface
from .quadrature import (
    _FOLD_CHUNK,
    _decade_piece,
    _env_power,
    _gl16_w,
    _gl16_x,
    _half_period_ends,
    _half_period_tail,
    _head_integral,
    _panel_terms,
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


def _uniform_step(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise RangeError("grid must be a 1-d array with at least two nodes")
    d = x[1:] - x[:-1]
    h = float(d[0])
    # np.allclose(d, h, rtol=1e-9, atol=1e-12) written out, for a finite h
    if not (0.0 < h < math.inf and (np.abs(d - h) <= 1e-12 + 1e-9 * h).all()):
        raise RangeError("grid must be uniformly spaced and increasing")
    return h


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


# samples the fold evaluates and adds per step: glibc keeps the temporaries
# of 128 KB arrays on its heap, while 512 KB ones are trimmed off and faulted
# back in at every step (2,816 minor faults on a nine-node stable grid, 448)
_FOLD_STREAM = 1 << 14


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
    in steps of ``_FOLD_STREAM``, so multi-million-sample windows never
    materialize."""
    dtype = float if sym else complex
    folded = np.zeros(M, dtype=dtype)
    lo = 0 if sym else -nside
    hi = nside if odd else nside + 1
    for a in range(lo, hi, _FOLD_STREAM):
        b = min(a + _FOLD_STREAM, hi)
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
_ALIAS_TOL = 1e-8          # the folded-image level that ends the wrap widening
_WRAP_CAP = 1 << 21        # the widest wrap it tries
_DECAY_MIN = 0.1           # the least edge decay power the widening extrapolates
_POINT_WEIGHT = 16.0       # counted units per point-route term (see ``_route``)


def _decay(edge: Tuple[float, float]) -> float:
    """The power q of the density's decay between the quarter period and
    the wrap edge, read from a pass's ``_edge_levels``; 0 when either level
    is 0."""
    alias_est, p_quarter = edge
    if p_quarter > 0.0 and alias_est > 0.0:
        return math.log(max(2.0 * p_quarter / alias_est, 1.0 + 1e-12)) / math.log(2.0)
    return 0.0


def _widened(edge: Tuple[float, float], M: int, refine: int) -> int:
    """The refine factor of the next wrap after a pass at wrap M and
    ``refine`` whose ``_edge_levels`` are ``edge``: ``refine`` itself when
    that pass's folded-image level is below 1e-8 or M is already 2^21 bins.
    Otherwise, when the edge shows a decay of power q > 0.1, it predicts the
    wrap that meets 1e-8 from it and jumps there at once; it doubles when it
    shows none.  A jump is at least a doubling and ends at 2^21 bins."""
    alias_est = edge[0]
    if alias_est < _ALIAS_TOL or M >= _WRAP_CAP:
        return refine
    jump = 2
    q = _decay(edge)
    if q > _DECAY_MIN:
        need = (alias_est / _ALIAS_TOL) ** (1.0 / q)
        jump = max(2, 1 << math.ceil(math.log2(need)))
    while refine * jump > _WRAP_CAP // (M // refine):
        jump //= 2
    return refine * max(jump, 2)


def _lattice_shift(x0: float, hx: float) -> Optional[int]:
    """x0 / hx when the grid origin is an integer multiple of the step, as
    the DFT routes need (node i then sits on bin x0 / hx + i); else None."""
    shift = int(round(x0 / hx))
    return shift if abs(x0 / hx - shift) <= 1e-8 else None


def _route(M: int, nside: int, nx: int, sym: bool, panels: int = 0) -> str:
    """'fold', 'zoom' or 'point': the route of least counted cost.

    A length-n FFT counts n log2 n, and so does evaluating n exact-integer
    phases.  The fold transforms M and then 2 M bins; for a symmetric F its
    cheaper ``rfft`` is offset by the passes that zero, mirror and copy the
    bins.  The zoom, which no wrapping sample allows, computes its chirp
    kernel (phases and one FFT), then per run of bins the sample phases and
    two FFTs of length N.  The runs are the output nodes, the wrap-edge bins
    (two runs with the mirror, three without) and the step-halving odd
    samples.

    Given its panel count P, the point route (a symmetric F only) counts
    W (16 + K nx) P: 16 exponent samples a panel and K moment terms per
    panel and node, each weighted by W = 16 counted units.  It is chosen
    only when that is below the first pass of a grid route, its samples and
    its transform, at the wrap M (with its nside) that ``_invert_1d``'s
    first pass predicts.  Widening only grows M, so that is a lower bound on
    what the grid route costs.  W is measured: on many nodes a point-route
    term costs about 0.2 us and a counted grid unit 8-13 ns.  The
    break-even W* of an input (that grid count over (16 + K nx) P), with
    the faster route after the shared first pass timed on 2 vCPUs, is

        point route faster:  cauchy on 5 nodes 8,091, on 12 nodes 2,954 and
          on 41 nodes 894; two-node ratios of cauchy 1,011-2,122, stable
          alpha 1.3 276, 1.5 64.6-71.6 and 1.7 16.7-16.9; stable 1.5 on 9
          nodes 61-62;
        grid route faster:  stable 1.7 on 9 nodes 15.4-15.6 (3.6 ms
          against 2.6-3.4 ms); on 2001 nodes stable 5.3-5.9, cauchy 4.7,
          sym_gamma 0.07, Laplace 0.06 and gaussian 0.01 (0.5-0.7 s
          against 9-80 ms); two-node gaussian ratios 1.9-2.1 (1.4 ms
          against 0.7 ms); sym_gamma on 5 nodes 0.44-0.49 and gaussian
          on 5 nodes 0.79-0.87;
        either:  two-node sym_gamma ratios 1.06-1.20 (1.1-2.3 ms each).

    W = 16 falls between the nine-node and the two-node stable 1.7 inputs,
    the closest pair on either side."""
    size = nside + 1 if sym else 2 * nside + 1
    runs = 4 if sym else 5
    fold_first = M * math.log2(M)
    fold = fold_first + 2 * M * math.log2(2 * M)
    zoom = zoom_first = math.inf
    if 2 * nside + 1 <= M:      # no sample wraps
        N = _sfft.next_fast_len(size + max(nx, _EDGE_RUN) - 1)
        zoom = ((2 + 2 * runs) * N + runs * size) * math.log2(N)
        zoom_first = ((2 * runs) * N + (runs - 1) * size) * math.log2(N)
    if sym and panels and (_POINT_WEIGHT * (16 + _filon_K * nx) * panels
                           < size + min(fold_first, zoom_first)):
        return "point"
    return "zoom" if zoom < fold else "fold"


def _wrap(Xi: float, x0: float, hx: float, nx: int, refine: int = 1) -> Tuple[int, float, int]:
    """(M, frequency step, nside) of a trapezoid pass over [-Xi, Xi] onto
    the nx nodes x0 + i hx: the DFT length M covers twice the grid's reach
    (at least 2^8, times ``refine``), the step is 2 pi / (M hx), and nside
    samples a side reach Xi."""
    x_reach = max(abs(x0), abs(x0 + (nx - 1) * hx)) + hx
    M = refine << max(8, math.ceil(math.log2(2.0 * x_reach / hx + 2)))
    dxi = 2.0 * math.pi / (M * hx)
    return M, dxi, int(math.ceil(Xi / dxi))


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

    Two routes give the same sums; ``_route`` picks by transform cost.
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
    M, dxi_eff, nside = _wrap(Xi, x0, hx, nx, refine)
    scale = dxi_eff / (2.0 * math.pi)
    shift = _lattice_shift(x0, hx)
    if shift is None:
        raise RangeError("grid origin must be an integer multiple of the step (field 'grid')")
    bins = np.arange(nx) + shift
    if coarse is None:
        if _route(M, nside, nx, sym) == "zoom":
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
# a_k = (2k + 1) / 2 int_{-1}^{1} P_k F: the GL-16 projection onto P_0 .. P_{K-1}
_filon_proj = (0.5 * (2.0 * np.arange(_filon_K) + 1.0)[:, None]
               * (np.polynomial.legendre.legvander(_gl16_x, _filon_K - 1).T * _gl16_w))
_FILON_STOP = 1e-25        # the envelope level, or
_FILON_CAP = 1e12          # the frequency, that ends the panels
_FILON_PANELS = 400
_LADDER = math.sqrt(1.3)   # ratio of the envelope samples that size the panels
_LADDER_CHUNK = 16
_HEAD_REL = 1e-18          # the head's bound, relative to the mass below it


class _FilonPanels(NamedTuple):
    """Panels of a Filon run: their P + 1 edges, and ``head``, the bound on
    the piece [0, edges[0]] of a run from the origin (None for a tail)."""
    edges: np.ndarray
    head: Optional[float]


class _FilonBound(NamedTuple):
    """The parts of a Filon run's error bound; they sum to the bound."""
    projection: float      # the dropped Legendre orders, 2 h |a_{K-1}| a panel
    remainder: float       # past the last panel
    head: float            # below the first panel
    rounding: float


def _filon_head(env, reach: float) -> Tuple[float, float]:
    """(u0, bound) for a run from the origin.  The head [0, u0] is taken as
    F(u0) sin(x u0) / x, off by at most u0 |F(0) - F(u0)| where F is
    monotone on it, as e^{-t Re psi} is near the origin.  u0 is the largest
    of reach, reach / 10, ... at which this bound, and the bound at every
    decade below, is at most 1e-18 of max u F(u) over the decades, a lower
    bound on the mass.  The decades down to the exponent table's floor of
    1e-12 are sampled at once, the rest one by one."""
    f0 = float(env(np.zeros(1))[0])
    d = reach * 10.0 ** -np.arange(max(math.floor(math.log10(reach / 1e-12)), 0) + 1)
    v = env(d)
    mass = float(np.max(d * v))
    gap = d * np.abs(f0 - v)
    over = np.flatnonzero(gap > _HEAD_REL * mass)
    if not over.size:
        return float(d[0]), float(gap[0])
    if over[-1] + 1 < d.size:
        return float(d[over[-1] + 1]), float(gap[over[-1] + 1])
    u, g = float(d[-1]), float(gap[-1])
    while g > _HEAD_REL * mass and u > 1e-300:
        u *= 0.1
        g = u * abs(f0 - float(env(np.array([u]))[0]))
    return u, g


def _filon_panels(env, u_lo: float, reach: float,
                  pays: Optional[Callable[[int], bool]] = None) -> Optional[_FilonPanels]:
    """Panels from u_lo > 0 (a tail) or from the origin (u_lo = 0, with the
    head of ``_filon_head``), up to where the envelope falls below 1e-25 or
    u passes 1e12; at most 400.  ``pays``, given a panel count, tells
    whether a run of that many panels is still wanted: None is returned
    without a layout when a lower bound on the count fails it, or when the
    count itself does.

    A panel is at most 0.3 u wide, and at most 4 / lambda with lambda the
    decay rate -d ln env / du, so that degree K - 1 resolves it.  lambda is
    the larger slope of ln env over two cells of a ladder of envelope
    samples (ratio sqrt(1.3), from the first edge): the cell that holds the
    panel's start and the next, which bounds the rate at the start where it
    grows with u.  The level that ends the panels is read off the same
    ladder.  The ladder is sampled at once up to ``reach``, a range the
    window search has sampled already, and 16 cells past it; 16 cells at a
    time beyond that.  Once the lower bound on the count is checked, the
    ladder is a pair of lists of Python floats, the loop steps floats and
    finds cells by bisection: the same float64 operations, in the same
    order, as on numpy scalars, without their overhead on every step."""
    head = None
    if u_lo == 0.0:
        u_lo, head = _filon_head(env, reach)

    def log_env(u):
        return np.log(np.maximum(env(u), 1e-300))

    n = max(math.ceil(math.log(reach / u_lo) / math.log(_LADDER)), 0) + _LADDER_CHUNK
    g = u_lo * _LADDER ** np.arange(n + 1)
    L = log_env(g)
    stop = math.log(_FILON_STOP)
    # the panels end only past the envelope's peak: a weighted F rises from 0
    peak = float(g[np.argmax(L)])
    if pays is not None:
        # the last edge lies past every ladder sample above the stop level
        # (or past the cap), and each panel widens u by at most 1.3
        spent = np.flatnonzero((L < stop) & (g > peak))
        g_s = min(float(g[spent[0] - 1] if spent.size else g[-1]), _FILON_CAP)
        least = min(math.ceil(math.log(g_s / u_lo) / math.log(1.3) - 1e-9), _FILON_PANELS)
        if not pays(max(least, 1)):
            return None
    g, L = g.tolist(), L.tolist()

    def cell(u):
        # index j of the ladder cell [g_j, g_{j+1}) that holds u, with the
        # ladder sampled through the next cell
        while u >= g[-2]:
            more = g[-1] * _LADDER ** np.arange(1, _LADDER_CHUNK + 1)
            g.extend(more.tolist())
            L.extend(log_env(more).tolist())
        return bisect.bisect_right(g, u) - 1

    e, j = u_lo, 0
    edges = [e]
    for _ in range(_FILON_PANELS):
        slope = max((L[j] - L[j + 1]) / (g[j + 1] - g[j]),
                    (L[j + 1] - L[j + 2]) / (g[j + 2] - g[j + 1]))
        width = 0.3 * e
        if slope > 0.0:
            width = min(width, 4.0 / slope)
        e += width
        edges.append(e)
        j = cell(e)
        level = L[j] + (L[j + 1] - L[j]) * (e - g[j]) / (g[j + 1] - g[j])
        if (level < stop and e > peak) or e > _FILON_CAP:
            break
    if pays is not None and not pays(len(edges) - 1):
        return None
    return _FilonPanels(np.array(edges), head)


def _spherical_jn_orders(K: int, s: np.ndarray) -> np.ndarray:
    """j_0(s) .. j_{K-1}(s) for a 1-d array of finite s, K >= 2, shape
    (K, s.size).

    Where s > k one pass of the upward recurrence j_0 = sin s / s,
    j_1 = (j_0 - cos s) / s, j_{k+1} = (2k + 1) j_k / s - j_{k-1} yields
    every order at once.  Where 0 < s <= k the upward recurrence is unstable;
    those (order, s) pairs take ``specfun.bessel_j_orders`` at nu = 1/2,
    Miller's backward recurrence, whose rows are j_0 .. j_{K-1}; at s = 0
    they are 1, 0, 0, ..., as it gives them, with no recurrence run."""
    s = np.asarray(s, dtype=float)
    j = np.empty((K, s.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j[0] = np.sin(s) / s
        j[1] = (j[0] - np.cos(s)) / s
        for k in range(1, K - 1):
            j[k + 1] = (2 * k + 1) * j[k] / s - j[k - 1]
    j[:, s == 0.0] = (np.arange(K) == 0)[:, None]
    low = np.flatnonzero(~(s > K - 1) & (s != 0.0))
    if low.size:
        sl = s[low]
        j[:, low] = np.where(sl > np.arange(K)[:, None], j[:, low],
                             specfun.bessel_j_orders(0.5, K, sl))
    return j


def _filon_tail(f: _Integrand, panels: _FilonPanels, x: np.ndarray) -> Tuple[np.ndarray, _FilonBound]:
    """(1/pi) Re int_{u_0}^inf F(u) e^{-i x u} du for an array of x, over
    the ``panels`` from u_0 = edges[0], with F = f.F; for a run from the
    origin the head [0, u_0] is added, so the integral starts at 0.  F is
    real and even, or complex with F(-u) = conj F(u); either way this is
    the two-sided tail (1/2pi) int_{|u| > u_0} F(u) e^{-i x u} du.

    Re F and Im F are expanded in Legendre polynomials on each panel and
    integrated against the exact oscillatory moments
    int_{-1}^{1} P_k(tau) e^{-i s tau} d tau = 2 (-i)^k j_k(s), so the
    accuracy is uniform in x.  One F call serves every panel's GL-16 points
    and the points of the remainder; the moments of all K orders at all
    (panel, node) pairs come from ``_spherical_jn_orders``, in blocks of
    whole panels holding at most ``_FOLD_CHUNK`` pairs, or one panel when
    its nodes alone exceed that.  The remainder beyond the last panel U is
    the leading integration-by-parts term, Re F(U) e^{-i x U} / (i x), and
    its bound takes |F| and |F'|.  At x = 0, where that term is 0, it is
    under 3 |F(U)| U for a run that ended on the envelope level, and the
    decade tail of Re F past U (``_tail_at_zero``) for one cut at the cap or
    the panel count.  Returns (values, bound parts).
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    edges = panels.edges
    c = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * np.diff(edges)
    U = float(edges[-1])
    dU = 1e-3 * U
    ev = f.F(np.concatenate(((c[:, None] + h[:, None] * _gl16_x).reshape(-1),
                             [U - dU, U, U + dU, edges[0]])))
    cplx = np.iscomplexobj(ev)
    a = ev[:-4].reshape(-1, _gl16_x.size) @ _filon_proj.T      # (P, K)
    # e^{-i x c} h sum_k a_k 2 (-i sign x)^k j_k(|x| h), with A and B the
    # even and odd sums: Re of it is h (A cos(|x| c) - B sin(|x| c)) for a
    # real F, plus h sign(x) (Im B cos(|x| c) + Im A sin(|x| c)) for Im F
    k = np.arange(_filon_K)
    sgn = np.where(k % 4 < 2, 2.0, -2.0)
    ca = (sgn * a)[:, 0::2]
    cb = (sgn * a)[:, 1::2]
    sx = np.sign(x)
    out = np.zeros_like(x)
    per = max(1, _FOLD_CHUNK // x.size)
    for b in range(0, h.size, per):
        blk = slice(b, b + per)
        jn = _spherical_jn_orders(_filon_K, (h[blk, None] * ax).reshape(-1))
        jn = jn.reshape(_filon_K, -1, x.size)
        A = np.einsum("pk,kpn->pn", ca[blk], jn[0::2])
        B = np.einsum("pk,kpn->pn", cb[blk], jn[1::2])
        phase = c[blk, None] * ax
        if not cplx:
            out += np.sum(h[blk, None] * (A * np.cos(phase) - B * np.sin(phase)), axis=0)
            continue
        cos, sin = np.cos(phase), np.sin(phase)
        # panel by panel, so that no node's sum depends on the other nodes
        for row in h[blk, None] * (A.real * cos - B.real * sin
                                   + sx * (B.imag * cos + A.imag * sin)):
            out += row
    FU = ev[-3]
    envU = float(abs(FU))
    # leading integration-by-parts term for the remainder past the panels
    out -= FU.real * np.sin(ax * U) / np.maximum(ax, 1e-300)
    if cplx:
        out += sx * FU.imag * np.cos(ax * U) / np.maximum(ax, 1e-300)
    envp = float(abs(ev[-2] - ev[-4])) / (2.0 * dU)
    x_min = float(np.min(ax, initial=math.inf, where=ax > 0.0))
    rem = min(envp / x_min ** 2 + envU / (U * x_min * x_min), 3.0 * envU * U)
    if np.any(ax == 0.0):
        cut = U > _FILON_CAP or edges.size > _FILON_PANELS
        tail, err = _tail_at_zero(f, U) if cut else (0.0, 3.0 * envU * U)
        out[ax == 0.0] += tail
        rem = max(rem, err)
    head = 0.0
    if panels.head is not None:
        u0, head = float(edges[0]), panels.head
        out += float(ev[-1]) * u0 * np.sinc(ax * (u0 / math.pi))
    proj = float(np.sum(2.0 * h * np.abs(a[:, -1])))
    mag = float(np.sum(2.0 * h * np.sum(np.abs(a), axis=1)))
    rnd = _EPS * mag * math.log2(edges.size * _filon_K)
    return out / math.pi, _FilonBound(proj / math.pi, rem / math.pi,
                                      head / math.pi, rnd / math.pi)


class _Integrand(NamedTuple):
    """What every 1-d route integrates: ``F`` is e^{-t psi} (times the
    weight), real and even when ``sym``; ``env`` its envelope |F| on
    u >= 0, which is F itself when ``sym`` (the weight, a power of an
    exponent's real part, is nonnegative); ``Xi`` the window of
    ``_choose_window``."""
    sym: bool
    F: Callable
    env: Callable
    Xi: float


def _integrand_1d(model: ModelSpec, t: float, x: np.ndarray, hx: float,
                  weight: Optional[Callable] = None) -> _Integrand:
    """The integrand at time t and its window for the grid x of step hx.
    The window search runs for every route, so a non-integrable e^{-t Re psi}
    raises IntegrabilityRefusal here."""
    sym = not _isotropy_breach(model)
    profile = re_psi_profile(model)

    if weight is None:
        env = lambda u: np.exp(-t * profile(np.abs(u)))
    else:
        env = lambda u: np.abs(weight(np.abs(u))) * np.exp(-t * profile(np.abs(u)))
    dxi_cap = math.pi / (max(abs(float(x[0])), abs(float(x[-1]))) + hx)
    Xi, _ = _choose_window(env, t, 1, dxi_cap)

    if sym:
        def F(xi):
            out = np.exp(-t * profile(np.abs(xi)))
            if weight is not None:
                out = out * weight(np.abs(xi))
            return out
    else:
        def F(xi):
            flat = np.asarray(xi, dtype=float).reshape(-1)
            if model.psi_exact_vec is not None:
                psis = model.psi_exact_vec(flat)
            else:
                psis = profile(np.abs(flat)) + 1j * _im_psi(model, flat[:, None])
            vals = np.exp(-t * psis).reshape(np.shape(xi))
            if weight is not None:
                vals = vals * weight(np.abs(xi))
            return vals
    return _Integrand(sym, F, env, Xi)


def _point_panels(f: _Integrand, x0: float, hx: float, nx: int,
                  refine: int) -> Optional[_FilonPanels]:
    """The panels of the point route from the origin, when ``_route`` finds
    it cheaper than the grid route's pass at the wrap of ``refine``; else
    None."""
    if not f.sym:
        return None
    M, _, nside = _wrap(f.Xi, x0, hx, nx, refine)

    def pays(panels):
        return _route(M, nside, nx, True, panels) == "point"
    return _filon_panels(f.env, 0.0, f.Xi, pays) if pays(1) else None


def _point_pass(f: _Integrand, panels: _FilonPanels,
                x: np.ndarray) -> Tuple[np.ndarray, float]:
    """The point route: p(x_i) = (1/pi) int_0^inf F(u) cos(x_i u) du at the
    exact nodes, one Filon run from the origin (``_filon_tail``).  It has no
    wrap, no Richardson pass and no node placement error; its bound is the
    sum of the run's projection, remainder, head and rounding parts.
    Returns (values, tail_bound)."""
    vals, bound = _filon_tail(f, panels, x)
    return vals, sum(bound)


def _tail_at_zero(f: _Integrand, U: float) -> Tuple[float, float]:
    """Re int_U^inf F(u) du, the remainder of a Filon run at the node x = 0,
    and its error.  A symmetric F takes the envelope's decade tail integral.
    Any other F sums GL-16 decade pieces of Re F from U, in one call, up to
    the first decade end past which the envelope's tail is under 1e-16
    (error 1e-12), or over all 32 decades (error: the tail past them).  The
    ends' tails are taken in blocks of 1, 2, 4, ... ends, so a fast envelope
    is not sampled decades past its stop."""
    if f.sym:
        tail = _tail_integral(f.env, 1, U)
        return tail, 1e-8 * tail
    lo = U * 10.0 ** np.arange(32)
    a, size = 0, 1
    while a < lo.size:
        rest = _tail_integral(f.env, 1, 10.0 * lo[a:a + size])
        done = np.flatnonzero(rest < 1e-16)
        if done.size:
            lo, err = lo[:a + done[0] + 1], 1e-12
            break
        a, size = a + size, 2 * size
    else:
        err = float(rest[-1])
    return float(np.sum(_decade_piece(lambda u: f.F(u).real, 1, lo))), err


def _grid_pass(f: _Integrand, x: np.ndarray, hx: float,
               start: Optional[Tuple[int, tuple]] = None) -> Tuple[np.ndarray, float]:
    """The fold or zoom route (``_grid_1d_sum``) with its wrap widening, its
    Richardson pass and the analytic frequency tail past the window.
    ``start`` is (refine, pass) for a widening pass the caller has run
    already, as ``_invert_1d`` does to price the routes; the widening
    continues from it.  Returns (values, complex for a non-symmetric F, and
    tail_bound)."""
    x0 = float(x[0])
    nx = x.size
    Ffun, env, sym, Xi = f.F, f.env, f.sym, f.Xi
    # widen the DFT wrap period until the folded-image (aliasing) level is
    # negligible; heavy-tailed densities need a period far beyond the grid
    refine, first = start or (1, _grid_1d_sum(Ffun, Xi, x0, hx, nx, sym))
    p1, edge, d1, M1, fold1 = first
    while (wider := _widened(edge, M1, refine)) != refine:
        refine = wider
        p1, edge, d1, M1, fold1 = _grid_1d_sum(Ffun, Xi, x0, hx, nx, sym, refine=refine)
    alias_est = edge[0]
    # Richardson pass: frequency steps d and d/2 share the x-grid (doubling
    # the DFT length halves the frequency step); truncation edges coincide,
    # so the coarse samples are every other fine sample and are reused
    Xi_eff = math.ceil(Xi / d1) * d1
    p2, _, d2, M2, fold2 = _grid_1d_sum(Ffun, Xi_eff - 0.25 * d1, x0, hx, nx, sym,
                                        refine=2 * refine, coarse=fold1)
    p = (4.0 * p2 - p1) / 3.0
    rounding = (4.0 * fold2[2] + fold1[2]) / 3.0

    # analytic continuation of the truncated frequency tail: the two
    # half-axes pair into Re of the one-sided integral, which the Filon
    # panels evaluate for every grid node at once
    corr, ce = _filon_tail(f, _filon_panels(env, Xi_eff, Xi_eff), x)
    corr_err = sum(ce)
    p = p + corr

    # the sums sit at x = (x0 / hx + i) hx, which misses x[i] by the rounding
    # carried in hx = x[1] - x[0]; the slope of the result converts the miss
    miss = np.abs(x - (round(x0 / hx) + np.arange(nx)) * hx)
    rounding += float(np.max(miss * np.abs(np.gradient(np.real(p), x))))
    return p, alias_est + float(np.max(np.abs(p2 - p1))) / 3.0 + corr_err + rounding


def _invert_1d(model: ModelSpec, t: float, x: np.ndarray,
               weight: Optional[Callable] = None) -> DensityField:
    hx = _uniform_step(x)
    f = _integrand_1d(model, t, x, hx, weight)
    x0, nx = float(x[0]), x.size
    if f.sym and _lattice_shift(x0, hx) is None:
        # off the DFT lattice only the point route, which needs none, serves
        p, tail_bound = _point_pass(f, _filon_panels(f.env, 0.0, f.Xi), x)
    else:
        # the grid route's first pass predicts the wrap it widens to, and the
        # point route must beat the grid's pass at that wrap.  A wrap edge
        # with no decay predicts only a doubling: the grid's next pass, which
        # it would run anyway, is run before the routes are priced
        refine, first = 1, _grid_1d_sum(f.F, f.Xi, x0, hx, nx, f.sym)
        wider = _widened(first[1], first[3], refine)
        while wider != refine and _decay(first[1]) <= _DECAY_MIN:
            refine, first = wider, _grid_1d_sum(f.F, f.Xi, x0, hx, nx, f.sym, refine=wider)
            wider = _widened(first[1], first[3], refine)
        panels = _point_panels(f, x0, hx, nx, wider)
        if panels is not None:
            p, tail_bound = _point_pass(f, panels, x)
        else:
            p, tail_bound = _grid_pass(f, x, hx, (refine, first))
    vals = np.real(p)
    residue = float(np.max(np.abs(np.imag(p)))) if p.size else 0.0
    mass = float(np.trapezoid(vals, x))
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
    why = _isotropy_breach(model)
    if why:
        raise UnsupportedModelError(f"two-dimensional inversion needs an isotropic model: {why}")
    profile = re_psi_profile(model)
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
    """(2 pi)^{-n} int e^{-t Re psi(xi)} d xi for radial-exponent models: p_t(0)
    when Im psi = 0, else only the bound sup_x p_t(x) <= (2 pi)^{-n} ||e^{-t psi}||_1."""
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    n = model.dim
    profile = re_psi_profile(model)
    env = lambda u: np.exp(-t * profile(u))
    tail_all = _tail_integral(env, n, 1e-8)
    if math.isinf(tail_all):
        raise IntegrabilityRefusal(
            f"int e^(-t Re psi) diverges at t={t}",
            diagnostics={"t": t, "dim": n})
    head = _head_integral(env, n, 1e-8)
    return sphere_surface(n) * (head + tail_all) / (2.0 * math.pi) ** n


_RADIAL_ROUNDING = 8.0     # a 16-node dot product rounds within 8 eps of its magnitude


def invert_radial(model: ModelSpec, t: float, radii: Sequence[float]) -> DensityField:
    """p_t(|x|) for an isotropic triplet in any dimension via the radial
    formula; the triplet decides, the ``isotropic`` field is only checked.

    p_t(r) = (2 pi)^{-n} omega_{n-1} int_0^inf e^{-t g(u^2)} u^{n-1}
             H_{(n-2)/2}(u r) du, with the head [0, a], a = min(1e-9,
    u_knee / 2), taken in closed form, then two stretches: 64 geometric
    GL-16 panels up to u_knee = min(1, 30/r) and the mid march, of width
    min(pi/(2r), u/4) up to min(30/r, u_stop).  u_stop, one for the call,
    is the first of 1, 1.25, 1.25^2, ... where env(u) u^{n-1} is under 1e-22
    of max_{v <= u} env(v) v^n / n, a lower bound on the mass below u; the
    ladder is sampled in blocks of 32, 64, 128, ... rungs up to the first
    block that holds it.  Then
    ``quadrature._half_period_tail``'s GL-12 panels, stopped on the envelope
    tail past their ends (an infinite one refuses).  Each nonzero radius is a
    row of both, laid out before any kernel call and evaluated by one
    integrand call for all rows (one per ``_FOLD_CHUNK`` nodes), so a call
    makes at most two.

    ``tail_bound`` is the largest over the radii of the envelope tail left
    over, the head's error (1 - env(a)) a^n / n, and a rounding part,
    8 eps sum_j |T_j| (1 + r u_j) over the panel terms T_j with right edges
    u_j (8 eps p_t(0) at r = 0): a GL-16 panel rounds within 8 eps of its
    magnitude, and a node's rounding moves the kernel's phase by eps u r.
    """
    why = _isotropy_breach(model)
    if why:
        raise UnsupportedModelError(f"invert_radial needs an isotropic model: {why}")
    if not 0.0 < t < math.inf:
        raise RangeError(f"time t={t} must be positive and finite")
    n = model.dim
    nu = 0.5 * n - 1.0
    profile = re_psi_profile(model)
    env = lambda u: np.exp(-t * profile(u))
    pref = sphere_surface(n) / (2.0 * math.pi) ** n

    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.all((radii >= 0.0) & (radii < math.inf)):
        raise RangeError("radii must be a 1-d array of finite nonnegative numbers (field 'radii')")
    vals = np.empty_like(radii)
    worst = 0.0
    zero = radii == 0.0
    if np.any(zero):
        vals[zero] = pt_zero(model, t)
        worst = _RADIAL_ROUNDING * _EPS * vals[zero][0]
    r = radii[~zero]
    if r.size:
        # 30/r overflows below 1e-300: such radii take the panels of 1e-300,
        # narrower than their kernel's half periods
        lay = np.maximum(r, 1e-300)
        f = lambda i, j, u: _env_power(env, u, n - 1) * specfun.h_kernel_array(nu, u * r[i, None])
        weigh = lambda terms, right: np.einsum("ij,ij->i", np.abs(terms), 1.0 + r[:, None] * right)
        u_knee = np.minimum(1.0, 30.0 / lay)
        # [0, a] as env(a / 2) int_0^a u^{n-1} H_nu(u r) du = env(a / 2) a^n / n
        # H_{nu+1}(a r), off by at most (1 - env(a)) a^n / n; H_{nu+1} rounds
        # to 1 up to a r = 1e-8
        a = np.minimum(1e-9, 0.5 * u_knee)
        head = env(0.5 * a) * a ** n / n
        cut = a * r > 1e-8
        head[cut] *= specfun.h_kernel_array(nu + 1.0, a[cut] * r[cut])
        # below r ~ 2e-153 the tail ends, and the march of an envelope that
        # never falls to its stop, pass u ~ 1e154, where u^2 and u^{n-1}
        # overflow: env(u) u^{n-1} there is 0 (``_env_power``), or inf,
        # which the tail refuses
        with np.errstate(over="ignore", invalid="ignore"):
            # the mid march from u_knee = 1 (rows with r < 30): 1.25 u (a running
            # product, rounding as u + u / 4) while u / 4 is under the quarter
            # period pi / (2r), then at most 16 quarter periods.  A row pads with
            # panels of no width, so its edges depend on r and u_stop alone
            size = max(math.ceil(math.log(30.0 / np.min(lay)) / math.log(1.25)), 0) + 1
            g = np.cumprod(np.concatenate(([1.0], np.full(size, 1.25))))
            # the envelope on the ladder in blocks of 32, 64, 128, ... rungs, up
            # to the first block that holds the stop
            top, lo, block = 0.0, 0, 32
            while lo < g.size:
                e = _env_power(env, g[lo:lo + block], n - 1)
                peak = np.maximum(top, np.maximum.accumulate(e * g[lo:lo + block]))
                small = e < 1e-22 * peak / n
                if small.any():
                    g = g[:lo + np.argmax(small) + 1]
                    break
                top, lo, block = peak[-1], lo + block, 2 * block
            quarter = 0.5 * math.pi / lay
            j = np.minimum(np.searchsorted(0.25 * g, quarter), g.size - 1)[:, None]
            k = np.arange(1, g.size + 17)
            end = np.minimum(30.0 / lay, g[-1])[:, None]
            march = np.minimum(np.where(k <= j, g[np.minimum(k, g.size - 1)],
                                        g[j] + (k - j) * quarter[:, None]), end)
            edges = np.concatenate((np.geomspace(a, u_knee, 64, axis=1), march), axis=1)
            terms = _panel_terms(f, edges, _gl16_x, _gl16_w)
            # the head's 63 panels pairwise, the march's in order: padding adds 0
            total = np.cumsum(np.concatenate(((head + np.sum(terms[:, :63], axis=1))[:, None],
                                              terms[:, 63:]), axis=1), axis=1)[:, -1]
            mag = np.abs(head) + weigh(terms, edges[:, 1:])
            # oscillatory tail in half periods of the Bessel kernel, stopped on
            # the envelope tail past the panel ends
            ends = _half_period_ends(edges[:, -1], math.pi / lay)
            acc, tail_est, terms = _half_period_tail(
                f, ends, lambda i, e: _tail_integral(env, n, e))
        if np.any(np.isinf(tail_est)):
            raise IntegrabilityRefusal(f"envelope tail diverges at t={t}", diagnostics={"t": t})
        vals[~zero] = pref * (total + acc)
        mag += weigh(terms, ends[:, 1:terms.shape[1] + 1])
        bound = tail_est + _RADIAL_ROUNDING * _EPS * mag + (1.0 - env(a)) * a ** n / n
        worst = max(worst, pref * float(np.max(bound)))
    order = np.argsort(radii)
    mass = float(sphere_surface(n) * np.trapezoid(
        vals[order] * radii[order] ** (n - 1), radii[order])) if radii.size > 1 else math.nan
    return DensityField(kind="radial", dim=n, t=t, nodes=(radii,), values=vals,
                        mass=mass, tail_bound=worst)


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
    phi_profile = re_psi_profile(phi_model)
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
        return c * (0.5 * r) ** nu * float(_sp.kv(nu, r))
    raise RangeError(f"unknown closed-form family '{family}'")
