"""Fourier inversion: closed-form oracles, normalization, refusals."""

import dataclasses
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from levydens.errors import (
    IntegrabilityRefusal,
    QuadratureError,
    RangeError,
    UnsupportedModelError,
)
from levydens import inversion, quadrature, specfun
from levydens.inversion import (
    _FOLD_CHUNK,
    _Zoom,
    _ZoomSums,
    _filon_panels,
    _filon_tail,
    _fold_frequency,
    _grid_1d_sum,
    _lattice_sum_2d,
    _spherical_jn_orders,
    _tail_integral,
    _wrap_edge,
    closed_form,
    invert_grid,
    invert_radial,
    multiplier_apply,
    pt_zero,
)
from levydens.levy_core import ModelSpec, builtin_model, eval_re_psi, re_psi_profile
from levydens.measures import AtomSpec, MeasureSpec, sphere_surface
from levydens.quadrature import _accelerated

# written by scripts/bessel_reference.py (mpmath at 40 digits)
_BESSEL_REF = json.loads((pathlib.Path(__file__).parent / "data" / "bessel_ref.json").read_text())

# every overflow an inversion meets on purpose is silenced where it happens
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_gaussian_grid_matches_heat_kernel():
    m = builtin_model("gaussian")
    xs = np.arange(-8.0, 8.0 + 1e-9, 0.05)
    f = invert_grid(m, 0.5, xs)
    ref = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(f.values, ref, atol=1e-10)
    assert f.mass == pytest.approx(1.0, abs=1e-6)
    assert f.imag_residue < 1e-10


def test_cauchy_grid_matches_poisson_kernel():
    m = builtin_model("cauchy")
    xs = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    f = invert_grid(m, 1.0, xs)
    ref = 1.0 / (math.pi * (1.0 + xs * xs))
    np.testing.assert_allclose(f.values, ref, atol=1e-8)


def test_gamma_subordinator_density():
    # p_t(x) = x^{t-1} e^{-x} / Gamma(t) shifted by the drift, via closed_form
    m = builtin_model("gamma")
    xs = np.arange(0.5, 4.0 + 1e-9, 0.05)
    f = invert_grid(m, 2.0, xs)
    ref = np.array([closed_form("gamma", 2.0, x) for x in xs])
    np.testing.assert_allclose(f.values, ref, atol=1e-6)


def test_laplace_closed_form_is_exact():
    # the Bessel-K form at t = 1, dim 1 is e^{-|x|} / 2
    for x in np.linspace(-30.0, 30.0, 601):
        assert closed_form("laplace", 1.0, x) == pytest.approx(0.5 * math.exp(-abs(x)),
                                                               rel=1e-15, abs=0.0)


@pytest.mark.parametrize("case", _BESSEL_REF["k"], ids=lambda c: f"d{c['dim']}-t{c['t']}")
def test_bessel_k_closed_form_matches_the_reference_table(case):
    # c (r/2)^nu K_nu(r), c = 2^{1-n} / (pi^{n/2} Gamma(t)), nu = t - n/2,
    # with K_nu from the 40-digit table; scipy's kv, which closed_form calls,
    # is up to 6.6e-14 off near r = 2 at the orders 0.25 and 0.45
    n, t, nu = case["dim"], case["t"], case["nu"]
    c = 2.0 ** (1.0 - n) / (math.pi ** (0.5 * n) * math.gamma(t))
    for r, kv in zip(case["r"], case["values"]):
        got = closed_form("sym_gamma_besselk", t, np.array([r] + [0.0] * (n - 1)), dim=n)
        assert got == pytest.approx(c * (0.5 * r) ** nu * kv, rel=1e-13, abs=0.0)


def test_closed_form_families():
    assert closed_form("gaussian", 1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi))
    assert closed_form("cauchy", 2.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi))
    # t = 1 symmetric gamma is the Laplace density e^{-|x|}/2
    assert closed_form("laplace", 1.0, 1.5) == pytest.approx(0.5 * math.exp(-1.5))
    with pytest.raises(RangeError):
        closed_form("gaussian", 0.0, 0.0)


def test_pt_zero_oracles():
    # gaussian: (2 pi)^{-1} int e^{-t xi^2} = 1 / sqrt(4 pi t)
    for t in (0.25, 1.0, 4.0):
        assert pt_zero(builtin_model("gaussian"), t) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi * t), rel=1e-9)
        assert pt_zero(builtin_model("cauchy"), t) == pytest.approx(
            1.0 / (math.pi * t), rel=1e-9)
    # dim 2 gaussian: (2 pi)^{-2} (pi / t) = 1 / (4 pi t)
    assert pt_zero(builtin_model("gaussian", dim=2), 1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-8)


@pytest.mark.parametrize("name, alpha, dim, t", [
    ("stable", 0.3, 1, 1000.0), ("stable", 0.3, 2, 1000.0), ("cauchy", 1.0, 1, 1e4),
])
def test_pt_zero_head_at_large_time(name, alpha, dim, t):
    # most of the mass lies near or below |xi| = 1e-8: the head [0, 1e-8]
    # taken as if e^{-t Re psi} were 1 there was off by 10x at alpha = 0.3
    m = builtin_model(name, dim=dim, **({"alpha": alpha} if name == "stable" else {}))
    want = (sphere_surface(dim) * (2.0 * math.pi) ** -dim * math.gamma(dim / alpha)
            / (alpha * t ** (dim / alpha)))
    assert pt_zero(m, t) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_radial_matches_grid():
    rs = np.arange(0.0, 4.0 + 1e-9, 0.05)
    for name in ("gaussian", "cauchy"):
        m = builtin_model(name)
        fr = invert_radial(m, 1.0, rs)
        fg = invert_grid(m, 1.0, rs)
        np.testing.assert_allclose(fr.values, fg.values, atol=1e-8)


def test_radial_dim2_cauchy():
    # 2-d Cauchy kernel: t / (2 pi (t^2 + r^2)^{3/2})
    m = builtin_model("cauchy", dim=2)
    rs = np.array([0.0, 0.5, 1.0, 3.0])
    f = invert_radial(m, 1.0, rs)
    ref = 1.0 / (2.0 * math.pi * (1.0 + rs * rs) ** 1.5)
    np.testing.assert_allclose(f.values, ref, rtol=1e-8)


def test_refusal_below_integrability_threshold():
    m = builtin_model("sym_gamma")
    with pytest.raises(IntegrabilityRefusal):
        pt_zero(m, 0.4)
    with pytest.raises(IntegrabilityRefusal):
        invert_grid(m, 0.4, np.arange(-2.0, 2.0 + 1e-9, 0.1))
    assert pt_zero(m, 0.6) > 0.0


def test_bounded_exponent_refused():
    # dyadic atoms keep Re psi bounded on a subsequence: no density at any t
    with pytest.raises(IntegrabilityRefusal):
        pt_zero(builtin_model("exa4_atoms"), 1.0)


def test_grid_validation():
    m = builtin_model("gaussian")
    with pytest.raises(RangeError):
        invert_grid(m, 1.0, np.array([0.0, 0.1, 0.3]))   # non-uniform
    with pytest.raises(RangeError):
        invert_grid(m, -1.0, np.array([0.0, 0.1]))
    with pytest.raises(UnsupportedModelError):
        invert_radial(builtin_model("gamma"), 1.0, [0.0, 1.0])


def test_multiplier_zero_power_is_identity():
    g = builtin_model("gaussian")
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.25)
    f0 = multiplier_apply(g, g, 0, 1.0, xs)
    base = invert_grid(g, 1.0, xs)
    assert np.array_equal(f0.values, base.values)
    with pytest.raises(RangeError):
        multiplier_apply(g, g, -1, 1.0, xs)


def test_multiplier_gaussian_first_power():
    # phi = xi^2 applied to the heat kernel equals -d^2/dx^2 p_t
    g = builtin_model("gaussian")
    xs = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    f1 = multiplier_apply(g, g, 1, 1.0, xs)
    s2 = 2.0   # variance of p_1 for psi = xi^2
    ref = (1.0 / s2 - xs * xs / (s2 * s2)) * \
        np.exp(-xs * xs / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2) * (-1.0)
    np.testing.assert_allclose(f1.values, -ref, atol=1e-9)


def test_tail_bound_reported():
    f = invert_grid(builtin_model("gaussian"), 1.0,
                    np.arange(-5.0, 5.0 + 1e-9, 0.1))
    assert 0.0 <= f.tail_bound < 1e-6


# -- the frequency fold against a naive reference -------------------------

def _even_F(xi):
    return 1.0 / (1.0 + np.abs(xi)) ** 1.2


def _complex_F(xi):
    # one-sided gamma type exponent: (1 - i xi)^(-1.5), neither real nor even
    return (1.0 - 1j * xi) ** -1.5


def _naive_fold(Ffun, dxi, nside, M, odd=False):
    """np.add.at over every sample index, k = -nside..nside (or the odd
    midpoints 2k + 1, k = -nside..nside-1), into bin k mod M."""
    if odd:
        k = np.arange(-nside, nside)
        F = np.asarray(Ffun((2 * k + 1) * dxi), dtype=complex)
    else:
        k = np.arange(-nside, nside + 1)
        F = np.asarray(Ffun(k * dxi), dtype=complex)
        F[0] *= 0.5
        F[-1] *= 0.5
    out = np.zeros(M, dtype=complex)
    np.add.at(out, k % M, F)
    return out


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# nside crosses a chunk boundary; M lies far below, just below and far
# above 2 nside + 1, so a chunk's run wraps many times, once, or never
@pytest.mark.parametrize("M", [256, 777, 100_003, 1 << 20])
@pytest.mark.parametrize("sym", [True, False])
@pytest.mark.parametrize("odd", [False, True])
def test_fold_matches_naive_reference(M, sym, odd):
    Ffun = _even_F if sym else _complex_F
    nside = _FOLD_CHUNK + 4321
    dxi = 1e-3
    got = _fold_frequency(Ffun, dxi, nside, M, sym, odd=odd)
    assert got.dtype == (np.float64 if sym else np.complex128)
    assert _rel(got, _naive_fold(Ffun, dxi, nside, M, odd=odd)) <= 1e-13


@pytest.mark.parametrize("sym", [True, False])
def test_grid_sum_and_step_halving_reuse(sym):
    Ffun = _even_F if sym else _complex_F
    x0, hx, nx = -2.0, 0.5, 9
    Xi = 1.5e4                       # nside ~ 3e5, past one chunk
    p1, edge, d1, M1, fold1 = _grid_1d_sum(Ffun, Xi, x0, hx, nx, sym)
    nside1 = fold1[1]
    assert nside1 > _FOLD_CHUNK
    ref1 = _naive_fold(Ffun, d1, nside1, M1)
    assert _rel(fold1[0], ref1) <= 1e-13
    spec1 = np.fft.fft(ref1) * d1 / (2.0 * math.pi)
    shift = int(round(x0 / hx))
    assert _rel(p1, spec1[(np.arange(nx) + shift) % M1]) <= 1e-13
    # the wrap-edge levels, read from the full spectrum of the reference
    alias_ref, quarter_ref = _wrap_edge(spec1, M1, hx, False)
    assert edge[0] == pytest.approx(alias_ref, rel=1e-13)
    assert edge[1] == pytest.approx(quarter_ref, rel=1e-13)

    # the step-halving pass reuses the coarse samples: compare it with a
    # full fold of every fine-step sample
    Xi_eff = math.ceil(Xi / d1) * d1
    p2, none, d2, M2, fold2 = _grid_1d_sum(Ffun, Xi_eff - 0.25 * d1, x0, hx, nx,
                                           sym, refine=2, coarse=fold1)
    assert none is None and d2 == 0.5 * d1 and M2 == 2 * M1
    assert fold2[1] == 2 * nside1
    ref2 = _naive_fold(Ffun, d2, 2 * nside1, M2)
    assert _rel(fold2[0], ref2) <= 1e-13
    spec2 = np.fft.fft(ref2) * d2 / (2.0 * math.pi)
    assert _rel(p2, spec2[(np.arange(nx) + shift) % M2]) <= 1e-13
    # a window that does not double the coarse samples is refused
    with pytest.raises(QuadratureError):
        _grid_1d_sum(Ffun, Xi_eff + d1, x0, hx, nx, sym, refine=2, coarse=fold1)


def test_sparse_cauchy_grid_routes_agree():
    # a few nodes at a coarse step stream ~1e8 samples through the fold;
    # the Fourier grid route, the radial route (no fold) and the closed
    # form agree on the shared nodes
    m = builtin_model("cauchy")
    for xs in (np.array([0.0, 1.0]), np.arange(-2, 3) * 0.5):
        grid = invert_grid(m, 1.0, xs).values
        radial = invert_radial(m, 1.0, np.abs(xs)).values
        exact = np.array([closed_form("cauchy", 1.0, x) for x in xs])
        np.testing.assert_allclose(grid, exact, rtol=1e-8)
        np.testing.assert_allclose(radial, exact, rtol=1e-8)
        np.testing.assert_allclose(grid, radial, rtol=1e-8)


# -- the zoom route ----------------------------------------------------------

def test_zoom_matches_direct_sum():
    # k reaches past 5e5 and the runs start near M/2 and below 0, where a
    # phase taken from a float k^2 is off by ~1e-10; the 50 bins below 0
    # take three runs of 24
    M, lo, size = 1 << 21, 500_000, 3001
    rng = np.random.default_rng(7)
    F = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    bins = np.concatenate((np.arange(M // 2 - 7, M // 2 + 9), np.arange(-70, -20),
                           np.array([M // 4])))
    got = _Zoom(M, lo, size, 24).at(F, bins)
    k = np.arange(lo, lo + size, dtype=np.int64)
    ref = np.array([np.sum(F * np.exp(-2j * math.pi * ((k * m) % M) / M)) for m in bins])
    assert _rel(got, ref) <= 1e-13


def _routes(monkeypatch):
    """Record the route of every ``_grid_1d_sum`` pass."""
    seen = []
    real = inversion._grid_1d_sum

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append("zoom" if isinstance(out[4][0], _ZoomSums) else "fold")
        return out
    monkeypatch.setattr(inversion, "_grid_1d_sum", spy)
    return seen


@pytest.mark.parametrize("sym", [True, False])
def test_grid_sum_routes_agree(sym):
    # a wide wrap and a narrow window: the zoom is chosen; the fold route,
    # built from its parts, is the reference for both passes
    Ffun = _even_F if sym else _complex_F
    x0, hx, nx, refine, Xi = -1.0, 0.01, 201, 512, 20.0
    p1, edge, d1, M1, fold1 = _grid_1d_sum(Ffun, Xi, x0, hx, nx, sym, refine=refine)
    assert isinstance(fold1[0], _ZoomSums) and M1 == 1 << 17
    nside = fold1[1]
    bins = np.arange(nx) + int(round(x0 / hx))
    idx = bins % M1
    spec1 = np.fft.fft(_fold_frequency(Ffun, d1, nside, M1, sym)) * d1 / (2.0 * math.pi)
    peak = np.max(np.abs(spec1[idx]))
    assert np.max(np.abs(p1 - spec1[idx])) <= 1e-13 * peak
    alias_ref, quarter_ref = _wrap_edge(spec1, M1, hx, False)
    assert abs(edge[0] - alias_ref) <= 1e-14 and abs(edge[1] - quarter_ref) <= 1e-14

    Xi_eff = math.ceil(Xi / d1) * d1
    p2, none, d2, M2, fold2 = _grid_1d_sum(Ffun, Xi_eff - 0.25 * d1, x0, hx, nx, sym,
                                           refine=2 * refine, coarse=fold1)
    assert none is None and M2 == 2 * M1 and fold2[1] == 2 * nside
    spec2 = np.fft.fft(_fold_frequency(Ffun, d2, 2 * nside, M2, sym)) * d2 / (2.0 * math.pi)
    assert np.max(np.abs(p2 - spec2[bins % M2])) <= 1e-13 * peak
    with pytest.raises(QuadratureError):
        _grid_1d_sum(Ffun, Xi_eff + d1, x0, hx, nx, sym, refine=2 * refine, coarse=fold1)


def test_route_choice(monkeypatch):
    # 2001 cauchy nodes: 67,042 samples against M = 2^21 bins, zoomed; nine
    # stable nodes at step 0.8: the samples wrap, folded
    seen = _routes(monkeypatch)
    invert_grid(builtin_model("cauchy"), 1.0, (np.arange(2001) - 1000) * 0.01)
    assert seen[-2:] == ["zoom", "zoom"]
    seen.clear()
    invert_grid(builtin_model("stable", alpha=1.5), 1.0, (np.arange(9) - 4) * 0.8)
    assert set(seen) == {"fold"}


@pytest.mark.parametrize("name, family, t, x, route", [
    # the gaussian's error is the rounding in hx = x[1] - x[0]
    ("gaussian", "gaussian", 0.75, (np.arange(2001) - 1000) * 0.01, "fold"),
    ("cauchy", "cauchy", 1.0, (np.arange(2001) - 1000) * 0.01, "zoom"),
    ("cauchy", "cauchy", 1.0, (np.arange(41) - 20) * 0.25, "fold"),
    ("sym_gamma", "laplace", 1.0, (np.arange(2001) - 1000) * 0.002, "zoom"),
    ("sym_gamma", "laplace", 1.0, (np.arange(41) - 20) * 0.5, "fold"),
])
def test_tail_bound_covers_observed_error(monkeypatch, name, family, t, x, route):
    seen = _routes(monkeypatch)
    f = invert_grid(builtin_model(name), t, x)
    assert seen[-1] == route
    ref = np.array([closed_form(family, t, v) for v in x])
    assert np.max(np.abs(f.values - ref)) <= f.tail_bound


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, t, grid, limit_mb", [
    # the fold held M = 2^22 bins here: 106-111 MB traced
    ("cauchy", 1.0, (np.arange(2001) - 1000) * 0.01, 32),
    ("exa2_logkernel", 1.4, (np.arange(401) - 200) * 0.02, 32),
    # the unblocked lattice held (n1 + 1)^2 arrays: 275-288 MB traced
    ("cauchy2", 1.0, ((np.arange(41) - 20) * 0.1,) * 2, 64),
    # the oscillatory tail of all 381 nodes at once, unblocked: ~80 MB traced
    ("gamma", 1.95, 0.25 + np.arange(381) * 0.0125, 16),
])
def test_memory_guard(name, t, grid, limit_mb):
    model = builtin_model("cauchy", dim=2) if name == "cauchy2" else builtin_model(name)
    assert _traced_peak(lambda: invert_grid(model, t, grid)) < limit_mb * 1e6


def test_radial_memory_guard_on_many_radii():
    # the 4,000 largest distinct radii of a 401 x 401 grid at step 0.05: the
    # leftover search's decade pieces over all rows and block ends at once
    # held (limits, 3, 16) arrays, 562 MB traced
    xs = (np.arange(401) - 200) * 0.05
    radii = np.unique(np.hypot(xs[:, None], xs))[-4000:]
    model = builtin_model("cauchy", dim=2)
    assert _traced_peak(lambda: invert_radial(model, 1.0, radii)) < 64e6


_X41 = (np.arange(41) - 20) * 0.1
_X21 = (np.arange(21) - 10) * 0.15


@pytest.mark.parametrize("family, t, xs, ys, tol", [
    ("gaussian", 1.0, _X41, _X41, 1e-8), ("gaussian", 1.3, _X41, _X41, 1e-8),
    ("cauchy", 1.0, _X41, _X41, 1e-6), ("cauchy", 1.3, _X41, _X41, 1e-6),
    ("gaussian", 1.0, _X21, _X21 + 0.75, 1e-8), ("cauchy", 1.0, _X21, _X21 + 0.75, 1e-6),
])
def test_lattice_matches_closed_form(family, t, xs, ys, tol):
    f = invert_grid(builtin_model(family, dim=2), t, (xs, ys))
    ref = np.array([[closed_form(family, t, np.array([x, y]), dim=2) for y in ys]
                    for x in xs])
    err = float(np.max(np.abs(f.values - ref)))
    assert err <= f.tail_bound
    assert err <= tol


def test_lattice_exponent_points(monkeypatch):
    # the 41x41 cauchy lattice sampled both triangles of the symmetric
    # lattice, its coarse pass and its last alias probe apart: 19.4 M points
    seen = {"points": 0}
    real = inversion.re_psi_profile

    def counted(model, *args):
        profile = real(model, *args)

        def f(u):
            seen["points"] += int(np.size(u))
            return profile(u)
        return f
    monkeypatch.setattr(inversion, "re_psi_profile", counted)
    invert_grid(builtin_model("cauchy", dim=2), 1.0, (_X41, _X41))
    assert seen["points"] <= 9_000_000


def _full_lattice_product(Fr, dxi, n, xs, ys):
    xi = np.arange(n + 1) * dxi
    w = np.full_like(xi, 2.0)
    w[0] = w[-1] = 1.0
    F = Fr(np.hypot(xi[:, None], xi[None, :]))
    ref = (np.cos(np.outer(xs, xi)) * w) @ F @ (np.cos(np.outer(ys, xi)) * w).T
    return ref * (dxi / (2.0 * math.pi)) ** 2


def test_lattice_blocks_match_full_product():
    # n spans many row blocks; the coarse sums are those at step 2 dxi
    Fr = lambda r: np.exp(-r)
    dxi, n1 = 0.02, 1500
    assert (n1 + 1) ** 2 > 8 * inversion._LATTICE_BLOCK
    xs = np.linspace(-2.0, 2.0, 9)
    for ys in (np.linspace(-1.0, 3.0, 7), xs):
        got, coarse = _lattice_sum_2d(Fr, dxi, n1, xs, ys)
        assert _rel(got, _full_lattice_product(Fr, dxi, n1, xs, ys)) <= 1e-13
        assert _rel(coarse, _full_lattice_product(Fr, 2.0 * dxi, n1 // 2, xs, ys)) <= 1e-13


# -- the tail corrections, batched across nodes -------------------------------

def test_spherical_jn_orders_match_the_reference_table():
    # a log grid across the switch at s = k between the backward recurrence
    # (s <= k) and the upward one (s > k), plus s = k and one ulp either
    # side, against 40-digit values; at the subnormal just above 0 the
    # orders >= 1 are 0, not NaN
    s = np.array(_BESSEL_REF["j"]["s"])
    want = np.array(_BESSEL_REF["j"]["values"])
    got = _spherical_jn_orders(want.shape[0], s)
    assert got.shape == want.shape
    assert np.isfinite(got).all()
    for order in range(want.shape[0]):
        np.testing.assert_allclose(got[order], want[order], rtol=0, atol=1e-15)


@pytest.mark.parametrize("t", [1.95, 6.0])
def test_complex_filon_tail_matches_qawf(t):
    # (1/pi) Re int_Xi^inf F(u) e^{-i x u} du for the one-sided gamma F
    # against QUADPACK's Fourier integral on [Xi, inf) (scipy's QAWF), the
    # cosine transform of Re F plus sign(x) times the sine transform of Im F
    model = builtin_model("gamma")
    F = lambda u: np.exp(-t * model.psi_exact_vec(u))
    Xi = 5.0
    panels = _filon_panels(lambda u: np.abs(F(u)), Xi, Xi)
    f = inversion._Integrand(False, F, lambda u: np.abs(F(u)), Xi)
    x = np.array([0.05, -0.08, 0.7, -2.5, 6.0])
    vals, bound = _filon_tail(f, panels, x)
    for xv, got in zip(x, vals):
        c, ec = integrate.quad(lambda u: F(np.array([u]))[0].real, Xi, np.inf,
                               weight="cos", wvar=abs(xv))
        s, es = integrate.quad(lambda u: F(np.array([u]))[0].imag, Xi, np.inf,
                               weight="sin", wvar=abs(xv))
        assert abs(got - (c + np.sign(xv) * s) / math.pi) <= sum(bound) + (ec + es) / math.pi
    # panels cut near u = 100, where F is far from spent: the remainder's
    # integration-by-parts term Re F(U) e^{-i x U} / (i x) and its bound
    # carry the rest, at the nodes with |x| U >> 1
    far = np.abs(x) > 1.0
    cut = inversion._FilonPanels(panels.edges[:np.searchsorted(panels.edges, 100.0) + 1], None)
    got, cut_bound = _filon_tail(f, cut, x[far])
    assert np.all(np.abs(got - vals[far]) <= sum(cut_bound) + sum(bound))
    # a many-node call, whose panels run in several blocks, equals the
    # single-node calls bit for bit
    many = np.concatenate((x, np.linspace(-6.0, 6.0, 2401)))
    assert many.size * (panels.edges.size - 1) > _FOLD_CHUNK
    got, _ = _filon_tail(f, panels, many)
    for j in [*range(x.size), *range(x.size, many.size, 100)]:
        assert got[j] == _filon_tail(f, panels, many[j:j + 1])[0][0]


@pytest.mark.parametrize("t, x", [
    (1.3, np.arange(41) * 0.001),
    (1.95, np.arange(-8, 33) * 0.0125),
    (3.0, np.arange(-8, 33) * 0.0125),
])
def test_gamma_density_at_zero_within_tail_bound(t, x):
    # the gamma density vanishes at 0 for t > 1; the x = 0 node of the
    # one-sided F marches its tail in GL-16 decades, and what the envelope
    # leaves past the last decade counts in the bound
    f = invert_grid(builtin_model("gamma"), t, x)
    assert np.isfinite(f.values).all()
    assert abs(f.values[x == 0.0][0]) <= f.tail_bound


@pytest.mark.parametrize("n", [1, 2])
def test_tail_integral_batch_matches_scalar(n):
    # limits that stop after a few decades, run all 24 and extrapolate, or
    # diverge; with the third envelope the small limits stop early (the
    # 1e-30 tail is negligible against their total) and the large ones
    # extrapolate, side by side
    lims = np.concatenate((np.geomspace(1e-14, 1e6, 21), [0.0]))
    for env in (lambda u: np.exp(-u), lambda u: (1.0 + u * u) ** (-0.5 - 0.55 * n),
                lambda u: np.exp(-u) + 1e-30 * (1.0 + u) ** (-n - 0.1),
                lambda u: (1.0 + u) ** -n):
        got = _tail_integral(env, n, lims)
        want = np.array([_tail_integral(env, n, float(v)) for v in lims])
        assert isinstance(_tail_integral(env, n, 1.0), float)
        assert np.array_equal(got, want)
    assert np.isinf(_tail_integral(lambda u: 1.0 / (1.0 + u), 1, lims)).all()


def test_accelerated_rows_match_single_rows():
    rng = np.random.default_rng(3)
    terms = rng.standard_normal((5, 240)) * (-1.0) ** np.arange(240) / (1.0 + np.arange(240))
    val, est = _accelerated(terms)
    for j in range(terms.shape[0]):
        v, e = _accelerated(terms[j])
        assert v == val[j] and e == est[j]


def test_gamma_grid_exponent_passes():
    # the 381-node gamma grid evaluates the exponent in a few array passes,
    # not once per node (384 calls), at 85,716 points
    model = builtin_model("gamma")
    seen = {"calls": 0, "points": 0}
    exact = model.psi_exact_vec

    def counted(xi):
        seen["calls"] += 1
        seen["points"] += int(np.size(xi))
        return exact(xi)
    model = dataclasses.replace(model, psi_exact_vec=counted)
    invert_grid(model, 1.95, 0.25 + np.arange(381) * 0.0125)
    assert seen["calls"] <= 32
    assert seen["points"] == 85_716


def test_drifted_gaussian_keeps_its_gaussian_part():
    # psi = i l xi + xi^2 with l = 1: X_t is normal with mean -t, variance 2t
    m = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    assert re_psi_profile(m, 1e9)(np.array([3.0]))[0] == eval_re_psi(m, [3.0]) == 9.0
    # pt_zero is (1/2pi) int e^{-t Re psi} = 1/sqrt(4 pi), the bound on
    # sup_x p_1(x); the density at 0 is p_1(0) = e^{-1/4} / sqrt(4 pi)
    assert pt_zero(m, 1.0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-12)
    # the drift sends the inversion down the non-symmetric path
    x = np.arange(-20, 21) * 0.25
    f = invert_grid(m, 1.0, x)
    err = float(np.max(np.abs(f.values - np.exp(-(x + 1.0) ** 2 / 4.0) / math.sqrt(4.0 * math.pi))))
    assert err <= f.tail_bound and err <= 1e-12


def test_drifted_cauchy_error_within_tail_bound():
    # psi = i b xi + |xi|: X_t is cauchy shifted by -t b, so with drift 10
    # the mass sits at the grid's left end and the slowly decaying complex
    # F leaves much of the answer in the frequency tail past the window
    b, t = 10.0, 1.0
    m = dataclasses.replace(builtin_model("cauchy"), drift=(b,), isotropic=False)
    x = (np.arange(81) - 40) * 0.25
    f = invert_grid(m, t, x)
    ref = np.array([closed_form("cauchy", t, v + t * b) for v in x])
    assert float(np.max(np.abs(f.values - ref))) <= f.tail_bound


def test_non_symmetric_exponent_is_vectorised(monkeypatch):
    # F is the radial profile plus i times the imaginary part, evaluated
    # for whole blocks of frequency samples, not one sample at a time
    seen = {"calls": 0}
    real = inversion._im_psi

    def counted(model, xi):
        seen["calls"] += 1
        return real(model, xi)
    monkeypatch.setattr(inversion, "_im_psi", counted)
    m = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    x = np.linspace(-8.0, 8.0, 161)
    f = invert_grid(m, 1.0, x)
    ref = np.exp(-(x + 1.0) ** 2 / 4.0) / math.sqrt(4.0 * math.pi)     # N(-1, 2)
    assert float(np.max(np.abs(f.values - ref))) <= f.tail_bound
    assert seen["calls"] <= 64


def test_point_atom_density_at_zero():
    # mass 1 at y = 1 plus Q = [[2]]: X_1 = N + G - 1/2 with N ~ Poisson(1)
    # and G ~ N(0, 2), so p_1(0) = sum_k e^{-1}/k! e^{-(k-1/2)^2/4} / sqrt(4 pi)
    atom = MeasureSpec(variant="atoms", atoms=(AtomSpec(mass=1.0, point=(1.0,)),))
    f = invert_grid(ModelSpec(1, (0.0,), ((2.0,),), atom), 1.0, np.linspace(-8.0, 8.0, 161))
    assert abs(f.values[80] - 0.22837709946068477) <= f.tail_bound


def test_non_radial_gaussian_part_is_refused():
    none = MeasureSpec(variant="none")
    grid = (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5))
    elliptic = ModelSpec(2, (0.0, 0.0), ((2.0, 0.0), (0.0, 8.0)), none)
    with pytest.raises(UnsupportedModelError, match="gaussian"):
        pt_zero(elliptic, 1.0)
    with pytest.raises(UnsupportedModelError, match="gaussian"):
        invert_grid(elliptic, 1.0, grid)
    drifted = ModelSpec(2, (1.0, 0.0), ((2.0, 0.0), (0.0, 2.0)), none)
    with pytest.raises(UnsupportedModelError, match="drift"):
        invert_grid(drifted, 1.0, grid)


# -- the point route ----------------------------------------------------------

def _point_and_grid(model, t, x, grid=False):
    """The point pass, and with ``grid`` the grid pass, on the nodes x, each
    called as ``_invert_1d`` calls it: (values, tail_bound) per pass."""
    hx = float(x[1] - x[0])
    f = inversion._integrand_1d(model, t, x, hx)
    point = inversion._point_pass(f, inversion._filon_panels(f.env, 0.0, f.Xi), x)
    if not grid:
        return point
    p, bound = inversion._grid_pass(f, x, hx)
    return point, (np.real(p), bound)


def _nodes(n, h):
    """n nodes of step h with 0 among them."""
    return (np.arange(n) - n // 2) * h


@pytest.mark.parametrize("name, family, t, tol", [
    ("gaussian", "gaussian", 0.75, 1e-10),
    ("cauchy", "cauchy", 1.0, 1e-8),
    ("sym_gamma", "laplace", 1.0, 1e-6),
    ("sym_gamma", "sym_gamma_besselk", 1.45, 1e-6),
])
@pytest.mark.parametrize("n, h", [(2, 1.0), (2, 4.6), (5, 0.5), (9, 0.8)])
def test_point_pass_matches_closed_form(name, family, t, tol, n, h):
    x = _nodes(n, h)
    vals, bound = _point_and_grid(builtin_model(name), t, x)
    ref = np.array([closed_form(family, t, v) for v in x])
    err = float(np.max(np.abs(vals - ref)))
    assert err <= bound
    assert err <= tol


@pytest.mark.parametrize("alpha, t", [(1.3, 1.0), (1.7, 1.0), (0.5, 1000.0), (1.5, 0.01)])
def test_point_pass_stable_at_zero(alpha, t):
    # Gamma(1 + 1/alpha) / (pi t^(1/alpha)); at alpha = 0.5, t = 1000 the
    # grid route's wrap gives p(0) 25 times too large
    x = _nodes(9, 0.8)
    vals, bound = _point_and_grid(builtin_model("stable", alpha=alpha), t, x)
    want = math.gamma(1.0 + 1.0 / alpha) / (math.pi * t ** (1.0 / alpha))
    assert abs(vals[4] - want) <= bound
    assert vals[4] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t, x", [(0.52, [-1.0, 0.0, 1.0]), (0.55, [0.0, 0.5])])
def test_point_route_at_zero_takes_the_tail_past_the_cap(monkeypatch, t, x):
    # (1 + u^2)^{-t} leaves about U^{1-2t} / (2t - 1) past the 1e12 cap, and
    # at x = 0 the leading integration-by-parts term is 0: a run cut at the
    # cap gives that node the decade tail of F past U
    calls = _count_point_routes(monkeypatch)
    x = np.array(x)
    f = invert_grid(builtin_model("sym_gamma"), t, x)
    assert calls == [x.size]
    err = np.max(np.abs(f.values - [closed_form("sym_gamma_besselk", t, v) for v in x]))
    assert err <= f.tail_bound and err <= 1e-12


def test_point_route_refuses_below_the_threshold():
    with pytest.raises(IntegrabilityRefusal):
        invert_grid(builtin_model("sym_gamma"), 0.45, np.array([0.0, 1.0]))


def test_radial_route_refuses_a_divergent_tail():
    # e^{-t Re psi} = (1 + u^2)^{-0.45} is not integrable: the half-period
    # tail's leftover is infinite (radius 0 would refuse in pt_zero)
    with pytest.raises(IntegrabilityRefusal, match="envelope tail diverges"):
        invert_radial(builtin_model("sym_gamma"), 0.45, [1.0])


@pytest.mark.parametrize("name, kw, t, x", [
    ("cauchy", {}, 1.0, _nodes(9, 0.5)),
    ("stable", {"alpha": 1.5}, 1.0, _nodes(9, 0.8)),
    ("sym_gamma", {}, 1.45, _nodes(5, 2.0)),
    ("gaussian", {}, 0.75, _nodes(5, 0.5)),
])
def test_point_and_grid_passes_agree(name, kw, t, x):
    (pv, pb), (gv, gb) = _point_and_grid(builtin_model(name, **kw), t, x, grid=True)
    assert np.max(np.abs(pv - gv)) <= pb + gb


def _count_point_routes(monkeypatch):
    calls = []
    real = inversion._point_pass

    def spy(*args):
        calls.append(args[2].size)
        return real(*args)
    monkeypatch.setattr(inversion, "_point_pass", spy)
    return calls


def test_few_node_ratios_take_the_point_route(monkeypatch):
    from levydens.ratio_limit import ratio_px_p0
    calls = _count_point_routes(monkeypatch)
    for x in (1.0, 3.0, 4.6):
        ratio_px_p0(builtin_model("cauchy"), 1.0, x)
    ratio_px_p0(builtin_model("stable", alpha=1.3), 1.0, 2.0)
    assert calls == [2, 2, 2, 2]


@pytest.mark.parametrize("name, kw, t, x", [
    ("cauchy", {}, 1.0, (np.arange(2001) - 1000) * 0.01),
    ("stable", {"alpha": 1.5}, 1.0, (np.arange(2001) - 1000) * 0.01),
    ("gaussian", {}, 0.75, (np.arange(2001) - 1000) * 0.01),
    ("sym_gamma", {}, 1.0, (np.arange(2001) - 1000) * 0.002),
    ("gamma", {}, 1.95, 0.25 + np.arange(381) * 0.0125),
])
def test_many_node_grids_keep_the_grid_route(monkeypatch, name, kw, t, x):
    calls = _count_point_routes(monkeypatch)
    invert_grid(builtin_model(name, **kw), t, x)
    assert calls == []


def test_filon_panels_keep_the_width_rule():
    # each panel is at most 0.3 u wide and at most 4 / lambda, lambda read
    # off the ladder; the last one ends where the envelope is spent
    env = lambda u: np.exp(-0.75 * u * u)
    for start in (0.0, 3.0):
        edges = inversion._filon_panels(env, start, 50.0).edges
        w = np.diff(edges)
        assert np.all(w <= 0.3 * edges[:-1] * (1.0 + 1e-12))
        assert np.all(w <= 4.0 / (1.5 * edges[:-1]) * (1.0 + 1e-12))
        assert env(edges[-2:-1])[0] >= 1e-25 > env(edges[-1:])[0]


def _filon_panel_loop(env, u_lo, reach, pays=None):
    """_filon_panels stepping the ladder as numpy arrays, with one
    np.searchsorted a panel: the reference that the ladder of Python floats
    must reproduce bit for bit."""
    head = None
    if u_lo == 0.0:
        u_lo, head = inversion._filon_head(env, reach)
    log_env = lambda u: np.log(np.maximum(env(u), 1e-300))
    ratio, chunk = inversion._LADDER, inversion._LADDER_CHUNK
    n = max(math.ceil(math.log(reach / u_lo) / math.log(ratio)), 0) + chunk
    g = u_lo * ratio ** np.arange(n + 1)
    L = log_env(g)
    stop = math.log(inversion._FILON_STOP)
    peak = float(g[np.argmax(L)])
    if pays is not None:
        spent = np.flatnonzero((L < stop) & (g > peak))
        g_s = min(float(g[spent[0] - 1] if spent.size else g[-1]), inversion._FILON_CAP)
        least = min(math.ceil(math.log(g_s / u_lo) / math.log(1.3) - 1e-9),
                    inversion._FILON_PANELS)
        if not pays(max(least, 1)):
            return None
    e, j = u_lo, 0
    edges = [e]
    for _ in range(inversion._FILON_PANELS):
        slope = float(max((L[j] - L[j + 1]) / (g[j + 1] - g[j]),
                          (L[j + 1] - L[j + 2]) / (g[j + 2] - g[j + 1])))
        width = 0.3 * e
        if slope > 0.0:
            width = min(width, 4.0 / slope)
        e += width
        edges.append(e)
        while e >= g[-2]:
            more = g[-1] * ratio ** np.arange(1, chunk + 1)
            g, L = np.concatenate((g, more)), np.concatenate((L, log_env(more)))
        j = int(np.searchsorted(g, e, side="right")) - 1
        level = L[j] + (L[j + 1] - L[j]) * (e - g[j]) / (g[j + 1] - g[j])
        if (level < stop and e > peak) or e > inversion._FILON_CAP:
            break
    if pays is not None and not pays(len(edges) - 1):
        return None
    return inversion._FilonPanels(np.array(edges), head)


_FILON_ENVELOPES = [
    ("cauchy", {}, 1.0), ("stable", {"alpha": 0.3}, 1.0), ("stable", {"alpha": 1.5}, 1.0),
    ("stable", {"alpha": 1.7}, 1.0), ("gaussian", {}, 1.0),
    # (1 + u^2)^{-0.52} decays so slowly that the run is cut at the 1e12
    # cap, far past the ladder sampled up to the window
    ("sym_gamma", {}, 0.52),
]


@pytest.mark.parametrize("name, kw, t", _FILON_ENVELOPES)
def test_filon_panels_match_the_panel_loop(name, kw, t):
    x = _nodes(9, 0.8)
    f = inversion._integrand_1d(builtin_model(name, **kw), t, x, 0.8)
    for u_lo in (0.0, f.Xi):
        got = _filon_panels(f.env, u_lo, f.Xi)
        want = _filon_panel_loop(f.env, u_lo, f.Xi)
        assert np.array_equal(got.edges, want.edges)
        assert np.array_equal(got.head, want.head)
        assert (got.edges[-1] > inversion._FILON_CAP) == (name == "sym_gamma")


@pytest.mark.parametrize("name, kw, t, x, asks, laid_out", [
    # nine-node stable 1.7: 73 panels pay at the lower bound, 82 do not
    ("stable", {"alpha": 1.7}, 1.0, _nodes(9, 0.8), 2, False),
    # refused at the lower bound, before any panel is laid out
    ("gaussian", {}, 1.0, _nodes(5, 0.5), 1, False),
    ("cauchy", {}, 1.0, np.array([0.0, 3.2]), 2, True),
    ("sym_gamma", {}, 0.52, np.array([-1.0, 0.0, 1.0]), 2, True),
])
def test_routed_filon_panels_match_the_panel_loop(monkeypatch, name, kw, t, x, asks,
                                                   laid_out):
    # every run invert_grid lays out, from the origin or from the window,
    # asks ``pays`` the same counts and returns the same panels as the loop
    real = inversion._filon_panels
    runs = []

    def checked(env, u_lo, reach, pays=None):
        asked = ([], [])

        def spy(seen):
            return None if pays is None else lambda k: seen.append(k) or pays(k)
        got = real(env, u_lo, reach, spy(asked[0]))
        want = _filon_panel_loop(env, u_lo, reach, spy(asked[1]))
        assert asked[0] == asked[1] and (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.edges, want.edges) and got.head == want.head
        runs.append((u_lo, len(asked[0]), got is not None))
        return got
    monkeypatch.setattr(inversion, "_filon_panels", checked)
    invert_grid(builtin_model(name, **kw), t, x)
    assert runs[0] == (0.0, asks, laid_out)
    # a refused point route leaves the grid route, whose tail runs from its window
    assert [u_lo > 0.0 for u_lo, _, _ in runs[1:]] == ([] if laid_out else [True])


@pytest.mark.parametrize("x, step", [
    (np.array([-0.8, 0.0, 0.8 * (1.0 + 0.9e-9)]), 0.8),
    (np.array([-0.8, 0.0, 0.8 * (1.0 + 1.1e-9)]), None),
    (np.array([-0.8, 0.0, math.nan]), None),
    (np.array([-0.8, 0.0, math.inf]), None),
    (np.array([math.nan, 0.0, 0.8]), None),
    (np.array([0.0, math.inf]), None),
])
def test_uniform_step_boundary(x, step):
    # |d - h| <= 1e-12 + 1e-9 |h| for every step d, h the first and finite
    if step is not None:
        assert inversion._uniform_step(x) == step
        return
    with pytest.raises(RangeError, match="grid"):
        inversion._uniform_step(x)
    with pytest.raises(RangeError, match="grid"):
        invert_grid(builtin_model("gaussian"), 1.0, x)


# -- the route chosen after the grid's first pass ------------------------------

def _pass_refines(monkeypatch):
    """Record the refine factor of every ``_grid_1d_sum`` pass."""
    refines = []
    real = inversion._grid_1d_sum

    def spy(*args, **kwargs):
        refines.append(kwargs.get("refine", 1))
        return real(*args, **kwargs)
    monkeypatch.setattr(inversion, "_grid_1d_sum", spy)
    return refines


@pytest.mark.parametrize("model, t, x", [
    # the corners of the nine-node stable pool: the first pass predicts 2^15
    (builtin_model("stable", alpha=1.48), 1.0, _nodes(9, 0.7)),
    (builtin_model("stable", alpha=1.51), 1.0, _nodes(9, 0.92)),
    # few-node cauchy grids: the first pass predicts 2^21
    (builtin_model("cauchy"), 1.0, np.arange(-2, 3) * 0.5),
    (builtin_model("cauchy"), 1.0, np.arange(12) * 0.5),
])
def test_predicted_wrap_sends_few_nodes_to_the_point_route(monkeypatch, model, t, x):
    refines, points = _pass_refines(monkeypatch), _count_point_routes(monkeypatch)
    f = invert_grid(model, t, x)
    assert refines == [1] and points == [x.size]
    if model.name == "cauchy":
        err = np.max(np.abs(f.values - [closed_form("cauchy", t, v) for v in x]))
        assert err <= f.tail_bound


def test_flat_wrap_edge_runs_the_grids_own_passes_before_pricing(monkeypatch):
    # stable alpha = 0.3 at t = 10 is wider than every wrap up to 2^11: those
    # passes show no decay and predict only a doubling, as the grid route
    # itself would run them; the one at 2^11 predicts 2^21, and the point
    # route wins.  The grid route was off by 1.2e-8 here
    refines, points = _pass_refines(monkeypatch), _count_point_routes(monkeypatch)
    f = invert_grid(builtin_model("stable", alpha=0.3), 10.0, np.array([0.0, 1.0]))
    assert refines == [1, 2, 4, 8] and points == [2]
    want = math.gamma(1.0 + 1.0 / 0.3) / (math.pi * 10.0 ** (1.0 / 0.3))
    assert abs(f.values[0] - want) <= f.tail_bound
    assert f.values[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_grid_pass_bound_covers_the_41_node_cauchy_grid():
    # invert_grid sends this grid through the point route; the grid route's
    # own bound is checked by calling it directly
    x = (np.arange(41) - 20) * 0.25
    (pv, pb), (gv, gb) = _point_and_grid(builtin_model("cauchy"), 1.0, x, grid=True)
    ref = np.array([closed_form("cauchy", 1.0, v) for v in x])
    assert np.max(np.abs(gv - ref)) <= gb
    assert np.max(np.abs(pv - ref)) <= pb


@pytest.mark.parametrize("x", [np.array([0.3, 1.3]), 0.3 + np.arange(5)])
def test_off_lattice_grids_do_not_depend_on_the_route(monkeypatch, x):
    # an origin off the step's lattice has no DFT bins: a symmetric F takes
    # the point route, which needs none; any other F is refused by field
    refines, points = _pass_refines(monkeypatch), _count_point_routes(monkeypatch)
    f = invert_grid(builtin_model("cauchy"), 1.0, x)
    assert refines == [] and points == [x.size]
    err = np.max(np.abs(f.values - [closed_form("cauchy", 1.0, v) for v in x]))
    assert err <= f.tail_bound and err <= 1e-12
    with pytest.raises(RangeError, match="field 'grid'"):
        invert_grid(builtin_model("gamma"), 2.0, x)


# -- radial route: one integrand call per panel layout --------------------


def _panel_sum(f, edges, gx, gw, r=0.0):
    """(sum of the GL panel terms T_j, sum of |T_j| (1 + r u_j)), u_j the
    right edges: the value and the magnitude behind the rounding part."""
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * gx
    terms = half * (f(pts.reshape(-1)).reshape(pts.shape) @ gw)
    return float(np.sum(terms)), float(np.sum(np.abs(terms) * (1.0 + r * b)))


def _radial_panel_loop(model, t, radii):
    """invert_radial with one integrand call per panel: the sequential
    reference that the laid-out panels must reproduce."""
    n, nu = model.dim, 0.5 * model.dim - 1.0
    profile = re_psi_profile(model)
    env = lambda u: np.exp(-t * profile(u))
    x12, w12 = np.polynomial.legendre.leggauss(12)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    vals, worst = [], 0.0
    for r in radii:
        if r == 0.0:
            vals.append(pt_zero(model, t))
            worst = max(worst, 8.0 * np.finfo(float).eps * vals[-1])
            continue
        f = lambda u: env(u) * u ** (n - 1) * specfun.h_kernel_array(nu, u * r)
        u_knee = min(1.0, 30.0 / r)
        a = min(1e-9, 0.5 * u_knee)
        total = env(np.array([0.5 * a]))[0] * a ** n / n * specfun.h_kernel(nu + 1.0, a * r)
        mag, head_err = abs(total), (1.0 - env(np.array([a]))[0]) * a ** n / n
        value, size = _panel_sum(f, np.geomspace(a, u_knee, 64), x16, w16, r)
        total, mag = total + value, mag + size
        # the march ends at 30/r or at the envelope's stop, the first u of
        # 1, 1.25, ... where env(u) u^{n-1} is under 1e-22 of the largest
        # env(v) v^n / n up to u
        u, top = 1.0, 0.0
        while u < 30.0 / r:
            level = env(np.array([u]))[0] * u ** (n - 1)
            top = max(top, level * u / n)
            if level < 1e-22 * top:
                break
            u += 0.25 * u
        u_end = min(u, 30.0 / r)
        u = u_knee
        while u < u_end:
            u_next = min(u + min(0.5 * math.pi / r, 0.25 * u), u_end)
            value, size = _panel_sum(f, np.array([u, u_next]), x16, w16, r)
            total, mag = total + value, mag + size
            u = u_next
        ends = np.cumsum(np.concatenate(([u], np.full(240, math.pi / r))))
        left = _tail_integral(env, n, ends[1:])
        stop = int(np.argmax(left < 1e-16)) + 1 if np.any(left < 1e-16) else None
        terms, sizes = zip(*(_panel_sum(f, ends[k:k + 2], x12, w12, r)
                             for k in range(stop or 240)))
        mag += sum(sizes)
        if stop is not None:
            total += math.fsum(terms)
            tail_est = left[stop - 1]
        else:
            acc, tail_est = _accelerated(np.asarray(terms))
            total += acc
        pref = sphere_surface(n) / (2.0 * math.pi) ** n
        vals.append(pref * total)
        worst = max(worst, pref * (tail_est + 8.0 * np.finfo(float).eps * mag + head_err))
    return np.array(vals), worst


@pytest.mark.parametrize("family", ["gaussian", "cauchy"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_matches_closed_form(family, dim):
    rs = np.linspace(0.0, 6.0, 25)
    f = invert_radial(builtin_model(family, dim=dim), 1.0, rs)
    want = [closed_form(family, 1.0, np.array([r] + [0.0] * (dim - 1)), dim=dim) for r in rs]
    assert np.max(np.abs(f.values - want)) <= 1e-12


@pytest.mark.parametrize("alpha, dim, accelerated", [(0.3, 2, 24), (0.5, 1, 23),
                                                     (1.5, 3, 0)])
def test_radial_panels_match_the_panel_loop(monkeypatch, alpha, dim, accelerated):
    # the slowly decaying stable envelopes take the accelerated branch on all
    # but the smallest radii, each a row of one `_accelerated` call; a (P, k)
    # block product rounds unlike P one-row products, so the values agree to
    # rounding, not bit for bit
    model = builtin_model("stable", alpha=alpha, dim=dim)
    rs = np.linspace(0.0, 6.0, 25)
    want, want_tail = _radial_panel_loop(model, 1.0, rs)
    rows = []
    real = quadrature._accelerated
    monkeypatch.setattr(quadrature, "_accelerated",
                        lambda terms: rows.append(terms.shape[0]) or real(terms))
    f = invert_radial(model, 1.0, rs)
    assert sum(rows) == accelerated
    assert np.max(np.abs(f.values - want)) <= 1e-15 * np.max(np.abs(want))
    # the rounding part sums the panel magnitudes in another order
    assert f.tail_bound == pytest.approx(want_tail, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("family, dim, t", [
    ("cauchy", 1, 1.0), ("cauchy", 2, 1.0), ("cauchy", 3, 1.0),
    ("gaussian", 2, 0.5), ("gaussian", 3, 0.5),
])
def test_radial_error_within_tail_bound(family, dim, t):
    # the bound's rounding part covers what the kernel and the panel sums
    # leave, about 1e-16 here
    rs = np.linspace(0.0, 6.0, 25)
    f = invert_radial(builtin_model(family, dim=dim), t, rs)
    want = [closed_form(family, t, np.array([r] + [0.0] * (dim - 1)), dim=dim) for r in rs]
    assert np.max(np.abs(f.values - want)) <= f.tail_bound


def test_radial_query_makes_one_kernel_call_a_stretch(monkeypatch):
    # every radius is a row of the head and mid march, laid out as one
    # stretch, and of the half-period tail, one integrand call each; the
    # heads [0, a] take H_{nu+1} in one more call
    calls = []
    real = specfun.h_kernel_array
    monkeypatch.setattr(specfun, "h_kernel_array",
                        lambda nu, z: calls.append(nu) or real(nu, z))
    rs = np.linspace(0.0, 4.0, 17)
    for name, dim in (("cauchy", 3), ("gaussian", 2), ("stable", 1)):
        calls.clear()
        invert_radial(builtin_model(name, dim=dim), 1.0, rs)
        nu = 0.5 * dim - 1.0
        assert calls.count(nu) <= 2 and calls.count(nu + 1.0) == 1 and len(calls) <= 3


@pytest.mark.parametrize("family, r", [("gaussian", 1e-200), ("cauchy", 1e-300)])
def test_radial_march_stops_at_the_envelope_before_evaluating(monkeypatch, family, r):
    # the mid march runs to 30/r = 3e200 or 3e301, but its panels are laid
    # out only up to the envelope's stop: about 1,200 kernel points, where
    # evaluating the march to 30/r and cutting it afterwards took 34,428
    # and 50,940.  The ladder that finds the stop is sampled in blocks of
    # 32, 64, ... rungs: 1,196 and 1,356 envelope points, where sampling it
    # up to 30/r took 3,246 and 4,437
    points, env_points = [], []
    real = specfun.h_kernel_array
    monkeypatch.setattr(specfun, "h_kernel_array",
                        lambda nu, z: points.append(np.size(z)) or real(nu, z))
    real_env = inversion._env_power
    monkeypatch.setattr(inversion, "_env_power",
                        lambda env, u, p: env_points.append(np.size(u)) or real_env(env, u, p))
    f = invert_radial(builtin_model(family, dim=2), 1.0, [r])
    assert sum(points) <= 4000
    assert sum(env_points) <= 1500
    assert abs(f.values[0] - closed_form(family, 1.0, np.array([r, 0.0]), dim=2)) <= f.tail_bound


def test_radial_stop_ladder_of_32_rungs_is_one_block(monkeypatch):
    # 30 / 0.25 = 120 lies between 1.25^21 and 1.25^22: the first block
    # samples the whole ladder 1, 1.25, ..., 1.25^23, as one call did
    sizes = []
    real = inversion._env_power
    monkeypatch.setattr(inversion, "_env_power",
                        lambda env, u, p: sizes.append(np.size(u)) or real(env, u, p))
    invert_radial(builtin_model("cauchy", dim=2), 1.0, [0.25])
    assert sizes[0] == 24


@pytest.mark.parametrize("name, kw, dim", [
    ("cauchy", {}, 3), ("gaussian", {}, 2), ("stable", {"alpha": 0.3}, 2),
    ("stable", {"alpha": 1.5}, 1),
])
def test_radial_values_are_batch_independent(name, kw, dim):
    # no radius's value depends on the other radii of its call: the panel
    # sums are einsum's, which takes every row alike; stable 0.3 accelerates
    model = builtin_model(name, dim=dim, **kw)
    rs = np.r_[np.linspace(0.0, 6.0, 25), 40.0, 1e3, 1e11]
    alone = [invert_radial(model, 1.0, rs[i:i + 1]).values[0] for i in range(rs.size)]
    assert np.array_equal(invert_radial(model, 1.0, rs).values, alone)


_FAR_RADII = (1e3, 1e5, 1e6, 1e7, 1e8, 1e10, 1e11, 1e14)


@pytest.mark.parametrize("family, dim, radii", [
    *[(family, dim, [r]) for family, dim in (("cauchy", 1), ("cauchy", 2), ("cauchy", 3),
                                             ("gaussian", 2), ("gaussian", 3))
      for r in _FAR_RADII],
    # the mid march passes u = 1e154, where u^2 overflows and the envelope is 0
    *[(family, dim, [1e-200]) for family in ("cauchy", "gaussian") for dim in (2, 3)],
    ("cauchy", 2, [0.0, math.nan]), ("cauchy", 2, [1.0, math.inf]), ("cauchy", 2, [[0.0, 1.0]]),
    # below 1e-300, 30/r and pi/r overflow
    *[(family, dim, [r]) for family in ("cauchy", "gaussian") for dim in (2, 3)
      for r in (1e-310, 5e-324)],
])
def test_radial_extreme_radii_meet_their_bound(family, dim, radii):
    # the head [0, a] takes H_{nu+1}(a r), with a = min(1e-9, u_knee / 2),
    # and its envelope spread is in the bound; a radius that is not a
    # finite nonnegative number of a 1-d array is a typed error
    model = builtin_model(family, dim=dim)
    rs = np.asarray(radii, dtype=float)
    if rs.ndim != 1 or not np.all(np.isfinite(rs)):
        with pytest.raises(RangeError, match="radii"):
            invert_radial(model, 1.0, radii)
        return
    f = invert_radial(model, 1.0, rs)
    want = closed_form(family, 1.0, np.array([rs[0]] + [0.0] * (dim - 1)), dim=dim)
    assert abs(f.values[0] - want) <= f.tail_bound
