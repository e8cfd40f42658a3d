"""Fourier inversion: closed-form oracles, normalization, refusals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp

from levydens.errors import (
    IntegrabilityRefusal,
    QuadratureError,
    RangeError,
    UnsupportedModelError,
)
from levydens import inversion
from levydens.inversion import (
    _FOLD_CHUNK,
    _OSC_PANELS,
    _Zoom,
    _ZoomSums,
    _accelerated,
    _fold_frequency,
    _grid_1d_sum,
    _lattice_sum_2d,
    _osc_tail_term,
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
from levydens.measures import MeasureSpec, sphere_surface


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

    def counted(model, u_max):
        profile = real(model, u_max)

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

def test_spherical_jn_orders_match_scipy():
    # a log grid across the switch at s = k between AMOS (s <= k) and the
    # upward recurrence (s > k), plus s = k and one ulp either side (scipy
    # gives NaN for orders >= 1 at the subnormal just above 0; so must we)
    K = 12
    k = np.arange(K, dtype=float)
    s = np.concatenate((np.geomspace(1e-6, 1e4, 4001), k, np.nextafter(k[1:], 0.0),
                        np.nextafter(k, np.inf)))
    got = _spherical_jn_orders(K, s)
    assert got.shape == (K, s.size)
    for order in range(K):
        np.testing.assert_allclose(got[order], sp.spherical_jn(order, s), rtol=0, atol=1e-15)


def _tail_setup(name, t):
    """(Ffun_c, env, sym) as ``_invert_1d`` builds them."""
    model = builtin_model(name)
    profile = re_psi_profile(model, 1e9)
    env = lambda u: np.exp(-t * profile(np.abs(u)))
    if model.psi_exact_vec is None:
        return env, env, True
    F = lambda xi: np.exp(-t * model.psi_exact_vec(xi.reshape(-1))).reshape(xi.shape)
    return F, env, False


@pytest.mark.parametrize("name, t", [("gamma", 6.0), ("gamma", 1.95), ("exa4_atoms", 1.0)])
def test_osc_tail_batch_matches_single_nodes(name, t):
    # x = 0, two slow-phase nodes (|x| Xi < 0.5) and negative x, more nodes
    # than one block of F samples holds; at t = 6 the small |x| exhaust the
    # envelope inside the panels (plain sums) and the large |x| do not
    Xi = 5.0
    x = np.concatenate(([0.0, 0.05, -0.08], np.linspace(-6.0, 6.0, 48)))
    assert x.size > _FOLD_CHUNK // (_OSC_PANELS * 12)
    F, env, sym = _tail_setup(name, t)
    val, err = _osc_tail_term(F, env, Xi, x, sym)
    single = [_osc_tail_term(F, env, Xi, x[j:j + 1], sym) for j in range(x.size)]
    assert np.array_equal(val, np.concatenate([v for v, _ in single]))
    assert np.array_equal(err, np.concatenate([e for _, e in single]))


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
    # the 381-node gamma grid evaluates the exponent in node blocks, not once
    # per node (384 calls), at the same 1,181,616 points
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
    assert seen["points"] == 1_181_616


def test_drifted_gaussian_keeps_its_gaussian_part():
    # psi = i l xi + xi^2 with l = 1: X_t is normal with mean -t, variance 2t
    m = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    assert re_psi_profile(m, 1e9)(np.array([3.0]))[0] == eval_re_psi(m, [3.0]) == 9.0
    assert pt_zero(m, 1.0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-12)
    # the drift sends the inversion down the non-symmetric path
    x = np.arange(-20, 21) * 0.25
    f = invert_grid(m, 1.0, x)
    err = float(np.max(np.abs(f.values - np.exp(-(x + 1.0) ** 2 / 4.0) / math.sqrt(4.0 * math.pi))))
    assert err <= f.tail_bound and err <= 1e-12


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
