"""Sublevel measures, rearrangements, and the Laplace route to p_t(0)."""

import dataclasses
import math

import numpy as np
import pytest

from levydens import levy_core, rearrangement
from levydens.asymptotics import doubling_report, phi_integrability, predict_pt0
from levydens.errors import IntegrabilityRefusal, RangeError
from levydens.inversion import pt_zero
from levydens.levy_core import ModelSpec, builtin_model
from levydens.measures import MeasureSpec
from levydens.rearrangement import (
    build_table,
    nu_dist,
    nu_inverse,
    pt0_laplace,
    u_star,
)


def test_nu_dist_gaussian_closed_form():
    # psi = xi^2: sublevel set is an interval of length 2 sqrt(x)
    m = builtin_model("gaussian")
    for x in (0.01, 1.0, 25.0):
        assert nu_dist(m, x) == pytest.approx(2.0 * math.sqrt(x), rel=1e-10)
    assert nu_dist(m, 0.0) == 0.0
    with pytest.raises(RangeError):
        nu_dist(m, -1.0)


def test_nu_dist_gaussian_dim2():
    # sublevel set is a disc of radius sqrt(x)
    m = builtin_model("gaussian", dim=2)
    for x in (0.5, 4.0):
        assert nu_dist(m, x) == pytest.approx(math.pi * x, rel=1e-9)


def test_nu_dist_sym_gamma():
    # psi = ln(1 + xi^2): length 2 sqrt(e^x - 1)
    m = builtin_model("sym_gamma")
    for x in (0.2, 1.0, 10.0):
        assert nu_dist(m, x) == pytest.approx(2.0 * math.sqrt(math.expm1(x)),
                                              rel=1e-9)


@pytest.mark.parametrize("name, kw, x, want", [
    # |xi|^(1/2) <= x: a ball of radius x^2
    ("stable", {"alpha": 0.5}, 1e-3, 2.0 * 1e-3 ** 2),
    ("stable", {"alpha": 0.5, "dim": 2}, 1e-3, math.pi * 1e-3 ** 4),
    # ln(1 + xi^2) <= x: roots far past the old s = 1e24 cap
    ("sym_gamma", {}, 60.0, 2.0 * math.sqrt(math.expm1(60.0))),
    ("sym_gamma", {}, 100.0, 2.0 * math.sqrt(math.expm1(100.0))),
])
def test_nu_dist_closed_forms_to_roundoff(name, kw, x, want):
    assert nu_dist(builtin_model(name, **kw), x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_nu_dist_takes_arrays():
    # the gaussian exponent overflows to inf far out, and still nu(inf) = inf
    m = builtin_model("gaussian", dim=2)
    x = np.array([[0.0, 0.5], [2.0, math.inf]])
    got = nu_dist(m, x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got[:, :1], [[0.0], [2.0 * math.pi]], rtol=1e-14)
    assert got[0, 1] == nu_dist(m, 0.5) and got[1, 1] == math.inf
    with pytest.raises(RangeError):
        nu_dist(m, np.array([1.0, math.nan]))


def test_nu_dist_past_the_engines_reach():
    # nu(inf) = inf takes no bracket walk; a threshold that the quadrature
    # engine overflows before reaching (near |xi| = 4e200, Re psi ~ 6e300) is
    # refused by name, not with a bare OverflowError or a NaN
    m = builtin_model("tempered_stable")
    assert nu_dist(m, math.inf) == math.inf
    assert nu_dist(m, np.array([1.0, math.inf]))[1] == math.inf
    with pytest.raises(RangeError, match=r"threshold 1e\+305 "):
        nu_dist(m, 1e305)


def test_bounded_exponent_sublevel_sets():
    # Re psi = 1 - e^{-u^2} stays below 1: nu(x) = 2 sqrt(-ln(1 - x)) under
    # 1, and the whole line above it
    m = ModelSpec(1, (0.0,), ((0.0,),), MeasureSpec(variant="none"), isotropic=True,
                  g_exact=lambda u: -np.expm1(-np.asarray(u, float) ** 2))
    got = nu_dist(m, np.array([0.25, 0.5, 0.999, 1.5, 2.0]))
    want = 2.0 * np.sqrt(-np.log1p(-np.array([0.25, 0.5, 0.999])))
    np.testing.assert_allclose(got[:3], want, rtol=1e-12)
    assert np.all(got[3:] == math.inf)
    table = build_table(m, 2.0, x_min=0.5)
    assert np.isfinite(table.nu_values).any()
    assert table.nu_values[-1] == math.inf
    with pytest.raises(RangeError):
        levy_core.g_inverse(m, 2.0)
    with pytest.raises(IntegrabilityRefusal):
        pt0_laplace(m, 1.0)


def test_closed_forms_never_call_eval_re_psi(monkeypatch):
    calls = []
    real = levy_core.eval_re_psi
    monkeypatch.setattr(levy_core, "eval_re_psi",
                        lambda model, xi: calls.append(1) or real(model, xi))
    for name, kw in (("cauchy", {}), ("stable", {"alpha": 1.5, "dim": 2}), ("sym_gamma", {})):
        m = builtin_model(name, **kw)
        nu_dist(m, 0.7)
        build_table(m, 50.0)
        predict_pt0(m, "t_to_inf")
    assert calls == []


def test_nu_inverse_roundtrip():
    m = builtin_model("gaussian")
    for s in (0.1, 2.0, 30.0):
        # nu(x) = 2 sqrt(x) so nu^{-1}(s) = s^2 / 4
        assert nu_inverse(m, s) == pytest.approx(s * s / 4.0, rel=1e-9)
    assert nu_inverse(m, 0.0) == 0.0


def test_u_star_decreasing():
    m = builtin_model("cauchy")
    s = np.linspace(0.1, 20.0, 25)
    vals = [u_star(m, 1.0, float(v)) for v in s]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert u_star(m, 1.0, 0.0) == 1.0


def test_build_table_monotone():
    for name in ("gaussian", "exa3_atoms"):
        table = build_table(builtin_model(name), 50.0)
        assert np.all(np.diff(table.x_nodes) > 0)
        finite = table.nu_values[np.isfinite(table.nu_values)]
        assert np.all(np.diff(finite) >= -1e-12)
    assert build_table(builtin_model("gaussian"), 10.0).method == "radial_bisection"
    assert build_table(builtin_model("exa3_atoms"), 10.0).method == "grid_count"


def test_table_csv_roundtrip(tmp_path):
    table = build_table(builtin_model("gaussian"), 10.0)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    text = path.read_text()
    assert text.startswith("# method=radial_bisection")
    assert "x,nu" in text


def test_laplace_route_matches_fourier_route():
    cases = [(builtin_model("gaussian"), 1.0), (builtin_model("cauchy"), 0.5),
             (builtin_model("stable", alpha=1.5), 2.0),
             (builtin_model("sym_gamma"), 1.0)]
    for m, t in cases:
        a = pt0_laplace(m, t)
        b = pt_zero(m, t)
        assert a == pytest.approx(b, rel=1e-6)


def test_laplace_route_refuses_below_threshold():
    m = builtin_model("sym_gamma")
    with pytest.raises(IntegrabilityRefusal) as exc_info:
        pt0_laplace(m, 0.45)
    assert exc_info.value.diagnostics.get("t") == 0.45
    with pytest.raises(RangeError):
        pt0_laplace(m, -1.0)


@pytest.mark.parametrize("t", [0.5, 0.500001])
def test_laplace_route_refuses_at_the_threshold(t):
    # (1 + xi^2)^(-t) is not integrable at t = 1/2, and at t just above it
    # the answer (~1.6e5) needs thresholds past log(1 + u^2) ~ 709.8, where
    # u^2 overflows; an overflowing exponent stopped nu growing there, and
    # the route returned ~113 for both.  nu = 2 sqrt(expm1(y/t)) is finite,
    # but its sublevel set reaches past |xi| = e^700 from y/t ~ 1400 (and nu
    # overflows a float from y/t ~ 1419): the refusal says so
    with pytest.raises(IntegrabilityRefusal, match="infinite or beyond the float range") as exc:
        pt0_laplace(builtin_model("sym_gamma"), t)
    d = exc.value.diagnostics
    assert d["t"] == t and d["threshold"] == d["y"] / t
    assert 1400.0 < d["threshold"] < 1420.0


def test_counted_route_refuses_an_infinite_nu():
    with pytest.raises(IntegrabilityRefusal, match="nu is infinite on the Laplace window") as exc:
        pt0_laplace(builtin_model("exa4_atoms"), 1.0)
    assert exc.value.diagnostics == {"t": 1.0}


def test_laplace_route_keeps_sym_gamma_above_the_threshold():
    assert pt0_laplace(builtin_model("sym_gamma"), 0.55) == 3.3985070133265243


def test_log1p_sq_does_not_overflow():
    u = np.concatenate((np.geomspace(1e-300, 1e150, 2001), [0.0]))
    with np.errstate(over="ignore"):
        assert np.array_equal(levy_core._log1p_sq(-u), np.log1p(u ** 2))
    big = np.array([2e150, 1.34e154, 1e200, 1e300])
    np.testing.assert_allclose(levy_core._log1p_sq(big), 2.0 * np.log(big), rtol=1e-15)
    for name in ("gamma", "sym_gamma"):
        m = builtin_model(name)
        assert np.isfinite(m.g_exact(np.array([1e200]))).all()
        assert math.isfinite(m.psi_exact(-1e200).real)
    assert np.isfinite(builtin_model("gamma").psi_exact_vec(np.array([1e200]))).all()


def test_grid_count_route_is_sane():
    # non-monotone exponent goes through the counted route; the measure is
    # nonnegative and nondecreasing in the threshold (inf allowed: the
    # sublevel set of a periodic-channel exponent can be unbounded)
    m = builtin_model("exa3_atoms")
    a = nu_dist(m, 0.05)
    b = nu_dist(m, 0.5)
    assert 0.0 <= a <= b


# -- the counted route on fixed nested shells ------------------------------

# nu(0.05), nu(0.5), nu(3.0) counted on one 2^20-cell box covering each
# sublevel set (L = 8 for exa3, L = 32 for exa4)
_FINE_COUNTS = {"exa3_atoms": (0.04919, 0.44849, 3.54456),
                "exa4_atoms": (1.18301, 3.86169, 53.39087)}
_CELL0 = 16.0 / (1 << 16)          # shell-0 cell width in dim 1


@pytest.mark.parametrize("name", sorted(_FINE_COUNTS))
def test_counted_nu_is_history_free(name):
    xs = np.array([0.05, 0.5, 3.0])
    fresh = nu_dist(builtin_model(name), xs)
    m = builtin_model(name)
    table = build_table(m, 50.0)
    finite = table.nu_values[np.isfinite(table.nu_values)]
    assert finite.size > 30 and np.all(finite > 0.0)
    assert np.all(table.nu_values[:-1] <= table.nu_values[1:])
    after = nu_dist(m, xs)
    np.testing.assert_array_equal(after, fresh)
    assert np.all(np.diff(after) > 0.0)
    # the sets reach shell 2 (4-wide cells) only at x = 3.0 on exa4, where
    # each of its boundary points may be off by half a cell of shell 2
    tol = np.array([1.0, 1.0, 8.0 if name == "exa4_atoms" else 1.0]) * _CELL0
    assert np.all(np.abs(after - _FINE_COUNTS[name]) <= tol + 1e-5)


def test_counted_route_on_gaussians_past_shell_0():
    # psi = |xi|^2 (dim 1 and 2), whose routes take the balls; counted here
    # directly.  Box 0 covers thresholds up to about 62.7
    m1 = builtin_model("gaussian")
    x = np.array([0.5, 100.0, 1000.0, 1e4])
    # an interval is counted to within one cell of the shell its end lies in
    shell = np.maximum(np.ceil(np.log2(np.sqrt(x) / 8.0)), 0.0)
    got = rearrangement._counted_nu(m1, x)
    assert np.all(np.abs(got - 2.0 * np.sqrt(x)) <= _CELL0 * 2.0 ** shell)
    assert len(m1._cache["shells"]) == 5
    # only the shells through the first edge past the largest threshold
    edges = [sh.edge for sh in rearrangement._shells_through(m1, 4)]
    assert edges[3] <= x[-1] < edges[4]

    m2 = builtin_model("gaussian", dim=2)
    x = np.array([4.0, 100.0])
    h = 16.0 / (1 << 10) * np.array([1.0, 2.0])
    got = rearrangement._counted_nu(m2, x)
    # the misplaced cells lie within h / sqrt(2) of the circle of radius r
    r = np.sqrt(x)
    assert np.all(np.abs(got - math.pi * x) <= 2.0 * math.sqrt(2.0) * math.pi * r * h)
    assert len(m2._cache["shells"]) == 2
    edges = [sh.edge for sh in rearrangement._shells_through(m2, 1)]
    assert edges[0] <= x[-1] < edges[1]


def test_counted_nu_inverse_sandwich():
    m = builtin_model("exa4_atoms")
    table = build_table(m, 20.0)
    assert table.method == "grid_count" and table.cell_size == _CELL0
    rows = 0
    for x, nu in zip(table.x_nodes, table.nu_values):
        if not 0.0 < nu < math.inf:
            continue
        rows += 1
        x_inv = nu_inverse(m, float(nu))
        assert x_inv <= x
        assert nu_dist(m, x_inv) >= nu
        # nothing below x_inv reaches nu
        assert nu_dist(m, np.nextafter(x_inv, 0.0)) < nu
    assert rows >= 50
    # past every shell edge nu is inf, and its inverse is the largest edge
    edge = max(sh.edge for sh in m._cache["shells"])
    assert nu_inverse(m, 1e12) == edge and nu_dist(m, edge) == math.inf


def test_counted_route_builds_each_shell_once(monkeypatch):
    built = []
    real = rearrangement._build_shell
    monkeypatch.setattr(rearrangement, "_build_shell",
                        lambda model, k: built.append(k) or real(model, k))
    m = builtin_model("exa4_atoms")
    doubling_report(m, (0.1, 5.0))
    phi_integrability(m, 1.0)
    assert built == list(range(len(built))) and len(built) == 21


def test_gamma_takes_the_ball_route():
    # Re psi = ln(1 + xi^2) / 2 is radial and increasing, though the
    # one-sided measure and the drift make the triplet non-isotropic:
    # nu(x) = 2 sqrt(e^{2x} - 1), and t int nu(x) e^{-tx} dx / (2 pi) =
    # Gamma((t - 1) / 2) / (2 sqrt(pi) Gamma(t / 2))
    m = builtin_model("gamma")
    x = np.array([0.1, 1.0, 5.0])
    np.testing.assert_allclose(nu_dist(m, x), 2.0 * np.sqrt(np.expm1(2.0 * x)), rtol=1e-12)
    for t in (1.5, 3.0, 10.0):
        want = math.gamma(0.5 * (t - 1.0)) / (2.0 * math.sqrt(math.pi) * math.gamma(0.5 * t))
        assert pt0_laplace(m, t) == pytest.approx(want, rel=1e-12, abs=0.0)
    for t in (0.9, 1.0):
        with pytest.raises(IntegrabilityRefusal):
            pt0_laplace(m, t)


def test_counted_route_keeps_the_gaussian_part():
    # psi = i xi + xi^2: the drift leaves Re psi = xi^2 radial, so the
    # ball route gives nu and p_t(0) of e^{-t Re psi}
    m = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    assert nu_dist(m, 1.0) == pytest.approx(2.0, abs=_CELL0)
    assert pt0_laplace(m, 1.0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-4)
    # Re psi = xi_1^2 + 4 xi_2^2 <= 1 is an ellipse of area pi / 2; with no
    # radial profile the shells take eval_re_psi cell by cell
    m2 = ModelSpec(2, (0.0, 0.0), ((2.0, 0.0), (0.0, 8.0)), MeasureSpec(variant="none"))
    h = 16.0 / (1 << 10)
    assert nu_dist(m2, 1.0) == pytest.approx(math.pi / 2.0, abs=2.0 * math.sqrt(2.0) * math.pi * h)


def _panel_loop_pt0(model, t):
    """pt0_laplace with one nu pass per panel: the sequential reference that
    the batched walk must reproduce bit for bit."""
    x16, w16 = rearrangement._gl16_x, rearrangement._gl16_w

    counted = not levy_core._radial_monotone_ok(model)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        y = mid + half * x16
        nu = rearrangement._nu_vec(model, y / t)
        inf = np.isinf(nu)
        if np.any(inf) and counted:
            raise IntegrabilityRefusal(f"nu is infinite on the Laplace window at t={t}",
                                       diagnostics={"t": t})
        if np.any(inf):
            at = float(y[inf][0])
            raise IntegrabilityRefusal(
                f"nu is infinite or beyond the float range at y={at:g} "
                f"(threshold y/t={at / t:g}) on the Laplace window at t={t}",
                diagnostics={"t": t, "y": at, "threshold": at / t})
        return half * float(np.dot(w16, nu * np.exp(-y)))

    total = 0.0
    edges = np.geomspace(1e-12, 1.0, 49)
    for a, b in zip(edges[:-1], edges[1:]):
        total += panel(a, b)
    total += 0.5 * float(rearrangement._nu_vec(model, np.array([1e-12 / t]))[0]) * 1e-12
    y, prev, grow_run = 1.0, math.inf, 0
    for _ in range(800):
        piece = panel(y, y + 1.0)
        total += piece
        if piece > prev and y > 40.0:
            grow_run += 1
            if grow_run >= 5:
                raise IntegrabilityRefusal(f"Laplace transform of nu diverges at t={t}",
                                           diagnostics={"t": t, "y": y})
        else:
            grow_run = 0
        if piece < 1e-16 * max(total, 1e-300):
            break
        prev, y = piece, y + 1.0
    else:
        raise IntegrabilityRefusal(
            f"Laplace transform of nu not converged within the panel budget at t={t}",
            diagnostics={"t": t, "y": y})
    return total / (2.0 * math.pi) ** model.dim


def _outcome(route, model, t):
    try:
        return route(model, t)
    except IntegrabilityRefusal as exc:
        return str(exc), exc.diagnostics


def _laplace_case(name, kw):
    if name == "drifted_gaussian":      # psi = i xi + xi^2 takes the counted route
        return ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    return builtin_model(name, **kw)


@pytest.mark.parametrize("name, kw, t", [
    ("stable", {"alpha": 1.5}, 1.0), ("cauchy", {"dim": 3}, 1.0),
    ("sym_gamma", {}, 0.45),                        # the divergence refusal
    ("sym_gamma", {}, 0.55), ("sym_gamma", {}, 2.0),
    ("drifted_gaussian", {}, 1.0),
    ("exa5_atoms", {}, 0.5), ("exa5_atoms", {}, 1.0),  # counted, finite
    ("exa4_atoms", {}, 1.0),                        # nu is inf on the window
    ("sym_gamma", {}, 0.5),                         # nu past the float range
])
def test_batched_laplace_matches_the_panel_loop(name, kw, t):
    ref_model, model = _laplace_case(name, kw), _laplace_case(name, kw)
    want = _outcome(_panel_loop_pt0, ref_model, t)
    assert _outcome(pt0_laplace, model, t) == want
    # the counted route builds no shell that the panel loop did not build
    assert len(model._cache.get("shells", [])) == len(ref_model._cache.get("shells", []))


def test_laplace_route_evaluates_nu_in_few_passes(monkeypatch):
    calls = []
    real = rearrangement._nu_vec
    monkeypatch.setattr(rearrangement, "_nu_vec",
                        lambda model, x: calls.append(x.size) or real(model, x))
    pt0_laplace(builtin_model("stable", alpha=1.5), 1.0)
    assert len(calls) <= 4          # one nu pass per panel made ~90


def _walk_every_threshold(model, x):
    """_level_log_radius with the exponent evaluated at every threshold on
    every bracket-walk step: the reference for the shrinking walks."""
    fn = levy_core.re_psi_profile(model)
    step = math.log(8.0)
    with np.errstate(over="ignore"):
        v_hi = np.zeros_like(x)
        while True:
            short = fn(np.exp(v_hi)) < x
            grow = short & (v_hi <= levy_core._LOG_RADIUS_MAX)
            if not np.any(grow):
                break
            v_hi = np.where(grow, v_hi + step, v_hi)
        v_lo = v_hi - step
        for _ in range(80):
            shrink = fn(np.exp(v_lo)) >= x
            if not np.any(shrink):
                break
            v_lo = np.where(shrink, v_lo - step, v_lo)
            if np.min(v_lo) < -200.0:
                break
        for _ in range(60):
            mid = 0.5 * (v_lo + v_hi)
            below = fn(np.exp(mid)) < x
            v_lo, v_hi = np.where(below, mid, v_lo), np.where(below, v_hi, mid)
        return np.where(short | (x == math.inf), math.inf, 0.5 * (v_lo + v_hi))


@pytest.mark.parametrize("name, kw, unreached", [
    ("stable", {"alpha": 1.5}, [1e300, math.inf]), ("cauchy", {"dim": 3}, [1e300, math.inf]),
    ("sym_gamma", {}, [1e300, math.inf]), ("gaussian", {"dim": 2}, [1e300, math.inf]),
    ("tempered_stable", {}, []),      # the engine overflows past the table, far out
])
def test_level_log_radius_walks_only_unbracketed_thresholds(name, kw, unreached):
    x = np.concatenate((np.geomspace(1e-9, 1e4, 60), unreached))
    want = _walk_every_threshold(builtin_model(name, **kw), x)
    assert np.array_equal(levy_core._level_log_radius(builtin_model(name, **kw), x), want)


@pytest.mark.parametrize("name, t, most", [
    ("stable", 1.0, 100_000),       # 103,239 when every walk step took every threshold
    ("sym_gamma", 0.45, 110_000),   # 121,670 then
])
def test_laplace_route_exponent_points(name, t, most):
    m = builtin_model(name, **({"alpha": 1.5} if name == "stable" else {}))
    g, seen = m.g_exact, []
    m = dataclasses.replace(m, g_exact=lambda u: seen.append(np.size(u)) or g(u))
    try:
        pt0_laplace(m, t)
    except IntegrabilityRefusal:
        pass
    assert sum(seen) <= most
