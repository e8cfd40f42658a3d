"""Sublevel measures, rearrangements, and the Laplace route to p_t(0)."""

import math

import numpy as np
import pytest

from levydens import levy_core
from levydens.asymptotics import predict_pt0
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


def test_grid_count_route_is_sane():
    # non-monotone exponent goes through the counted route; the measure is
    # nonnegative and nondecreasing in the threshold (inf allowed: the
    # sublevel set of a periodic-channel exponent can be unbounded)
    m = builtin_model("exa3_atoms")
    a = nu_dist(m, 0.05)
    b = nu_dist(m, 0.5)
    assert 0.0 <= a <= b
