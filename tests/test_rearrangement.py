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


def _counted(model):
    # the same exponent without the isotropic flag takes the counted route
    return dataclasses.replace(model, isotropic=False)


def test_counted_route_on_gaussians_past_shell_0():
    # psi = |xi|^2 (dim 1 and 2); box 0 covers thresholds up to about 62.7
    m1 = _counted(builtin_model("gaussian"))
    x = np.array([0.5, 100.0, 1000.0, 1e4])
    table = build_table(m1, 1e4, x_min=0.5)
    assert table.method == "grid_count" and table.cell_size == _CELL0
    # an interval is counted to within one cell of the shell its end lies in
    shell = np.maximum(np.ceil(np.log2(np.sqrt(x) / 8.0)), 0.0)
    got = nu_dist(m1, x)
    assert np.all(np.abs(got - 2.0 * np.sqrt(x)) <= _CELL0 * 2.0 ** shell)
    assert len(m1._cache["shells"]) == 5

    m2 = _counted(builtin_model("gaussian", dim=2))
    x = np.array([4.0, 100.0])
    h = 16.0 / (1 << 10) * np.array([1.0, 2.0])
    got = nu_dist(m2, x)
    # the misplaced cells lie within h / sqrt(2) of the circle of radius r
    r = np.sqrt(x)
    assert np.all(np.abs(got - math.pi * x) <= 2.0 * math.sqrt(2.0) * math.pi * r * h)
    assert len(m2._cache["shells"]) == 2


def test_counted_nu_inverse_sandwich():
    m = builtin_model("exa4_atoms")
    table = build_table(m, 20.0)
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


def test_counted_route_keeps_the_gaussian_part():
    # psi = i xi + xi^2: the drift makes the model non-isotropic
    m = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    assert nu_dist(m, 1.0) == pytest.approx(2.0, abs=_CELL0)
    assert pt0_laplace(m, 1.0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-4)
    # Re psi = xi_1^2 + 4 xi_2^2 <= 1 is an ellipse of area pi / 2; with no
    # radial profile the shells take eval_re_psi cell by cell
    m2 = ModelSpec(2, (0.0, 0.0), ((2.0, 0.0), (0.0, 8.0)), MeasureSpec(variant="none"))
    h = 16.0 / (1 << 10)
    assert nu_dist(m2, 1.0) == pytest.approx(math.pi / 2.0, abs=2.0 * math.sqrt(2.0) * math.pi * h)
