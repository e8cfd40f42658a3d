"""Regular-variation fits, doubling constants, and p_t(0) predictions."""

import math

import numpy as np
import pytest

from levydens.asymptotics import (
    doubling_report,
    fit_regular_variation,
    phi_integrability,
    predict_pt0,
)
from levydens.errors import RangeError
from levydens.levy_core import builtin_model
from levydens.rearrangement import build_table


def test_doubling_exact_power_laws():
    # nu(x) = const x^{n/alpha}: the doubling constant is exactly 2^{n/alpha}
    cases = [(builtin_model("gaussian"), 1, 2.0),
             (builtin_model("cauchy"), 1, 1.0),
             (builtin_model("stable", alpha=1.5), 1, 1.5),
             (builtin_model("gaussian", dim=2), 2, 2.0)]
    for model, n, alpha in cases:
        c, a = doubling_report(model, (0.1, 10.0))
        assert c == pytest.approx(2.0 ** (n / alpha), rel=1e-9)
        assert a == pytest.approx(n / alpha, rel=1e-8)
    with pytest.raises(RangeError):
        doubling_report(builtin_model("gaussian"), (1.0, 0.5))


def test_doubling_failure_flag():
    # nu for psi = ln(1 + xi^2) grows like e^{x/2}: no doubling constant
    c, a = doubling_report(builtin_model("sym_gamma"), (0.5, 50.0))
    assert c == math.inf and a == math.inf


def test_fit_regular_variation_gaussian():
    table = build_table(builtin_model("gaussian"), 20.0)
    rho, l_anchor = fit_regular_variation(table, (0.01, 10.0))
    # nu(x) = 2 x^{1/2} means rho = 3/2 and L = 2
    assert rho == pytest.approx(1.5, abs=1e-6)
    assert l_anchor == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(RangeError):
        fit_regular_variation(table, (1.0, 1.01))


def test_predict_pt0_stable_small_time():
    for alpha, n in ((1.0, 1), (1.5, 1), (1.0, 2)):
        rep = predict_pt0(builtin_model("stable", alpha=alpha, dim=n), "t_to_0")
        assert rep.t_exponent == pytest.approx(-n / alpha, abs=1e-6)
        assert rep.rho_fit == pytest.approx(1.0 + n / alpha, abs=1e-6)
        assert rep.predicted is not None
        assert rep.ratio_stats["pred_rel_err_max"] <= 1e-6
        c1, c2, nu_inv = rep.bounds
        scaled = (2.0 * math.pi) ** n * rep.observed / nu_inv
        assert np.all(scaled >= c1 - 1e-12)
        assert np.all(scaled <= c2 + 1e-12)


def test_predict_pt0_gaussian_exact_constant():
    # p_t(0) = 1/sqrt(4 pi t): prediction Gamma(3/2) t^{-1/2} 2 / (2 pi) matches
    rep = predict_pt0(builtin_model("gaussian"), "t_to_0")
    want = math.gamma(1.5) * 2.0 / (2.0 * math.pi) * rep.t_grid ** (-0.5)
    np.testing.assert_allclose(rep.predicted, want, rtol=1e-6)
    np.testing.assert_allclose(rep.observed, want, rtol=1e-6)


def test_predict_pt0_large_time():
    rep = predict_pt0(builtin_model("cauchy"), "t_to_inf")
    assert rep.direction == "t_to_inf"
    assert rep.t_exponent == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(RangeError):
        predict_pt0(builtin_model("cauchy"), "sideways")


def test_report_serializes():
    d = predict_pt0(builtin_model("cauchy"), "t_to_0").as_dict()
    assert d["direction"] == "t_to_0"
    assert len(d["observed"]) == len(d["t_grid"])
    assert d["bounds"] is None or set(d["bounds"]) == {"c1", "c2", "nu_inv_t"}


def test_phi_integrability_polynomial_symbol():
    ok, info = phi_integrability(builtin_model("gaussian"), kappa=1.0)
    assert ok
    assert info["lambda"] == pytest.approx(0.5, abs=1e-6)
    assert info["kappa_ok"]
    # kappa at or below lambda is not enough
    ok_low, info_low = phi_integrability(builtin_model("gaussian"), kappa=0.25)
    assert not ok_low and not info_low["kappa_ok"]
    with pytest.raises(RangeError):
        phi_integrability(builtin_model("gaussian"), kappa=0.0)


def test_phi_integrability_exponential_sublevel_fails():
    ok, info = phi_integrability(builtin_model("sym_gamma"), kappa=10.0)
    assert not ok
    assert "failing_x" in info


def test_phi_integrability_reports_where_nu_turns_infinite():
    # exa4_atoms' nu is inf from x ~ 3.5 on: the first such abscissa of the
    # 25-point window fails, not its right end
    ok, info = phi_integrability(builtin_model("exa4_atoms"), kappa=1.0)
    assert not ok
    assert info == {"failing_x": float(np.geomspace(1.0, 50.0, 25)[8]),
                    "reason": "sublevel measure infinite on the window"}
