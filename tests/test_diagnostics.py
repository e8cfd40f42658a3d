"""Growth functionals and the density-existence classifier."""

import math

import numpy as np
import pytest

from levydens import diagnostics
from levydens.diagnostics import (
    classify,
    hw_functional,
    hw_phi_functional,
    hw_star_functional,
    kallenberg_functional,
    tail_mass_functional,
)
from levydens.errors import DimensionMismatchError, UnsupportedModelError
from levydens.levy_core import ModelSpec, builtin_model
from levydens.measures import MeasureSpec


def test_hw_gaussian_diverges():
    rep = hw_functional(builtin_model("gaussian"))
    # xi^2 / ln(1 + xi) along xi = 2^k
    k = np.arange(4, 41)
    oracle = 4.0 ** k / np.log1p(2.0 ** k)
    np.testing.assert_allclose(rep.values, oracle, rtol=1e-10)
    assert rep.verdict == "diverges"


def test_hw_takes_the_least_direction_of_a_non_radial_exponent():
    # Re psi = xi_1^2 + 4 xi_2^2 is no function of |xi|: the rays probe the
    # axes and the diagonals, and the least, u^2, lies on the e_1 axis
    dirs = diagnostics._directions(2)
    assert dirs.shape == (4, 2)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    assert diagnostics._directions(3).shape == (9, 3)
    m = ModelSpec(2, (0.0, 0.0), ((2.0, 0.0), (0.0, 8.0)), MeasureSpec(variant="none"))
    rep = hw_functional(m)
    xi = 2.0 ** np.arange(4, 41)
    np.testing.assert_array_equal(rep.values, xi * xi / np.log1p(xi))


def test_hw_sym_gamma_bounded_near_two():
    rep = hw_functional(builtin_model("sym_gamma"))
    assert rep.verdict == "bounded"
    assert rep.values[-1] == pytest.approx(2.0, rel=1e-2)


def test_hw_threshold_compare():
    rep = hw_functional(builtin_model("sym_gamma"), t_opt=0.75)
    tc = rep.threshold_compare
    assert tc["t"] == 0.75
    assert tc["threshold"] == pytest.approx(1.0 / 0.75)
    assert tc["pass"] is True
    rep_low = hw_functional(builtin_model("sym_gamma"), t_opt=0.45)
    assert rep_low.threshold_compare["pass"] is False


def test_kallenberg_logkernel_oracle():
    rep = kallenberg_functional(builtin_model("exa2_logkernel"), (10, 30))
    k = np.arange(10, 31)
    oracle = 1.0 + 1.0 / (2.0 * k * math.log(2.0))
    np.testing.assert_allclose(rep.values, oracle, atol=1e-10)
    assert rep.verdict == "bounded"


def test_kallenberg_gaussian_like_vanishes():
    # truncated second moment of a finite measure decays like eps^2 |ln eps|
    r = tuple(np.linspace(0.5, 2.0, 9))
    from levydens.measures import MeasureSpec
    from levydens.levy_core import ModelSpec
    meas = MeasureSpec(variant="table", r_nodes=r, rho_values=(1.0,) * 9,
                       interp="linear")
    m = ModelSpec(dim=1, drift=(0.0,), gaussian=((0.0,),), measure=meas,
                  isotropic=True)
    assert kallenberg_functional(m).verdict == "vanishes"


def test_tail_mass_stable_diverges():
    rep = tail_mass_functional(builtin_model("stable", alpha=1.5))
    assert rep.verdict == "diverges"
    onesided = builtin_model("gamma")
    with pytest.raises(UnsupportedModelError):
        tail_mass_functional(onesided)


def test_hw_star_equals_hw_for_monotone_radial():
    for name in ("gaussian", "sym_gamma"):
        m = builtin_model(name)
        hw = hw_functional(m, (4, 24))
        hs = hw_star_functional(m, (4, 24))
        np.testing.assert_allclose(hs.values, hw.values, atol=1e-8)


def test_hw_phi_dimension_check():
    with pytest.raises(DimensionMismatchError):
        hw_phi_functional(builtin_model("gaussian"),
                          builtin_model("gaussian", dim=2))


def test_hw_phi_exact_match():
    # ln(1 + xi^2) against phi(xi) = xi^2 gives the quotient exactly 1
    rep = hw_phi_functional(builtin_model("sym_gamma"),
                            builtin_model("gaussian"), (4, 30))
    np.testing.assert_allclose(rep.values, 1.0, rtol=1e-12)
    assert rep.verdict == "bounded"


def test_classify_smooth_for_all_t():
    verdict = classify(builtin_model("stable", alpha=1.5))
    assert verdict["verdict"] == "smooth density for all t"
    assert verdict["hw_infinity"] == "diverges"
    assert not verdict["re_psi_liminf"]["no_density_flag"]


def test_classify_no_density_for_dyadic_atoms():
    verdict = classify(builtin_model("exa4_atoms"), t_list=(1.0,))
    assert verdict["verdict"] == "no density (Re psi does not diverge)"
    assert verdict["re_psi_liminf"]["no_density_flag"]


def test_classify_time_dependent_window():
    verdict = classify(builtin_model("sym_gamma"), t_list=(0.45, 0.75, 2.0))
    per_t = {row["t"]: row for row in verdict["per_t"]}
    assert per_t[0.45]["hw_pass"] is False
    assert per_t[0.75]["hw_pass"] is True
    assert per_t[2.0]["hw_pass"] is True
    assert per_t[0.45]["integrability_probe"] == "diverges"
    assert per_t[0.75]["integrability_probe"] == "converges"
    assert "density expected" in verdict["verdict"]


def test_report_serializes():
    rep = hw_functional(builtin_model("gaussian"))
    d = rep.as_dict()
    assert d["verdict"] == "diverges"
    assert len(d["values"]) == len(d["grid"])
