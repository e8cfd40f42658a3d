"""Large-time ratio limits against closed-form oracles."""

import math

import numpy as np
import pytest
from scipy import special as sp

from levydens import inversion
from levydens.errors import (
    DimensionMismatchError,
    IntegrabilityRefusal,
    QuadratureError,
    RangeError,
    UnsupportedModelError,
)
from levydens.levy_core import ModelSpec, builtin_model
from levydens.measures import AtomSpec, MeasureSpec
from levydens.ratio_limit import (
    chi_tail_mass,
    inf_re_psi_outside,
    ratio_px_p0,
    ratio_report,
    semigroup_ratio,
)


def test_chi_tail_mass_gaussian_oracle():
    # int_delta^inf e^{-t u^2} / int_0^inf e^{-t u^2} = erfc(delta sqrt(t))
    for t, delta in ((1.0, 0.5), (4.0, 1.0), (100.0, 1.0)):
        got = chi_tail_mass(builtin_model("gaussian"), t, delta)
        want = sp.erfc(delta * math.sqrt(t))
        assert got == pytest.approx(want, rel=1e-8)


def test_chi_tail_mass_cauchy_oracle():
    # exponent |xi|: tail fraction is e^{-t delta}
    got = chi_tail_mass(builtin_model("cauchy"), 10.0, 1.0)
    assert got == pytest.approx(math.exp(-10.0), rel=1e-8)
    # the full mass includes [0, 1e-12], which a march from 1e-12 drops
    got = chi_tail_mass(builtin_model("cauchy"), 100.0, 0.5)
    assert got == pytest.approx(math.exp(-50.0), rel=1e-11)
    # in dim n the radial weight u^{n-1} gives regularized upper incomplete
    # gammas: cauchy gammaincc(n, t delta), gaussian gammaincc(n/2, t delta^2)
    for n in (1, 2, 3):
        cauchy = builtin_model("cauchy", dim=n)
        gaussian = builtin_model("gaussian", dim=n)
        for t in (1.0, 10.0, 100.0, 1000.0):
            for delta in (0.1, 0.5, 1.0, 3.0):
                assert chi_tail_mass(cauchy, t, delta) == pytest.approx(
                    sp.gammaincc(n, t * delta), rel=1e-10)
                if n > 1:
                    assert chi_tail_mass(gaussian, t, delta) == pytest.approx(
                        sp.gammaincc(0.5 * n, t * delta * delta), rel=1e-10)
    # exponent |xi|^alpha: gammaincc(n / alpha, t delta^alpha); at alpha = 0.3
    # and t = 1000 nearly all the mass lies below |xi| = 1e-8
    for n in (1, 2):
        for alpha in (0.3, 0.5):
            stable = builtin_model("stable", dim=n, alpha=alpha)
            for t in (1.0, 10.0, 100.0, 1000.0):
                for delta in (0.1, 0.5, 1.0, 3.0):
                    assert chi_tail_mass(stable, t, delta) == pytest.approx(
                        sp.gammaincc(n / alpha, t * delta ** alpha), rel=1e-10)


def test_chi_tail_mass_edge_cases():
    m = builtin_model("gaussian")
    assert chi_tail_mass(m, 1.0, 0.0) == 1.0
    with pytest.raises(RangeError):
        chi_tail_mass(m, 0.0, 1.0)
    with pytest.raises(RangeError):
        chi_tail_mass(m, 1.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(RangeError, match="delta"):
            chi_tail_mass(m, 1.0, bad)
        with pytest.raises(RangeError, match="delta"):
            inf_re_psi_outside(m, bad)
        with pytest.raises(RangeError, match="x="):
            ratio_px_p0(m, 1.0, bad)
    with pytest.raises(RangeError, match="x="):
        ratio_px_p0(builtin_model("cauchy", dim=2), 1.0, np.array([1.0, math.nan]))


def test_inf_re_psi_outside():
    # monotone exponent: the infimum sits at the ball boundary
    val, flag = inf_re_psi_outside(builtin_model("gaussian"), 2.0)
    assert val == pytest.approx(4.0, rel=1e-9)
    assert not flag
    with pytest.raises(RangeError):
        inf_re_psi_outside(builtin_model("gaussian"), 0.0)


def test_inf_re_psi_lattice_obstruction():
    # a single radius-1 atom: Re psi = 2(1 - cos xi) returns to zero at 2 pi k
    meas = MeasureSpec(variant="atoms", atoms=(AtomSpec(mass=1.0, radius=1.0),))
    m = ModelSpec(dim=1, drift=(0.0,), gaussian=((0.0,),), measure=meas,
                  isotropic=True)
    val, flag = inf_re_psi_outside(m, 5.0)
    assert val == pytest.approx(0.0, abs=1e-8)
    assert flag


def test_ratio_px_p0_cauchy_exact():
    # p_t(x)/p_t(0) = t^2 / (t^2 + x^2)
    m = builtin_model("cauchy")
    for t, x in ((1.0, 1.0), (100.0, 1.0), (10.0, 3.0)):
        assert ratio_px_p0(m, t, x) == pytest.approx(
            t * t / (t * t + x * x), rel=1e-8)
    assert ratio_px_p0(m, 1.0, 0.0) == 1.0


def test_ratio_px_p0_dim2():
    m = builtin_model("cauchy", dim=2)
    got = ratio_px_p0(m, 2.0, np.array([3.0, 4.0]))
    want = (4.0 / (4.0 + 25.0)) ** 1.5
    assert got == pytest.approx(want, rel=1e-7)


def test_ratio_px_p0_checks_the_point_dimension():
    with pytest.raises(DimensionMismatchError, match="'x'"):
        ratio_px_p0(builtin_model("cauchy"), 1.0, np.array([4.6, 99.0]))
    with pytest.raises(DimensionMismatchError, match="'x'"):
        ratio_px_p0(builtin_model("cauchy", dim=2), 2.0, np.array([3.0, 4.0, 0.0]))
    # a scalar is the coordinate in dim 1 and the radius above
    assert ratio_px_p0(builtin_model("cauchy"), 1.0, np.array([2.0])) == \
        ratio_px_p0(builtin_model("cauchy"), 1.0, 2.0)
    assert ratio_px_p0(builtin_model("cauchy", dim=2), 2.0, 5.0) == pytest.approx(
        (4.0 / 29.0) ** 1.5, rel=1e-7)


def test_ratio_px_p0_cauchy_large_time(monkeypatch):
    # two nodes take the point route, which has no wrap: p_t(1) / p_t(0) =
    # t^2 / (t^2 + 1) to 1e-12 at every rung of the ladder
    calls = []
    real = inversion._point_pass
    monkeypatch.setattr(inversion, "_point_pass",
                        lambda *a: calls.append(1) or real(*a))
    for t in (1.0, 10.0, 100.0, 1000.0):
        got = ratio_px_p0(builtin_model("cauchy"), t, 1.0)
        assert got == pytest.approx(t * t / (t * t + 1.0), rel=1e-12, abs=0.0)
    assert len(calls) == 4


@pytest.mark.parametrize("t", [0.52, 0.55, 0.6])
def test_ratio_px_p0_sym_gamma_near_the_threshold(t):
    # (1 + u^2)^{-t} is still far from spent at the point route's 1e12 cap:
    # p_t(0) takes the tail past it, and the ratio is the Bessel-K form's
    m = builtin_model("sym_gamma")
    p0 = inversion.closed_form("sym_gamma_besselk", t, 0.0)
    for x in (0.5, 1.0, 2.0):
        want = inversion.closed_form("sym_gamma_besselk", t, x) / p0
        assert abs(ratio_px_p0(m, t, x) - want) <= 1e-8


def test_ratio_px_p0_refuses_below_the_threshold():
    # sym_gamma has a density only for t > 1/2: the window search runs
    # before the route is chosen, so two nodes still refuse
    with pytest.raises(IntegrabilityRefusal):
        ratio_px_p0(builtin_model("sym_gamma"), 0.45, 1.0)


def test_semigroup_ratio_converges():
    y = np.linspace(-8.0, 8.0, 1601)
    f = np.exp(-y * y)
    obs, target = semigroup_ratio(builtin_model("gaussian"), y, f, 500.0)
    assert target == pytest.approx(math.sqrt(math.pi) / (2.0 * math.pi), rel=1e-6)
    assert obs == pytest.approx(target, rel=1e-2)
    with pytest.raises(UnsupportedModelError):
        semigroup_ratio(builtin_model("gaussian", dim=2), y, f, 1.0)
    with pytest.raises(RangeError):
        semigroup_ratio(builtin_model("gaussian"), y[::-1], f, 1.0)


def test_semigroup_ratio_refuses_when_its_bound_swamps_the_target():
    # stable alpha = 0.5 at t = 1000: the 1601-node density is off by ~25x
    # with tail_bound 1e-4, so the ratio's bound is ~160 times the target
    y = np.linspace(-8.0, 8.0, 1601)
    with pytest.raises(QuadratureError) as exc_info:
        semigroup_ratio(builtin_model("stable", alpha=0.5), y, np.exp(-y * y), 1000.0)
    assert exc_info.value.field == "t" and "field 't'" in str(exc_info.value)
    assert exc_info.value.achieved > 100.0 * math.sqrt(math.pi) / (2.0 * math.pi)


def test_ratio_report_ladder():
    rep = ratio_report(builtin_model("cauchy"), delta=1.0, x=1.0)
    assert rep.t_grid == (1.0, 10.0, 100.0, 1000.0)
    # both ladders approach their limits monotonically
    assert all(a >= b for a, b in zip(rep.tail_mass, rep.tail_mass[1:]))
    assert all(a <= b for a, b in zip(rep.ratios, rep.ratios[1:]))
    assert rep.ratios[-1] == pytest.approx(1.0, abs=1e-5)
    assert rep.limits_expected == {"tail_mass": 0.0, "ratio_px_p0": 1.0}
    d = rep.as_dict()
    assert len(d["ratios"]) == 4


def test_ratio_px_p0_takes_negative_x_in_dim_1():
    # the two-node grid runs upward from x to 0: a symmetric law gives the
    # value at +x, and the drifted gaussian (X_1 ~ N(-1, 2)) its own ratio
    for name, t in (("cauchy", 1.0), ("sym_gamma", 1.45)):
        m = builtin_model(name)
        assert ratio_px_p0(m, t, -1.0) == ratio_px_p0(m, t, 1.0)
    drifted = ModelSpec(1, (1.0,), ((2.0,),), MeasureSpec(variant="none"))
    for x in (-1.0, 1.0):
        want = math.exp(-(x + 1.0) ** 2 / 4.0) / math.exp(-0.25)
        assert ratio_px_p0(drifted, 1.0, x) == pytest.approx(want, rel=1e-12, abs=0.0)
