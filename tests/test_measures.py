"""Jump-measure variants: geometry constants, moments, validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from levydens.errors import ModelFormatError
from levydens.measures import (
    AtomSpec,
    LogKernelProfile,
    MeasureSpec,
    PowerLawProfile,
    TableProfile,
    TemperedPowerLawProfile,
    ball_volume,
    sphere_surface,
    stable_density_constant,
)


def test_geometry_constants():
    assert sphere_surface(1) == pytest.approx(2.0)
    assert sphere_surface(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface(3) == pytest.approx(4.0 * math.pi)
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_stable_constant_cauchy_value():
    # alpha = 1 in dim 1: nu(dy) = (1/pi) y^{-2} dy gives psi = |xi|
    assert stable_density_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    with pytest.raises(ModelFormatError):
        stable_density_constant(1, 2.0)
    with pytest.raises(ModelFormatError):
        stable_density_constant(1, 0.0)


def _profile(variant_kwargs, dim=1):
    return MeasureSpec(**variant_kwargs).radial_profile(dim)


def _moment(prof, p, r0):
    """int_0^{r0} r^p rho(r) dr from the profile's moment over r0^p."""
    return r0 ** p * float(prof.scaled_moment(p, np.array([float(r0)]))[0])


@pytest.mark.parametrize("kwargs", [
    {"variant": "family", "family": "stable", "params": {"alpha": 1.5}},
    {"variant": "family", "family": "tempered_stable",
     "params": {"alpha": 1.2, "lam": 2.0}},
    {"variant": "family", "family": "truncated_stable",
     "params": {"alpha": 0.8, "R": 1.5}},
    {"variant": "family", "family": "log_kernel"},
    {"variant": "family", "family": "gamma_type"},
])
def test_profile_moments_match_quadrature(kwargs):
    prof = _profile(kwargs)
    lo, hi = prof.support
    a = max(lo, 1e-12)
    for r0 in (0.25, 0.9):
        want, _ = quad(lambda r: r * r * float(prof.density(np.array([r]))[0]),
                       a, r0, limit=200)
        assert _moment(prof, 2, r0) == pytest.approx(want, rel=1e-8)
        want4, _ = quad(lambda r: r ** 4 * float(prof.density(np.array([r]))[0]),
                        a, r0, limit=200)
        assert _moment(prof, 4, r0) == pytest.approx(want4, rel=1e-8)
    b = hi if math.isfinite(hi) else np.inf
    for r in (0.5, 0.99):
        want, _ = quad(lambda s: float(prof.density(np.array([s]))[0]),
                       r, b, limit=200)
        assert prof.tail_mass(r) == pytest.approx(want, rel=1e-7)


def test_levy_integrability_finite():
    prof = _profile({"variant": "family", "family": "stable",
                     "params": {"alpha": 1.5}})
    assert math.isfinite(prof.levy_integrability_check())


def test_table_profile_interpolates_nodes():
    r = (0.5, 1.0, 2.0)
    v = (4.0, 1.0, 0.25)
    prof = MeasureSpec(variant="table", r_nodes=r, rho_values=v,
                       interp="loglog").radial_profile(1)
    got = prof.density(np.array(r))
    np.testing.assert_allclose(got, v, rtol=1e-12)
    # log-log interpolation of an exact power law is exact between nodes
    assert float(prof.density(np.array([math.sqrt(0.5)]))[0]) == pytest.approx(
        2.0, rel=1e-12)


def test_table_profile_linear_variant():
    prof = MeasureSpec(variant="table", r_nodes=(1.0, 2.0),
                       rho_values=(1.0, 3.0), interp="linear").radial_profile(1)
    assert float(prof.density(np.array([1.5]))[0]) == pytest.approx(2.0)


def test_loglog_table_integrates_its_power_law_exactly():
    # sampled from c r^(-1-alpha), the loglog interpolant is that power law,
    # so the tail mass and the moments counted from the first node are the
    # closed forms of the truncated stable profile
    c, alpha = 1.7, 1.3
    r = np.geomspace(1e-3, 20.0, 60)
    table = TableProfile(tuple(r), tuple(c * r ** (-1.0 - alpha)))
    power = PowerLawProfile(c, alpha, float(r[-1]))
    for x in np.geomspace(1.3e-3, 19.0, 23):
        assert table.tail_mass(x) == pytest.approx(power.tail_mass(x), rel=1e-14)
        want2 = _moment(power, 2, x) - _moment(power, 2, r[0])
        assert _moment(table, 2, x) == pytest.approx(want2, rel=1e-14)
        want4 = _moment(power, 4, x) - _moment(power, 4, r[0])
        assert _moment(table, 4, x) == pytest.approx(want4, rel=1e-14)


def _linear_integral(nodes, values, p, a, b):
    """int_a^b r^p rho(r) dr of the piecewise linear rho, in exact rationals."""
    total = Fraction(0)
    for r0, r1, v0, v1 in zip(nodes, nodes[1:], values, values[1:]):
        lo, hi = max(a, r0), min(b, r1)
        if lo < hi:
            slope = (v1 - v0) / (r1 - r0)
            # r^p (v0 - slope r0 + slope r)
            F = lambda r: ((v0 - slope * r0) * r ** (p + 1) / (p + 1)
                           + slope * r ** (p + 2) / (p + 2))
            total += F(hi) - F(lo)
    return total


def test_linear_table_integrates_exactly():
    nodes = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
    values = [Fraction(2), Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2)]
    table = TableProfile(tuple(map(float, nodes)), tuple(map(float, values)), "linear")
    lo, hi = nodes[0], nodes[-1]
    for x in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(3, 4),
              Fraction(5, 4), Fraction(2), Fraction(3)):
        want0 = float(_linear_integral(nodes, values, 0, x, hi))
        assert table.tail_mass(float(x)) == pytest.approx(want0, rel=1e-14, abs=0.0)
        want2 = float(_linear_integral(nodes, values, 2, lo, x))
        assert _moment(table, 2, float(x)) == pytest.approx(want2, rel=1e-14, abs=0.0)
        want4 = float(_linear_integral(nodes, values, 4, lo, x))
        assert _moment(table, 4, float(x)) == pytest.approx(want4, rel=1e-14, abs=0.0)
    # outside the support: all the mass, or none of it
    assert table.tail_mass(0.1) == table.tail_mass(0.25)
    assert table.tail_mass(3.0) == table.tail_mass(7.0) == 0.0
    assert _moment(table, 2, 0.1) == 0.0


@pytest.mark.parametrize("prof", [
    PowerLawProfile(1.3, 1.5),
    PowerLawProfile(0.8, 0.7, 2.0),
    TemperedPowerLawProfile(1.2, 1.5, 1.0),
    TemperedPowerLawProfile(1.2, 0.5, 2.0),
    LogKernelProfile(),
    pytest.param(TemperedPowerLawProfile(2.0, 0.0, 1.0), id="GammaTypeProfile"),
    TableProfile((0.1, 0.5, 1.0, 2.0, 3.5), (2.0, 0.0, 1.0, 3.0, 0.5), "loglog"),
    TableProfile((0.1, 0.5, 1.0, 2.0, 3.5), (2.0, 0.0, 1.0, 3.0, 0.5), "linear"),
], ids=lambda p: type(p).__name__)
def test_tail_mass_on_an_array_is_its_scalar_calls(prof):
    r = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 1e3, 400),
                        [0.1, 0.5, 1.0, 2.0, 3.5, math.inf]])
    got = prof.tail_mass(r)
    assert isinstance(prof.tail_mass(0.5), float)
    assert np.array_equal(got, [prof.tail_mass(float(x)) for x in r])
    assert np.array_equal(prof.tail_mass(r.reshape(2, -1)), got.reshape(2, -1))


def test_atom_spec_validation():
    AtomSpec(mass=1.0, radius=0.5)
    AtomSpec(mass=1.0, point=(1.0, 0.0))
    with pytest.raises(ModelFormatError):
        AtomSpec(mass=1.0)
    with pytest.raises(ModelFormatError):
        AtomSpec(mass=1.0, radius=0.5, point=(1.0,))
    with pytest.raises(ModelFormatError):
        AtomSpec(mass=-1.0, radius=0.5)


def test_measure_spec_validation():
    with pytest.raises(ModelFormatError):
        MeasureSpec(variant="bogus")
    with pytest.raises(ModelFormatError):
        MeasureSpec(variant="family", family="bogus_family")


def test_radiality_flags():
    assert MeasureSpec(variant="none").is_radial
    assert MeasureSpec(variant="family", family="stable",
                       params={"alpha": 1.0}).is_radial
    assert not MeasureSpec(variant="family", family="gamma_type",
                           onesided=True).is_radial
    radial_atoms = MeasureSpec(variant="atoms",
                               atoms=(AtomSpec(mass=1.0, radius=1.0),))
    assert radial_atoms.is_radial
    point_atoms = MeasureSpec(variant="atoms",
                              atoms=(AtomSpec(mass=1.0, point=(1.0,)),))
    assert not point_atoms.is_radial
