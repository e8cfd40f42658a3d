"""Special functions against scipy references and exact identities."""

import math

import numpy as np
import pytest
from scipy import special as sp

from levydens import specfun
from levydens.errors import LevyDensError


class TestGammaFn:
    def test_against_math_gamma(self):
        for x in np.concatenate([np.linspace(0.05, 0.95, 10),
                                 np.linspace(1.0, 30.0, 40)]):
            assert specfun.gamma_fn(float(x)) == pytest.approx(
                math.gamma(float(x)), rel=1e-12)

    def test_reflection_negative(self):
        for x in (-0.5, -1.5, -2.3, -7.7):
            assert specfun.gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-11)

    def test_poles_raise(self):
        for x in (0.0, -1.0, -5.0):
            with pytest.raises(ValueError):
                specfun.gamma_fn(x)


class TestBesselJ:
    def test_against_scipy(self):
        z = np.concatenate([np.geomspace(1e-4, 11.0, 40),
                            np.linspace(12.0, 200.0, 60)])
        for nu in (-0.5, 0.0, 0.5, 1.0, 2.5, 7.0):
            for zz in z:
                res = specfun.bessel_j(nu, float(zz))
                ref = sp.jv(nu, float(zz))
                assert res.value == pytest.approx(ref, rel=2e-10, abs=2e-12)

    def test_error_estimate_honest(self):
        # reported estimates must actually bound the observed error
        for nu in (0.0, 1.0, 3.5):
            for zz in np.linspace(0.1, 100.0, 37):
                res = specfun.bessel_j(nu, float(zz))
                err = abs(res.value - sp.jv(nu, float(zz)))
                assert err <= max(10.0 * res.est_error, 1e-13)

    def test_at_zero(self):
        assert specfun.bessel_j(0.0, 0.0).value == 1.0
        assert specfun.bessel_j(1.5, 0.0).value == 0.0

    def test_method_switch(self):
        assert specfun.bessel_j(0.0, 1.0).method == "series"
        assert specfun.bessel_j(0.0, 50.0).method == "asymptotic"

    def test_invalid_args(self):
        with pytest.raises(LevyDensError):
            specfun.bessel_j(-1.0, 1.0)
        with pytest.raises(LevyDensError):
            specfun.bessel_j(0.0, -1.0)


class TestBesselK:
    def test_against_scipy(self):
        z = np.concatenate([np.geomspace(1e-3, 6.0, 40),
                            np.linspace(6.5, 60.0, 40)])
        for nu in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7):
            for zz in z:
                res = specfun.bessel_k(nu, float(zz))
                ref = sp.kv(nu, float(zz))
                assert res.value == pytest.approx(ref, rel=5e-9)

    def test_symmetry_in_order(self):
        assert specfun.bessel_k(-1.5, 2.0).value == specfun.bessel_k(1.5, 2.0).value

    def test_half_integer_closed_form(self):
        for zz in (0.5, 1.0, 10.0, 100.0):
            ref = math.sqrt(0.5 * math.pi / zz) * math.exp(-zz)
            res = specfun.bessel_k(0.5, zz)
            assert res.value == pytest.approx(ref, rel=1e-14)
            assert res.method == "recurrence"

    def test_underflow_far_tail(self):
        assert specfun.bessel_k(1.0, 800.0).value == 0.0

    def test_invalid_args(self):
        with pytest.raises(LevyDensError):
            specfun.bessel_k(0.5, 0.0)


class TestHKernel:
    def test_reductions(self):
        # H_{-1/2} = cos, H_{1/2} = sinc
        for s in np.linspace(1e-3, 60.0, 101):
            assert specfun.h_kernel(-0.5, float(s)) == pytest.approx(
                math.cos(s), abs=1e-11)
            assert specfun.h_kernel(0.5, float(s)) == pytest.approx(
                math.sin(s) / s, abs=1e-11)

    def test_normalization_exact(self):
        for nu in (-0.5, 0.0, 0.5, 1.0, 4.5):
            assert specfun.h_kernel(nu, 0.0) == 1.0

    def test_even_in_z(self):
        assert specfun.h_kernel(1.0, -3.0) == specfun.h_kernel(1.0, 3.0)

    def test_against_scipy(self):
        z = np.concatenate([np.linspace(0.05, 80.0, 91), np.linspace(0.5, 14.0, 28),
                            np.linspace(16.0, 120.0, 27)])
        for nu in (0.0, 0.5, 1.0, 1.5, 2.5):
            for s in z:
                ref = (2.0 / s) ** nu * math.gamma(nu + 1.0) * sp.jv(nu, s)
                assert specfun.h_kernel(nu, float(s)) == pytest.approx(
                    ref, rel=1e-9, abs=1e-11)

    def test_small_z_expansion(self):
        # 1 - H_nu(z) ~ z^2 / (4 (nu + 1))
        for nu in (0.0, 0.5, 2.0):
            z = 1e-4
            lead = z * z / (4.0 * (nu + 1.0))
            assert 1.0 - specfun.h_kernel(nu, z) == pytest.approx(lead, rel=1e-6)

    def test_array_elements_do_not_depend_on_the_rest(self):
        # each element's series stops at its own first term under eps
        z = np.concatenate([np.linspace(0.0, 14.0, 29), [15.0],
                            np.linspace(16.0, 120.0, 27)])
        for nu in (-0.5, 0.0, 0.5, 1.5):
            arr = specfun.h_kernel_array(nu, z)
            for i in range(z.size):
                assert arr[i] == specfun.h_kernel_array(nu, z[i:i + 1])[0]
                assert arr[i] == specfun.h_kernel(nu, float(z[i]))

    def test_series_matches_the_scalar_series(self):
        # for z <= 15 each element runs sum_k (-1)^k (z^2/4)^k / (k! (nu+1)_k)
        # through its first term under eps, as one scalar loop would
        def scalar(nu, z):
            q, term, acc, k = 0.25 * z * z, 1.0, 1.0, 0
            while True:
                k += 1
                term *= -q / (k * (nu + k))
                acc += term
                if abs(term) < 2.2204460492503131e-16 or k > 400:
                    return acc
        z = np.linspace(0.0, 15.0, 301)
        for nu in (-0.5, 0.0, 1.5):
            want = [scalar(nu, float(s)) for s in z]
            assert np.array_equal(specfun.h_kernel_array(nu, z[::-1])[::-1], want)

    def test_order_range(self):
        with pytest.raises(LevyDensError):
            specfun.h_kernel(-0.75, 1.0)
