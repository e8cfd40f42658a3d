"""The Bessel layer against the committed mpmath tables, scipy and exact
identities."""

import json
import math
import pathlib

import numpy as np
import pytest
from scipy import special as sp

from levydens import specfun
from levydens.errors import LevyDensError

# written by scripts/bessel_reference.py (mpmath at 40 digits)
_REF = json.loads((pathlib.Path(__file__).parent / "data" / "bessel_ref.json").read_text())


class TestBesselJ:
    def test_against_scipy(self):
        # rows Gamma(nu+1) (z/2)^{-nu} J_{nu+k}(z), k = 0 .. K-1
        z = np.concatenate([np.geomspace(1e-4, 1.0, 20), np.linspace(1.0, 20.0, 77)])
        for nu in (-0.5, 0.0, 0.5, 1.0, 2.5, 7.0):
            got = specfun.bessel_j_orders(nu, 6, z)
            for k in range(6):
                ref = math.gamma(nu + 1.0) * (0.5 * z) ** -nu * sp.jv(nu + k, z)
                np.testing.assert_allclose(got[k], ref, rtol=1e-13, atol=2e-15)

    def test_at_zero(self):
        # no division by z: at 0 and the smallest subnormal R_0 = H_nu = 1 and
        # R_k = 0 for k >= 1; at 1e-300, R_1 = z / (2 (nu + 1)) and R_2 underflows
        for nu in (-0.5, 0.0, 1.5):
            got = specfun.bessel_j_orders(nu, 4, np.array([0.0, 5e-324, 1e-300]))
            assert np.array_equal(got[0], [1.0, 1.0, 1.0])
            assert np.array_equal(got[1:, :2], np.zeros((3, 2)))
            assert got[1, 2] == pytest.approx(0.5e-300 / (nu + 1.0), rel=1e-15)
            assert np.array_equal(got[2:, 2], [0.0, 0.0])


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

    def test_matches_the_reference_table(self):
        # the recurrence up to z = 20 and Hankel's expansion beyond
        z = np.array(_REF["h"]["z"])
        for nu, want in _REF["h"]["values"].items():
            err = np.abs(specfun.h_kernel_array(float(nu), z) - want)
            assert np.max(err) <= 1e-15, (nu, z[np.argmax(err)])

    def test_tiny_arguments(self):
        z = np.array([0.0, 5e-324, 1e-300, 1e-160, 1e-8])
        for nu in (-0.5, 0.0, 0.5, 1.0, 1.5, 4.5):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                got = specfun.h_kernel_array(nu, z)
            assert np.array_equal(got[:4], np.ones(4))
            assert got[4] == pytest.approx(1.0 - 0.25e-16 / (nu + 1.0), abs=1e-16)

    def test_small_z_expansion(self):
        # 1 - H_nu(z) ~ z^2 / (4 (nu + 1))
        for nu in (0.0, 0.5, 2.0):
            z = 1e-4
            lead = z * z / (4.0 * (nu + 1.0))
            assert 1.0 - specfun.h_kernel(nu, z) == pytest.approx(lead, rel=1e-6)

    def test_array_elements_do_not_depend_on_the_rest(self):
        # each element's recurrence starts at its own order
        z = np.concatenate([np.linspace(0.0, 14.0, 29), [15.0],
                            np.linspace(16.0, 120.0, 27)])
        for nu in (-0.5, 0.0, 0.5, 1.5):
            arr = specfun.h_kernel_array(nu, z)
            for i in range(z.size):
                assert arr[i] == specfun.h_kernel_array(nu, z[i:i + 1])[0]
                assert arr[i] == specfun.h_kernel(nu, float(z[i]))

    def test_order_range(self):
        with pytest.raises(LevyDensError):
            specfun.h_kernel(-0.75, 1.0)
