"""README's two independence rules, checked by tracing calls.

* The Laplace route (``pt0_laplace``, ``nu_dist``, ``nu_inverse``) shares no
  xi-quadrature code with the Fourier route: it calls nothing in
  ``inversion``, and it reaches ``quadrature`` only through the radial
  exponent engine, whose code any route may share.  That holds on the
  counted route (the shells) too.
* The cosine-average exponent route (``eval_re_psi``) calls no Bessel code
  in ``specfun``; the Bessel-kernel route (``iso_g``) does.

Calls are traced, not imports: ``levy_core`` imports ``specfun`` for
``iso_g``.
"""

import pathlib
import sys

import numpy as np
import pytest

from levydens import inversion, quadrature, radialquad, specfun
from levydens.levy_core import builtin_model, eval_re_psi, iso_g, re_psi_profile
from levydens.rearrangement import nu_dist, nu_inverse, pt0_laplace


def _calls_into(modules, fn, *args):
    """Run fn(*args); return (module file, function name, files on its
    caller stack) for every function of ``modules`` that it calls."""
    targets = {m.__file__ for m in modules}
    hits = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in targets:
            stack = []
            caller = frame.f_back
            while caller is not None:
                stack.append(caller.f_code.co_filename)
                caller = caller.f_back
            hits.append((frame.f_code.co_filename, frame.f_code.co_name, stack))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return hits


def _laplace_route(model):
    pt0_laplace(model, 1.0)
    # the second threshold lies past the exponent table (u up to 1e9), so
    # a quadrature-backed model evaluates it through the engine
    nu_dist(model, np.array([2.0, 3e14]))


@pytest.mark.parametrize("name, kw", [
    ("gaussian", {}),
    ("cauchy", {}),
    ("stable", {"alpha": 1.5}),
    ("cauchy", {"dim": 3}),
])
def test_laplace_route_closed_form_reaches_no_fourier_code(name, kw):
    model = builtin_model(name, **kw)
    assert _calls_into((inversion, quadrature), _laplace_route, model) == []


def test_counted_route_reaches_no_fourier_code():
    # exa4_atoms has no monotone radial profile, so nu is counted on the
    # shells; its counts stay finite below x = 3.5
    model = builtin_model("exa4_atoms")

    def counted_route(m):
        nu_dist(m, np.array([0.05, 0.5, 3.0]))
        nu_inverse(m, 10.0)

    assert _calls_into((inversion, quadrature), counted_route, model) == []
    assert len(model._cache["shells"]) == 3


def test_laplace_route_reaches_quadrature_only_through_the_engine():
    model = builtin_model("truncated_stable")
    re_psi_profile(model, 1e9)          # the table build is not traced
    hits = _calls_into((inversion, quadrature), _laplace_route, model)
    assert hits                          # the engine's panels are reached
    outside = [name for path, name, stack in hits
               if path == inversion.__file__ or radialquad.__file__ not in stack]
    assert outside == []


@pytest.mark.parametrize("name, dim", [("truncated_stable", 3), ("tempered_stable", 1)])
def test_cosine_route_reaches_no_bessel_code(name, dim):
    model = builtin_model(name, dim=dim)

    def cosine_route():
        for u in (1e-4, 0.7, 5.0, 60.0):
            eval_re_psi(model, [u] + [0.0] * (dim - 1))

    assert _calls_into((specfun,), cosine_route) == []
    # positive control: the Bessel-kernel route is seen by the same trace
    called = {name for _, name, _ in _calls_into((specfun,), iso_g, model, 5.0)}
    assert "h_kernel_array" in called


def test_gauss_legendre_tables_live_in_two_modules():
    src = pathlib.Path(quadrature.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "leggauss(" in p.read_text())
    assert users == ["quadrature.py", "rearrangement.py"]
