"""README's two independence rules, checked by tracing calls.

* The Laplace route (``pt0_laplace``, ``nu_dist``, ``nu_inverse``) shares no
  xi-quadrature code with the Fourier route: it calls nothing in
  ``inversion``, and it reaches ``quadrature`` only through the radial
  exponent engine, whose code any route may share.  That holds on the
  counted route (the shells) too.  In the other direction, the Fourier
  point route calls nothing in ``rearrangement``.
* The cosine-average exponent route (``eval_re_psi``) calls no Bessel code
  in ``specfun``; the Bessel-kernel route (``iso_g``) does.

Calls are traced, not imports: ``levy_core`` imports ``specfun`` for
``iso_g``.
"""

import ast
import pathlib
import re
import sys

import numpy as np
import pytest

from levydens import inversion, quadrature, radialquad, rearrangement, specfun
from levydens.levy_core import builtin_model, eval_re_psi, iso_g, re_psi_profile
from levydens.ratio_limit import ratio_px_p0
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
    # the second threshold lies past the exponent table (u up to 1e14), so
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


@pytest.mark.parametrize("name, kw", [("cauchy", {}), ("stable", {"alpha": 1.3})])
def test_point_route_reaches_no_laplace_code(name, kw):
    model = builtin_model(name, **kw)
    hits = _calls_into((inversion, rearrangement), ratio_px_p0, model, 1.0, 2.0)
    assert "_point_pass" in {fn for _, fn, _ in hits}      # the point route ran
    assert [fn for path, fn, _ in hits if path == rearrangement.__file__] == []


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


def test_half_period_tail_lives_in_quadrature():
    # one oscillatory radial tail: only quadrature knows its panel cap, its
    # GL-12 nodes and the acceleration
    src = pathlib.Path(quadrature.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"_accelerated|_OSC_PANELS|_gl12_", p.read_text()))
    assert users == ["quadrature.py"]


def test_routes_read_the_triplet_not_the_isotropic_field():
    # the isotropic field is an assertion checked against the triplet: only
    # ModelSpec's validation and modelio's serialisation read it
    src = pathlib.Path(quadrature.__file__).parent
    readers = set()
    for p in src.glob("*.py"):
        tree = ast.parse(p.read_text())
        fns = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "isotropic":
                inner = [f for f in fns if f.lineno <= node.lineno <= f.end_lineno]
                readers.add(f"{p.name}:{max(inner, key=lambda f: f.lineno).name if inner else ''}")
    assert sorted(readers) == ["levy_core.py:__post_init__", "modelio.py:model_to_dict"]


def test_bessel_j_comes_from_specfun_alone():
    # one Bessel layer: no module calls scipy's J family; the recurrence in
    # specfun serves H_nu and the Filon moments (scipy's kv in closed_form
    # is K, not J)
    src = pathlib.Path(quadrature.__file__).parent
    j_family = {"jv", "jve", "jn", "j0", "j1", "spherical_jn"}
    calls = sorted(
        f"{p.name}:{node.lineno}" for p in src.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in j_family)
    assert calls == []


def test_only_levy_core_picks_the_exponent_table_range():
    # re_psi_profile's one table grows on demand: no other module passes a
    # second argument, so the table's range stays decided in levy_core
    src = pathlib.Path(quadrature.__file__).parent
    ranged = sorted(
        f"{p.name}:{node.lineno}" for p in src.glob("*.py") if p.name != "levy_core.py"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and len(node.args) + len(node.keywords) > 1
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "re_psi_profile")
    assert ranged == []


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs here: every name a module imports is read in it or
    # listed in its __all__ (``from __future__`` imports are directives)
    src = pathlib.Path(quadrature.__file__).parent
    unused = []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {c.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        unused += [f"{p.name}:{alias.asname or alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert unused == []


def test_one_function_forms_the_dft_sums():
    # both 1-d DFT routes run one pass: in inversion only the chirp-z plan's
    # methods and _sums_at, which picks between the fold and the plan, run
    # a transform
    tree = ast.parse(pathlib.Path(inversion.__file__).read_text())
    callers = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "attr", getattr(child.func, "id", None)) in ("fft", "ifft", "rfft"):
                callers.add(scope.rstrip("."))
            walk(child, scope)
    walk(tree, "")
    assert sorted(callers) == ["_Zoom.__init__", "_Zoom.run", "_sums_at"]
