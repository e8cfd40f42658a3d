"""Characteristic exponents: closed forms, quadrature routes, validation."""

import collections
import math

import numpy as np
import pytest
from scipy.integrate import quad

from levydens import levy_core
from levydens.errors import (
    ModelFormatError,
    NotMonotoneError,
    RangeError,
    UnsupportedModelError,
)
from levydens.levy_core import (
    GAMMA_COMPENSATOR,
    ModelSpec,
    builtin_model,
    eval_psi,
    eval_re_psi,
    g_inverse,
    iso_g,
    quadratic_majorant,
    radial_G,
    radial_tail,
    re_psi_profile,
)
from levydens.diagnostics import classify
from levydens.inversion import invert_grid, pt_zero
from levydens.measures import AtomSpec, MeasureSpec, sphere_surface
from levydens.quadrature import _accelerated
from levydens.radialquad import RadialQuadEngine
from levydens.rearrangement import build_table, nu_dist


def _strip_exact(model: ModelSpec) -> ModelSpec:
    """Same triplet, no attached closed forms: forces the quadrature route."""
    return ModelSpec(dim=model.dim, drift=model.drift, gaussian=model.gaussian,
                     measure=model.measure, isotropic=model.isotropic,
                     name=model.name)


def test_compensator_constant():
    ref, _ = quad(lambda y: math.exp(-y) / (1.0 + y * y), 0.0, np.inf)
    assert GAMMA_COMPENSATOR == pytest.approx(ref, rel=1e-12)


def test_psi_vanishes_at_origin():
    for name in ("gaussian", "cauchy", "sym_gamma", "gamma", "exa4_atoms"):
        assert eval_psi(builtin_model(name), 0.0) == 0.0


def test_gaussian_exponent():
    m = builtin_model("gaussian")
    for xi in (-3.0, 0.5, 7.0):
        assert eval_psi(m, xi) == complex(xi * xi)
    m2 = builtin_model("gaussian", dim=2)
    assert eval_re_psi(m2, [3.0, 4.0]) == pytest.approx(25.0)


def test_stable_exponent_by_quadrature():
    # the jump-measure normalization must reproduce |xi|^alpha without the
    # attached closed form
    for alpha in (0.7, 1.0, 1.5):
        m = _strip_exact(builtin_model("stable", alpha=alpha))
        for xi in (0.3, 1.0, 5.0, 40.0):
            assert eval_re_psi(m, xi) == pytest.approx(xi ** alpha, rel=1e-8)


def test_gamma_exponent_by_quadrature():
    m = _strip_exact(builtin_model("gamma"))
    for xi in (-4.0, -1.0, 0.5, 2.0, 20.0):
        got = eval_psi(m, xi)
        want = complex(0.5 * math.log1p(xi * xi), -math.atan(xi))
        assert got.real == pytest.approx(want.real, rel=1e-8)
        assert got.imag == pytest.approx(want.imag, rel=1e-8, abs=1e-10)


def test_sym_gamma_exponent_by_quadrature():
    m = _strip_exact(builtin_model("sym_gamma"))
    for xi in (0.1, 1.0, 10.0, 100.0):
        assert eval_re_psi(m, xi) == pytest.approx(math.log1p(xi * xi), rel=1e-8)


def test_conjugate_symmetry():
    for m in (_strip_exact(builtin_model("gamma")), builtin_model("exa3_atoms")):
        for xi in (0.7, 3.0, 11.0):
            assert eval_psi(m, -xi) == pytest.approx(eval_psi(m, xi).conjugate())


def test_iso_g_matches_eval_re_psi():
    for name, n in (("tempered_stable", 2), ("truncated_stable", 3)):
        m = builtin_model(name, dim=n)
        for u in (0.5, 2.0, 30.0):
            v = np.zeros(n)
            v[0] = u
            assert iso_g(m, u) == pytest.approx(eval_re_psi(m, v), rel=1e-6)
    with pytest.raises(UnsupportedModelError):
        iso_g(builtin_model("gamma"), 1.0)


def test_re_psi_profile_matches_pointwise():
    m = builtin_model("tempered_stable")
    fn = re_psi_profile(m, 1e4)
    u = np.geomspace(1e-3, 1e3, 25)
    ref = np.array([eval_re_psi(m, x) for x in u])
    np.testing.assert_allclose(fn(u), ref, rtol=1e-6)


def test_point_atoms_enter_the_radial_exponent():
    # in dim 1 a point atom (y, m) adds m (1 - cos(y u)), as the radius atom
    # (|y|, m) does; Q = [[2]] with mass 1/2 at y = +-1 gives
    # p_1(0) = sum_k e^{-1} I_|k|(1) e^{-k^2/4} / sqrt(4 pi)
    atoms = (AtomSpec(mass=0.5, point=(1.0,)), AtomSpec(mass=0.5, point=(-1.0,)))
    m = ModelSpec(1, (0.0,), ((2.0,),), MeasureSpec(variant="atoms", atoms=atoms))
    assert re_psi_profile(m)(np.array([math.pi]))[0] == eval_re_psi(m, [math.pi])
    assert pt_zero(m, 1.0) == pytest.approx(0.23360283637357146, rel=1e-12)
    # in dim 2 a point atom makes Re psi depend on more than |xi|
    planar = ModelSpec(2, (0.0, 0.0), ((2.0, 0.0), (0.0, 2.0)), MeasureSpec(
        variant="atoms", atoms=(AtomSpec(mass=1.0, point=(1.0, 0.0)),)))
    with pytest.raises(UnsupportedModelError, match="measure.atoms"):
        re_psi_profile(planar)


_U_TABLE = np.geomspace(1e-12, 1e14, 2001)


@pytest.mark.parametrize("name", ["tempered_stable", "exa2_logkernel"])
def test_exponent_table_is_history_free(name):
    # one table a model, grown on demand: no earlier call moves a value
    ref = re_psi_profile(builtin_model(name))(_U_TABLE)
    for run in (lambda m: pt_zero(m, 1.0),
                lambda m: invert_grid(m, 1.0, np.linspace(-4.0, 4.0, 41)),
                classify):
        m = builtin_model(name)
        run(m)
        assert np.array_equal(re_psi_profile(m)(_U_TABLE), ref)


def _count_engine_calls(monkeypatch):
    """Count each u element that an engine evaluates, by engine and u."""
    seen = collections.Counter()
    real = RadialQuadEngine.g

    def counted(self, u):
        for x in np.ravel(u).tolist():
            seen[id(self), x] += 1
        return real(self, u)
    monkeypatch.setattr(RadialQuadEngine, "g", counted)
    return seen


def test_table_nodes_are_evaluated_once_per_model(monkeypatch):
    # the four entry points share the model's one table, whose 1,249 nodes
    # span 1e-12 .. 1e14: no node is evaluated twice
    seen = _count_engine_calls(monkeypatch)
    m = builtin_model("tempered_stable")
    classify(m)
    assert sum(seen.values()) <= 1249
    pt_zero(m, 1.0)
    invert_grid(m, 1.0, np.linspace(-4.0, 4.0, 41))
    nu_dist(m, np.array([0.5, 3.0, 50.0]))
    in_table = [c for (_, u), c in seen.items() if 1e-12 <= u <= 1e14]
    assert len(in_table) <= 1249 and max(in_table) == 1


def test_unreachable_table_top_refuses_in_few_engine_calls(monkeypatch):
    # each bracket step evaluates a distinct point once: past the 1e14 cap
    # the walk makes one direct engine call a step (u = 8^k), not one per
    # table node, up to the engine's overflow near |xi| = 4e200, below the
    # level 1e305
    seen = _count_engine_calls(monkeypatch)
    with pytest.raises(RangeError, match="x_max"):
        build_table(builtin_model("tempered_stable"), 1e305)
    past_cap = {u: c for (_, u), c in seen.items() if u > 1e14}
    steps = np.log(list(past_cap)) / math.log(8.0)
    assert max(past_cap.values()) == 1 and np.allclose(steps, np.round(steps), atol=1e-9)
    assert len(past_cap) <= math.ceil(math.log(4.5e200 / 1e14, 8.0)) + 1


def test_warm_pt_zero_makes_no_engine_call(monkeypatch):
    # the table starts at 1e-12, below pt_zero's head decades
    m = builtin_model("tempered_stable")
    first = pt_zero(m, 1.0)
    seen = _count_engine_calls(monkeypatch)
    assert pt_zero(m, 1.0) == first
    assert not seen


def test_g_inverse_roundtrip():
    m = builtin_model("sym_gamma")
    for x in (0.1, 1.0, 5.0):
        s = g_inverse(m, x)
        # g(s) = log(1 + s), so the inverse is e^x - 1
        assert s == pytest.approx(math.expm1(x), rel=1e-9)
    assert g_inverse(m, 0.0) == 0.0
    with pytest.raises(RangeError):
        g_inverse(m, -1.0)
    # past the old s = 1e24 bracket cap
    assert g_inverse(m, 100.0) == pytest.approx(math.expm1(100.0), rel=1e-12)
    with pytest.raises(NotMonotoneError):
        g_inverse(builtin_model("exa3_atoms"), 0.5)
    with pytest.raises(UnsupportedModelError):
        g_inverse(builtin_model("gamma"), 0.5)


def test_quadratic_majorant_bounds_re_psi():
    for name in ("gaussian", "sym_gamma", "tempered_stable", "exa4_atoms"):
        m = builtin_model(name)
        c, d = quadratic_majorant(m, 1.0)
        for xi in np.geomspace(0.01, 1e3, 31):
            assert eval_re_psi(m, float(xi)) <= c * xi * xi + d + 1e-9
    with pytest.raises(RangeError):
        quadratic_majorant(builtin_model("gaussian"), 0.0)


def test_radial_G_stable_value():
    alpha = 1.5
    m = builtin_model("stable", alpha=alpha)
    prof = m.measure.radial_profile(1)
    for r in (0.5, 1.0, 4.0):
        want = -sphere_surface(1) * prof.c * r ** (-alpha) / alpha
        assert radial_G(m, r) == pytest.approx(want, rel=1e-12)
    with pytest.raises(RangeError):
        radial_G(m, 0.0)
    with pytest.raises(UnsupportedModelError):
        radial_G(builtin_model("gamma"), 1.0)


def test_radial_tail_checks_pass():
    tail = radial_tail(builtin_model("stable", alpha=1.2))
    vals = [tail(r) for r in (0.1, 1.0, 10.0)]
    assert all(v <= 0.0 for v in vals)
    assert vals == sorted(vals)


def test_builtin_rejects_bad_input():
    with pytest.raises(ModelFormatError):
        builtin_model("no_such_model")
    with pytest.raises(ModelFormatError):
        builtin_model("gaussian", alpha=2.0)
    with pytest.raises(ModelFormatError):
        builtin_model("gamma", dim=2)
    with pytest.raises(ModelFormatError):
        builtin_model("exa3_atoms", a=1.5)


def test_modelspec_validation():
    none = MeasureSpec(variant="none")
    with pytest.raises(ModelFormatError):
        ModelSpec(dim=2, drift=(0.0,), gaussian=((1.0, 0.0), (0.0, 1.0)),
                  measure=none)
    with pytest.raises(ModelFormatError):
        ModelSpec(dim=2, drift=(0.0, 0.0), gaussian=((1.0, 0.5), (0.2, 1.0)),
                  measure=none)
    with pytest.raises(ModelFormatError):
        ModelSpec(dim=1, drift=(0.0,), gaussian=((-1.0,),), measure=none)
    with pytest.raises(ModelFormatError):
        ModelSpec(dim=1, drift=(1.0,), gaussian=((0.0,),), measure=none,
                  isotropic=True)


@pytest.mark.parametrize("build, field", [
    (lambda: AtomSpec(mass=math.nan, radius=1.0), "measure.atoms"),
    (lambda: AtomSpec(mass=1.0, radius=math.inf), "measure.atoms"),
    (lambda: AtomSpec(mass=1.0, point=(math.nan,)), "measure.atoms"),
    (lambda: ModelSpec(dim=1, drift=(math.nan,), gaussian=((2.0,),),
                       measure=MeasureSpec(variant="none")), "drift"),
    (lambda: ModelSpec(dim=1, drift=(0.0,), gaussian=((math.inf,),),
                       measure=MeasureSpec(variant="none")), "gaussian"),
])
def test_specs_built_in_python_refuse_non_finite_numbers(build, field):
    # as model JSON does: NaN or Infinity in any field is a ModelFormatError
    # naming it, not a model that fails later
    with pytest.raises(ModelFormatError) as exc_info:
        build()
    assert exc_info.value.field == field


def _tail_panel_loop(engine, u, route):
    """The engine's oscillatory tail, int A_n(s) rho(s / u) ds / u from
    s = 30, with one integrand call per pi-panel: the sequential reference
    for the laid-out rows.  Returns (value, whether the panels reached the
    end of the tail, sum of the panels' magnitudes)."""
    prof = engine.profile
    kernel = levy_core._route_kernel(engine.dim, route)
    f = lambda s: kernel(s) * prof.s_density(s, u)
    s_hi = u * prof.support[1]
    x12, w12 = np.polynomial.legendre.leggauss(12)
    terms, s, leftover, complete = [], 30.0, 0.0, False
    for _ in range(240):
        s_next = min(s + math.pi, s_hi)
        mid, half = 0.5 * (s + s_next), 0.5 * (s_next - s)
        terms.append(half * float(np.dot(w12, f(mid + half * x12))))
        s = s_next
        leftover = 0.0 if s >= s_hi else prof.tail_mass(s / u)
        if leftover < 1e-16:
            complete = True
            break
    arr = np.asarray(terms)
    scale = float(np.sum(np.abs(arr)))
    if complete:
        return float(np.sum(arr)), True, scale
    return float(_accelerated(arr)[0]), False, scale


@pytest.mark.parametrize("name, kw, u, complete", [
    ("tempered_stable", {"dim": 1}, 30.0, False),
    ("tempered_stable", {"dim": 3}, 30.0, False),
    ("tempered_stable", {"dim": 3}, 300.0, False),
    ("exa2_logkernel", {}, 3000.0, False),
    ("exa2_logkernel", {}, 300.0, True),            # the panels reach r = 1
    ("tempered_stable", {"dim": 2}, 0.5, True),     # the tail mass runs out
])
@pytest.mark.parametrize("route", ["avg", "h"])
def test_oscillatory_tail_matches_the_panel_loop(name, kw, u, complete, route):
    engine = builtin_model(name, **kw)._engine(route)
    want, reached, scale = _tail_panel_loop(engine, u, route)
    assert reached == complete
    v = np.array([u])
    got = engine._tail_rows(v, v * engine.profile.support[0], v * engine.profile.support[1])[0]
    # a block of panels sums each panel's 12 node products in another order
    # than a one-row dot product, which moves a panel by up to ~12 eps of
    # its magnitude; in dim 3 the tail is a small difference of its panels,
    # up to 2e-14 of the tail itself, so the bound is on the panels' sum
    assert abs(got - want) <= 12.0 * np.finfo(float).eps * scale


_U_ORACLE = np.geomspace(1e-3, 1e9, 41)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stable_engine_meets_its_oracle(alpha, dim):
    # both kernels by quadrature against psi = u^alpha, from the Taylor
    # region (u = 1e-3) to the accelerated tails (u = 1e9)
    m = _strip_exact(builtin_model("stable", alpha=alpha, dim=dim))
    want = _U_ORACLE ** alpha
    np.testing.assert_allclose(levy_core._re_psi_radial_fn(m)(_U_ORACLE), want, rtol=1e-13)
    np.testing.assert_allclose(iso_g(m, _U_ORACLE), want, rtol=1e-13)


def test_sym_gamma_engine_meets_log1p():
    # the Taylor moments gamma(p, r0) / r0^p come from their series, with no
    # cancellation at small r0
    m = _strip_exact(builtin_model("sym_gamma"))
    got = levy_core._re_psi_radial_fn(m)(_U_ORACLE)
    np.testing.assert_allclose(got, np.log1p(_U_ORACLE ** 2), rtol=1e-11)


def _table_model():
    r = np.geomspace(1e-3, 10.0, 40)
    rho = r ** -2.2 * np.exp(-r) * (1.0 + 0.3 * np.sin(3.0 * np.log(r)))
    return ModelSpec(1, (0.0,), ((0.0,),), MeasureSpec(
        variant="table", r_nodes=tuple(r), rho_values=tuple(rho)), isotropic=True)


@pytest.mark.parametrize("u", [5e5, 1e6])
def test_table_tail_starts_at_the_support(u):
    # u r_lo > 30: the half-period panels start at the support, not in the
    # empty gap below it, which from u r_lo = 30 + 240 pi they never crossed;
    # the reference integrates the interpolant segment by segment
    prof = _table_model().measure.radial_profile(1)
    dens = lambda r: float(prof.density(np.array([r]))[0])
    r = prof.r_nodes
    want = math.fsum(quad(dens, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     - quad(dens, a, b, weight="cos", wvar=u, epsabs=0.0, epsrel=1e-13,
                            limit=400)[0] for a, b in zip(r[:-1], r[1:]))
    got = _table_model()._engine("h").g(np.array([u]))[0]
    assert got == pytest.approx(want, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("build", [
    lambda: builtin_model("tempered_stable", dim=2),
    lambda: builtin_model("truncated_stable", dim=3),
    lambda: builtin_model("exa2_logkernel"),
    _table_model,                        # the support cuts panels at both ends
], ids=["tempered_stable-d2", "truncated_stable-d3", "exa2_logkernel", "table"])
@pytest.mark.parametrize("route", ["avg", "h"])
def test_engine_values_are_batch_independent(build, route):
    # no u's value depends on the other u of its call, nor on which call
    # first evaluated the kernel on a panel
    u = np.geomspace(1e-3, 1e9, 41)
    alone = build()._engine(route)
    single = [alone.g(u[i:i + 1])[0] for i in reversed(range(u.size))][::-1]
    assert np.array_equal(build()._engine(route).g(u), single)


def test_dim2_table_evaluates_the_kernel_once_per_node(monkeypatch):
    # the direction average's 800-node sum runs once per engine on each
    # layout node (3,568 for an unbounded support), not once per u
    sizes = []
    real = levy_core.sphere_avg_cos
    monkeypatch.setattr(levy_core, "sphere_avg_cos",
                        lambda n, s: sizes.append(np.size(s)) or real(n, s))
    re_psi_profile(builtin_model("tempered_stable", dim=2), 1e9)
    assert 0 < sum(sizes) <= 4000


def test_engine_exponent_stays_finite_far_out():
    # the Taylor region takes its moments over r0^p, so no u^4 overflows;
    # far out the tempering no longer shows and Re psi = u^1.5
    m = builtin_model("tempered_stable")
    u = np.geomspace(1e78, 1e200, 13)
    got = [eval_psi(m, x) for x in u]
    assert all(v.imag == 0.0 for v in got)
    np.testing.assert_allclose([v.real for v in got], u ** 1.5, rtol=1e-13)
    # past the float range, or at a NaN: a typed error naming the frequency
    for xi in (1e250, math.nan):
        with pytest.raises(RangeError, match="xi"):
            eval_psi(m, xi)
