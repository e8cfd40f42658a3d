"""Acceptance suite: one pass/fail check per shipped guarantee.

Each criterion is a function returning (ok, detail).  ``run_all`` prints one
line per criterion and returns a process exit code; the pytest suite wraps
the same functions so the CLI selftest and the test run agree by
construction.  Criteria marked ``expected_fail`` encode documented
limitations: they fail today, and the runner treats an unexpected pass as an
error so the limitation cannot silently go stale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import IntegrabilityRefusal
from .levy_core import ModelSpec, _re_psi_radial_fn, builtin_model, iso_g
from .measures import MeasureSpec
from . import asymptotics, diagnostics, inversion, ratio_limit, rearrangement, specfun


def criterion_golden_densities() -> Tuple[bool, str]:
    """Grid inversion against closed-form densities, under 5 seconds."""
    t0 = time.time()
    xs = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    worst = {}
    for name, tol in (("gaussian", 1e-8), ("cauchy", 1e-6)):
        model = builtin_model(name)
        for t in (0.5, 1.0, 2.0):
            f = inversion.invert_grid(model, t, xs)
            ref = np.array([inversion.closed_form(name, t, x) for x in xs])
            err = float(np.max(np.abs(f.values - ref)))
            worst[f"{name} t={t}"] = (err, tol)
    sg = builtin_model("sym_gamma")
    f = inversion.invert_grid(sg, 1.0, xs)
    ref = np.array([inversion.closed_form("laplace", 1.0, x) for x in xs])
    worst["sym_gamma t=1"] = (float(np.max(np.abs(f.values - ref))), 1e-6)
    f = inversion.invert_grid(sg, 2.0, xs)
    ref = np.array([inversion.closed_form("sym_gamma_besselk", 2.0, x) for x in xs])
    worst["sym_gamma t=2"] = (float(np.max(np.abs(f.values - ref))), 1e-6)
    xg = np.arange(0.25, 5.0 + 1e-9, 0.0125)
    f = inversion.invert_grid(builtin_model("gamma"), 2.0, xg)
    ref = np.array([inversion.closed_form("gamma", 2.0, x) for x in xg])
    worst["gamma t=2"] = (float(np.max(np.abs(f.values - ref))), 1e-5)
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v[0] > v[1]}
    top = max(worst.items(), key=lambda kv: kv[1][0] / kv[1][1])
    ok = not bad and elapsed < 5.0
    return ok, (f"worst {top[0]}: {top[1][0]:.2e} (tol {top[1][1]:.0e}), "
                f"{elapsed:.1f}s" + (f"; FAILING {sorted(bad)}" if bad else ""))


def criterion_pipeline_equivalence() -> Tuple[bool, str]:
    """pt_zero vs the Laplace-rearrangement route; radial vs grid inversion."""
    pairs = [(builtin_model("gaussian"), 1.0), (builtin_model("cauchy"), 1.0),
             (builtin_model("stable", alpha=1.5), 1.0)]
    sg = builtin_model("sym_gamma")
    pairs += [(sg, 0.75), (sg, 1.0), (sg, 2.0)]
    worst_rel = 0.0
    for model, t in pairs:
        a = inversion.pt_zero(model, t)
        b = rearrangement.pt0_laplace(model, t)
        worst_rel = max(worst_rel, abs(a - b) / abs(b))
    xs = np.arange(0.0, 5.0 + 1e-9, 0.01)
    worst_abs = 0.0
    for model in (builtin_model("gaussian"), builtin_model("cauchy")):
        fr = inversion.invert_radial(model, 1.0, xs)
        fg = inversion.invert_grid(model, 1.0, xs)
        worst_abs = max(worst_abs, float(np.max(np.abs(fr.values - fg.values))))
    ok = worst_rel <= 1e-6 and worst_abs <= 1e-8
    return ok, (f"pt_zero vs Laplace rel {worst_rel:.2e} (tol 1e-6); "
                f"radial vs grid {worst_abs:.2e} (tol 1e-8)")


def criterion_radial_formula_oracle() -> Tuple[bool, str]:
    """Bessel-kernel radial exponent vs direct jump-measure quadrature."""
    worst = 0.0
    u_grid = np.geomspace(0.1, 100.0, 17)
    for fam, kw in (("stable", {"alpha": 1.5}), ("tempered_stable", {}),
                    ("truncated_stable", {})):
        for n in (1, 2, 3):
            model = builtin_model(fam, dim=n, **kw)
            b = _re_psi_radial_fn(model)(u_grid)
            worst = max(worst, float(np.max(np.abs(iso_g(model, u_grid) - b) / np.abs(b))))
    return worst <= 1e-6, f"max rel diff {worst:.2e} (tol 1e-6)"


def criterion_logkernel_functionals() -> Tuple[bool, str]:
    """Truncated-moment oracle and quotient growth for the log-kernel model."""
    model = builtin_model("exa2_logkernel")
    rep = diagnostics.kallenberg_functional(model, (10, 30))
    k = np.arange(10, 31)
    oracle = 1.0 + 1.0 / (2.0 * k * math.log(2.0))
    err = float(np.max(np.abs(rep.values - oracle)))
    hw = diagnostics.hw_functional(model)
    # quotient growing linearly in ln|xi| is the signature of ln^2 growth
    lx = np.log(hw.probe_grid)
    slope, intercept = np.polyfit(lx, hw.values, 1)
    fit = slope * lx + intercept
    r2 = 1.0 - float(np.sum((hw.values - fit) ** 2) /
                     np.sum((hw.values - np.mean(hw.values)) ** 2))
    ok = err <= 1e-3 and rep.verdict == "bounded" and \
        hw.verdict == "diverges" and slope > 0.0 and r2 > 0.99
    return ok, (f"moment oracle err {err:.2e} (tol 1e-3), verdict {rep.verdict}; "
                f"quotient vs ln|xi|: slope {slope:.3f}, R^2 {r2:.5f}, "
                f"verdict {hw.verdict}")


def compound_poisson_model() -> ModelSpec:
    """Finite jump measure with a smooth radial density on [0.5, 2]."""
    r = tuple(np.linspace(0.5, 2.0, 9))
    meas = MeasureSpec(variant="table", r_nodes=r, rho_values=(1.0,) * 9,
                       interp="linear")
    return ModelSpec(dim=1, drift=(0.0,), gaussian=((0.0,),), measure=meas,
                     isotropic=True, name="compound_poisson")


def criterion_tail_mass_equivalence() -> Tuple[bool, str]:
    """Quotient-at-infinity and tail-mass verdicts agree on four models."""
    models = [builtin_model("stable", alpha=1.5),
              builtin_model("truncated_stable"),
              builtin_model("exa2_logkernel"),
              compound_poisson_model()]
    rows = []
    agree = 0
    for m in models:
        hw = diagnostics.hw_functional(m).verdict
        tm = diagnostics.tail_mass_functional(m).verdict
        kal = diagnostics.kallenberg_functional(m).verdict
        agree += hw == tm
        rows.append(f"{m.name}: hw={hw} tail={tm} (kal={kal})")
    return agree == 4, f"{agree}/4 agree; " + "; ".join(rows)


def criterion_dyadic_atoms_necessity() -> Tuple[bool, str]:
    """Dyadic-atom exponent bounds and the no-density classification."""
    model = builtin_model("exa4_atoms")
    lo_c, hi_c = 1.0, 2.0 * math.pi ** 2 / 3.0
    m = np.arange(1, 41)
    ratio = _re_psi_radial_fn(model)(2.0 * math.pi * 2.0 ** m) * m     # psi / b_m, b_m = 1/m
    worst_lo, worst_hi = float(ratio.min()), float(ratio.max())
    verdict = diagnostics.classify(model, t_list=(1.0,))["verdict"]
    ok = worst_lo >= lo_c and worst_hi <= hi_c and \
        verdict == "no density (Re psi does not diverge)"
    return ok, (f"psi(2pi 2^m)/b_m in [{worst_lo:.3f}, {worst_hi:.3f}] "
                f"(needs [{lo_c}, {hi_c:.3f}]); classify: {verdict}")


def criterion_alternating_atoms_split() -> Tuple[bool, str]:
    """Alternating-mass atoms: even-m quotient small, odd-m quotient huge.

    Documented limitation: the odd-index masses j^2 dominate the exponent two
    dyadic levels later, so the even-m subsequence of the quotient never
    falls toward 0 under this construction; the split does not materialize.
    """
    model = builtin_model("exa5_atoms", levels=80)
    xi = 2.0 * math.pi * 2.0 ** np.array([50.0, 51.0])      # even m, odd m
    q_even, q_odd = (_re_psi_radial_fn(model)(xi) / np.log1p(xi)).tolist()
    ok = q_even < 0.1 and q_odd > 1e3
    return ok, f"even-m quotient {q_even:.3g} (needs <0.1), odd-m {q_odd:.3g} (needs >1e3)"


def criterion_small_time_asymptotics() -> Tuple[bool, str]:
    """Small-time exponents, power-law predictions, doubling constants, bounds."""
    worst_exp = 0.0
    worst_pred = 0.0
    worst_doub = 0.0
    bracket_ok = True
    for alpha in (1.0, 1.5, 2.0):
        for n in (1, 2):
            model = builtin_model("stable", alpha=alpha, dim=n)
            rep = asymptotics.predict_pt0(model, "t_to_0")
            worst_exp = max(worst_exp, abs(rep.t_exponent + n / alpha))
            worst_pred = max(worst_pred, rep.ratio_stats["pred_rel_err_max"])
            worst_doub = max(worst_doub, abs(rep.doubling_C - 2.0 ** (n / alpha)))
            c1, c2, nu_inv = rep.bounds
            scaled = (2.0 * math.pi) ** n * rep.observed / nu_inv
            bracket_ok &= bool(np.all((scaled >= c1 - 1e-12) & (scaled <= c2 + 1e-12)))
    ok = worst_exp <= 0.02 and worst_pred <= 1e-6 and worst_doub <= 1e-6 \
        and bracket_ok
    return ok, (f"exponent err {worst_exp:.2e} (tol 0.02); prediction rel "
                f"{worst_pred:.2e} (tol 1e-6); doubling err {worst_doub:.2e} "
                f"(tol 1e-6); bounds bracket: {bracket_ok}")


def criterion_threshold_flip() -> Tuple[bool, str]:
    """Integrability of (1+xi^2)^{-t} flips at t = 1/2; inversion above it."""
    model = builtin_model("sym_gamma")
    refused = False
    try:
        inversion.pt_zero(model, 0.45)
    except IntegrabilityRefusal:
        refused = True
    refused_laplace = False
    try:
        rearrangement.pt0_laplace(model, 0.45)
    except IntegrabilityRefusal:
        refused_laplace = True
    ok_above = inversion.pt_zero(model, 0.55) > 0.0 and \
        rearrangement.pt0_laplace(model, 0.55) > 0.0
    xs = np.arange(-30.0, 30.0 + 1e-9, 0.003)
    f = inversion.invert_grid(model, 0.75, xs)
    mass_err = abs(f.mass - 1.0)
    ok = refused and refused_laplace and ok_above and mass_err < 1e-4
    return ok, (f"t=0.45 refused: {refused}/{refused_laplace}, t=0.55 ok: "
                f"{ok_above}; t=0.75 mass error {mass_err:.2e} (tol 1e-4)")


def criterion_rearrangement_properties() -> Tuple[bool, str]:
    """Equimeasurability, the generalized-inverse sandwich, quotient identity."""
    model = builtin_model("gaussian")
    levels = np.geomspace(0.1, 50.0, 20)
    L = 16.0
    h = 2.0 * L / (1 << 20)
    grid = np.arange(-(1 << 19), (1 << 19)) * h + 0.5 * h
    vals = grid * grid
    worst_eq = 0.0
    for x in levels:
        brute = h * float(np.count_nonzero(vals <= x))
        worst_eq = max(worst_eq, abs(brute - rearrangement.nu_dist(model, float(x))))
    eq_ok = worst_eq <= 4.0 * h

    sandwich_ok = True
    for m in (builtin_model("gaussian"), builtin_model("exa3_atoms")):
        table = rearrangement.build_table(m, 20.0)
        for x, nu in zip(table.x_nodes, table.nu_values):
            if not (0.0 < nu < math.inf):
                continue
            x_inv = rearrangement.nu_inverse(m, float(nu))
            sandwich_ok &= x_inv <= x * (1.0 + 1e-9) + 1e-12
            sandwich_ok &= rearrangement.nu_dist(m, x_inv) >= nu * (1.0 - 1e-9)

    worst_star = 0.0
    for name in ("gaussian", "cauchy", "sym_gamma", "exa2_logkernel"):
        m = builtin_model(name)
        hw = diagnostics.hw_functional(m, (4, 30))
        hs = diagnostics.hw_star_functional(m, (4, 30))
        worst_star = max(worst_star, float(np.max(np.abs(hw.values - hs.values))))
    ok = eq_ok and sandwich_ok and worst_star <= 1e-8
    return ok, (f"equimeasurability err {worst_eq:.2e} (tol {4.0 * h:.2e}); "
                f"sandwich: {sandwich_ok}; hw_star vs hw {worst_star:.2e} (tol 1e-8)")


def criterion_ratio_limits() -> Tuple[bool, str]:
    """Large-time density ratios, tail mass, and semigroup normalization."""
    r = ratio_limit.ratio_px_p0(builtin_model("cauchy"), 100.0, 1.0)
    target = 1e4 / (1e4 + 1.0)
    err_r = abs(r - target)
    chi = ratio_limit.chi_tail_mass(builtin_model("gaussian"), 100.0, 1.0)
    y = np.linspace(-8.0, 8.0, 1601)
    f = np.exp(-y * y)
    worst_sg = 0.0
    for name, kw in (("gaussian", {}), ("cauchy", {}), ("stable", {"alpha": 1.5}),
                     ("tempered_stable", {}), ("truncated_stable", {}),
                     ("exa2_logkernel", {})):
        obs, tgt = ratio_limit.semigroup_ratio(builtin_model(name, **kw),
                                               y, f, 1000.0)
        worst_sg = max(worst_sg, abs(obs / tgt - 1.0))
    ok = err_r <= 1e-6 and chi < 1e-20 and worst_sg <= 0.01
    return ok, (f"ratio err {err_r:.2e} (tol 1e-6); tail mass {chi:.2e} "
                f"(tol 1e-20); semigroup rel {worst_sg:.2e} (tol 1e-2)")


def criterion_special_functions() -> Tuple[bool, str]:
    """Half-integer kernel reductions, derivative identity, normalization."""
    z = np.linspace(1e-3, 50.0, 400)
    err_m = max(abs(specfun.h_kernel(-0.5, float(s)) - math.cos(s)) for s in z)
    err_p = max(abs(specfun.h_kernel(0.5, float(s)) - math.sin(s) / s) for s in z)
    worst_d = 0.0
    hstep = 1e-5
    for nu in (-0.5, 0.0, 0.5, 1.0):
        for s in np.linspace(0.05, 50.0, 60):
            fd = (specfun.h_kernel(nu, s + hstep) -
                  specfun.h_kernel(nu, s - hstep)) / (2.0 * hstep)
            ident = -s * specfun.h_kernel(nu + 1.0, s) / (2.0 * (nu + 1.0))
            worst_d = max(worst_d, abs(fd - ident))
    exact0 = all(specfun.h_kernel(nu, 0.0) == 1.0 for nu in (-0.5, 0.0, 0.5, 1.0, 2.5))
    ok = err_m <= 1e-10 and err_p <= 1e-10 and worst_d <= 1e-6 and exact0
    return ok, (f"cos/sinc reductions {max(err_m, err_p):.2e} (tol 1e-10); "
                f"derivative identity {worst_d:.2e} (tol 1e-6); H(0)=1: {exact0}")


def criterion_multiplier() -> Tuple[bool, str]:
    """Multiplier operator golden value and the m = 0 identity."""
    g = builtin_model("gaussian")
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.5)
    f1 = inversion.multiplier_apply(g, g, 1, 1.0, xs)
    val = float(f1.values[np.argmin(np.abs(xs))])
    err = abs(val - 0.14104739588693907)
    f0 = inversion.multiplier_apply(g, g, 0, 1.0, xs)
    base = inversion.invert_grid(g, 1.0, xs)
    identical = bool(np.array_equal(f0.values, base.values))
    ok = err <= 1e-6 and identical
    return ok, (f"phi(D) p_1(0) err {err:.2e} (tol 1e-6); "
                f"m=0 bit-identical: {identical}")


@dataclass(frozen=True)
class Criterion:
    number: str
    summary: str
    check: Callable[[], Tuple[bool, str]]
    expected_fail: bool = False


CRITERIA = (
    Criterion("1", "golden closed-form densities", criterion_golden_densities),
    Criterion("2", "pipeline equivalence", criterion_pipeline_equivalence),
    Criterion("3", "radial exponent formula oracle", criterion_radial_formula_oracle),
    Criterion("4", "log-kernel functionals", criterion_logkernel_functionals),
    Criterion("5", "tail-mass verdict equivalence", criterion_tail_mass_equivalence),
    Criterion("6", "dyadic atoms necessity", criterion_dyadic_atoms_necessity),
    Criterion("6b", "alternating atoms subsequence split",
              criterion_alternating_atoms_split, expected_fail=True),
    Criterion("7", "small-time asymptotics", criterion_small_time_asymptotics),
    Criterion("8", "integrability threshold flip", criterion_threshold_flip),
    Criterion("9", "rearrangement properties", criterion_rearrangement_properties),
    Criterion("10", "large-time ratio limits", criterion_ratio_limits),
    Criterion("11", "special functions", criterion_special_functions),
    Criterion("12", "multiplier operator", criterion_multiplier),
)


def run_all(write=print) -> int:
    """Run every criterion; one line each; nonzero exit on unexpected outcome."""
    failures = 0
    for c in CRITERIA:
        try:
            ok, detail = c.check()
        except Exception as exc:           # a crash is a failure with context
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if c.expected_fail:
            status = "XFAIL" if not ok else "UNEXPECTED PASS"
            failures += ok
        else:
            status = "PASS" if ok else "FAIL"
            failures += not ok
        write(f"{status:5s} criterion {c.number}: {c.summary} -- {detail}")
    write(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria as expected")
    return 1 if failures else 0
