"""The workloads: seeded inputs, the queries of one round, their checks.

A query is one call into a public entry point of levydens.  Its check runs
after the timed call and raises ``Mismatch`` when the answer is wrong.  A
workload draws its inputs once from the seed (``draw``) and builds one round
of queries from them (``make_round``); the runner repeats that round, with
fresh model objects each time, so every round does the same work and no
query's cost depends on cache state left by another round.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from typing import Callable, List

import numpy as np

import reference as ref
from levydens import asymptotics, cli, diagnostics, inversion, levy_core, modelio
from levydens import ratio_limit, rearrangement
from levydens.errors import IntegrabilityRefusal

# tolerances of acceptance criteria 1 and 2
TOL_GAUSSIAN = 1e-8
TOL_CAUCHY = 1e-6
TOL_SYM_GAMMA = 1e-6
TOL_GAMMA = 1e-5
TOL_CROSS = 1e-6           # relative agreement of two independent routes


class Mismatch(Exception):
    """An answer that fails its reference or property check."""


@dataclasses.dataclass
class Query:
    layer: str                          # per-layer metric prefix
    label: str                          # query class, for the trace file
    call: Callable[[], object]          # the one timed call into levydens
    check: Callable[[object], None]     # untimed; raises Mismatch


class Context:
    """What a round needs from the runner: model factory and scratch space.

    With ``count_psi`` set, closed-form models get counting wrappers in their
    public ``g_exact`` and ``psi_exact_vec`` fields, so ``psi_points`` is the
    number of frequency points at which the program evaluated an exponent.
    """

    def __init__(self, out_dir: str, count_psi: bool):
        self.out_dir = out_dir
        self.count_psi = count_psi
        self.psi_points = 0

    def model(self, name: str, **params) -> levy_core.ModelSpec:
        m = levy_core.builtin_model(name, **params)
        if not self.count_psi:
            return m
        wrap = {}
        for fld in ("g_exact", "psi_exact_vec"):
            fn = getattr(m, fld)
            if fn is not None:
                wrap[fld] = self._counting(fn)
        return dataclasses.replace(m, **wrap) if wrap else m

    def _counting(self, fn):
        def counted(u):
            self.psi_points += int(np.size(u))
            return fn(u)
        return counted


# -- checks ---------------------------------------------------------------

def close(got, want, tol: float, what: str, rel: bool = False) -> None:
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.isfinite(got)):
        raise Mismatch(f"{what}: non-finite value")
    err = np.abs(got - want)
    if rel:
        err = err / np.abs(want)
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:
        raise Mismatch(f"{what}: {'relative ' if rel else ''}error {worst:.3e} > {tol:.0e}")


def symmetric_peak(x: np.ndarray, p: np.ndarray, what: str) -> None:
    """p(x) = p(-x) <= p(0) on a grid symmetric about 0."""
    if not np.all(np.isfinite(p)) or not np.array_equal(x, -x[::-1]):
        raise Mismatch(f"{what}: non-finite values or asymmetric grid")
    top = float(p[x.size // 2])
    if np.max(np.abs(p - p[::-1])) > 1e-10 * top:
        raise Mismatch(f"{what}: p(x) != p(-x)")
    if np.max(p) > top * (1.0 + 1e-12):
        raise Mismatch(f"{what}: p(x) > p(0)")


def stable_grid(x: np.ndarray, p: np.ndarray, alpha: float, t: float, what: str,
                step: int = 1) -> None:
    """A stable density (psi = |xi|^alpha, dim 1) on a grid symmetric about 0.

    p(0) must match Gamma(1 + 1/alpha) / (pi t^(1/alpha)), and every
    ``step``-th node the radial route, which uses no frequency fold; both
    within 1e-6 relative.  Symmetry and the peak at 0 are checked on top."""
    symmetric_peak(x, p, what)
    mid = x.size // 2
    close(p[mid], ref.stable_at_zero(alpha, t), TOL_CROSS, f"{what}: p(0)", rel=True)
    nodes = np.abs(x[::step])
    other = levy_core.builtin_model("stable", alpha=alpha)
    close(p[::step], inversion.invert_radial(other, t, nodes).values, TOL_CROSS,
          f"{what}: vs invert_radial", rel=True)


def _grid(n: int, h: float) -> np.ndarray:
    """n nodes (n odd) of step h, symmetric about 0."""
    return (np.arange(n) - n // 2) * h


def _values(lo: float, hi: float, n: int) -> list:
    """n evenly spaced inputs from lo to hi."""
    return [round(float(v), 4) for v in np.linspace(lo, hi, n)]


def _product(*axes) -> list:
    return list(itertools.product(*axes))


class Workload:
    """A round is ``ROUND``, a list of (query class, count) pairs.  The seed
    draws each query's input, with replacement, from ``CHOICES[class]``.
    All inputs of a class cost the same: they give the same DFT wrap lengths
    and, within 5 %, the same number of exponent evaluations (``bands.py``
    checks this), so the seed changes the inputs but not the work."""

    ROUND: tuple = ()
    CHOICES: dict = {}

    def draw(self, rng: np.random.Generator) -> dict:
        p = {}
        for cls, count in self.ROUND:
            pool = self.CHOICES[cls]
            p[cls] = [pool[i] for i in rng.integers(len(pool), size=count)]
        return p

    def make_round(self, p: dict, ctx: Context) -> List[Query]:
        return [self.build(ctx, cls, prm) for cls, _ in self.ROUND for prm in p[cls]]


def _refusal(what: str):
    def check(res):
        if not isinstance(res, IntegrabilityRefusal):
            raise Mismatch(f"{what}: expected a refusal, got {res!r}")
    return check


# -- dense-grid -----------------------------------------------------------

class DenseGrid(Workload):
    """Fine 1-d grids and 2-d lattices with closed-form models, plus radial
    inversion in dims 2 and 3; a share of the 1-d grids goes through the CLI."""

    name = "dense-grid"
    # query_tail_s percentile and the fewest rounds in a run: each run holds
    # at least 10 / (1 - tail_q) queries, so ten or more lie beyond it
    tail_q, min_rounds = 0.8, 3

    # 21 queries.  The 1-d cauchy and stable grids, the CLI densities and the
    # cauchy lattices form the FFT-bound block, 12 queries of similar cost;
    # the 8 cheaper queries lie below it and the gamma grid above it, so the
    # median (rank 11) and p80 (rank 17) both fall inside it
    ROUND = (
        ("grid1d.gaussian", 1), ("grid1d.cauchy", 4), ("grid1d.stable", 4),
        ("grid1d.laplace", 1), ("grid1d.sym_gamma", 1), ("grid1d.gamma", 1),
        ("cli.cauchy", 1), ("cli.stable", 1),
        ("grid2d.gaussian", 1), ("grid2d.cauchy", 2),
        ("radial.gaussian.d2", 1), ("radial.gaussian.d3", 1),
        ("radial.cauchy.d2", 1), ("radial.cauchy.d3", 1),
    )
    CHOICES = {
        "grid1d.gaussian": _values(0.75, 1.4, 14),
        "grid1d.cauchy": _values(0.9, 1.2, 31),
        "grid1d.stable": _product(_values(1.4, 1.6, 11), _values(0.9, 1.2, 7)),
        "grid1d.laplace": [1.0],
        "grid1d.sym_gamma": _values(1.4, 1.52, 7),
        "grid1d.gamma": _values(1.9, 2.05, 4),
        # below t ~ 0.82 the 2-d cauchy lattice misses 1e-6 (its tail_bound
        # says so); t stays where the tolerance holds
        "grid2d.gaussian": _values(0.75, 1.05, 7),
        "grid2d.cauchy": _values(1.0, 1.3, 16),
        "radial.gaussian.d2": _values(0.9, 1.1, 6),
        "radial.gaussian.d3": _values(0.9, 1.1, 6),
        "radial.cauchy.d2": _values(0.97, 1.0, 4),
        "radial.cauchy.d3": _values(0.97, 1.0, 4),
    }
    # the CLI builds its own model from the same inputs as the direct grid
    CHOICES["cli.cauchy"] = CHOICES["grid1d.cauchy"]
    CHOICES["cli.stable"] = CHOICES["grid1d.stable"]

    def build(self, ctx: Context, cls: str, prm) -> Query:
        x = _grid(2001, 0.01)
        radii = np.linspace(0.0, 4.0, 17)
        kind, name = cls.split(".")[:2]
        if cls == "grid1d.gamma":
            xg = 0.25 + np.arange(381) * 0.0125
            return self._grid1d(ctx, "gamma", {}, prm, xg, ref.gamma, TOL_GAMMA)
        if cls == "grid1d.laplace":
            return self._grid1d(ctx, "sym_gamma", {}, prm, x,
                                lambda t, x: ref.laplace(x), TOL_SYM_GAMMA, cls)
        if kind in ("grid1d", "cli"):
            params, t = ({"alpha": prm[0]}, prm[1]) if name == "stable" else ({}, prm)
            if kind == "cli":
                return self._cli(ctx, name, params, t)
            want, tol = {"gaussian": (ref.gaussian, TOL_GAUSSIAN),
                         "cauchy": (ref.cauchy, TOL_CAUCHY),
                         "stable": (None, None),
                         "sym_gamma": (ref.sym_gamma, TOL_SYM_GAMMA)}[name]
            return self._grid1d(ctx, name, params, t, x, want, tol)
        if kind == "grid2d":
            return self._lattice(ctx, name, prm)
        return self._radial(ctx, name, int(cls[-1]), prm, radii)

    def _grid1d(self, ctx, name, params, t, x, want, tol, label=None) -> Query:
        model = ctx.model(name, **params)

        def check(field):
            if want is None:
                stable_grid(x, field.values, params["alpha"], t, f"{name} t={t:.3f}",
                            step=250)
            else:
                close(field.values, want(t, x), tol, f"{name} t={t:.3f}")
        return Query("inversion.invert_grid", label or f"grid1d.{name}",
                     lambda: inversion.invert_grid(model, t, x), check)

    def _cli(self, ctx, name, params, t) -> Query:
        path = os.path.join(ctx.out_dir, f"density-{name}.csv")
        spec = f"builtin:{name}" + "".join(f":{k}={v!r}" for k, v in params.items())
        argv = ["density", "--model", spec, "--t", repr(t), "--grid", "-10:10:0.01",
                "--output", path]
        what = f"cli density {spec} t={t:.3f}"

        def check(code):
            if code != 0:
                raise Mismatch(f"{what}: exit {code}")
            with open(path, encoding="utf-8") as fh:
                rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
            if rows[0] != "x,p":
                raise Mismatch(f"{what}: header {rows[0]!r}")
            xp = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
            if xp.shape != (2001, 2):
                raise Mismatch(f"{what}: {xp.shape[0]} rows")
            if name == "cauchy":
                close(xp[:, 1], ref.cauchy(t, xp[:, 0]), TOL_CAUCHY, what)
            else:
                stable_grid(xp[:, 0], xp[:, 1], params["alpha"], t, what, step=250)
        return Query("cli.run", f"cli.{name}", lambda: cli.run(argv), check)

    def _lattice(self, ctx, name, t) -> Query:
        model = ctx.model(name, dim=2)
        xs = _grid(41, 0.1)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        if name == "gaussian":
            want, tol = ref.gaussian_nd(t, pts), TOL_GAUSSIAN
        else:
            want, tol = ref.cauchy_nd(t, pts), TOL_CAUCHY

        def check(field):
            close(field.values.reshape(-1), want, tol, f"{name} 2-d t={t:.3f}")
        return Query("inversion.invert_grid", f"grid2d.{name}",
                     lambda: inversion.invert_grid(model, t, (xs, xs)), check)

    def _radial(self, ctx, name, dim, t, radii) -> Query:
        model = ctx.model(name, dim=dim)
        pts = np.zeros((radii.size, dim))
        pts[:, 0] = radii
        if name == "gaussian":
            want, tol = ref.gaussian_nd(t, pts), TOL_GAUSSIAN
        else:
            want, tol = ref.cauchy_nd(t, pts), TOL_CAUCHY

        def check(field):
            close(field.values, want, tol, f"{name} radial dim {dim} t={t:.3f}")
        return Query("inversion.invert_radial", f"radial.{name}.d{dim}",
                     lambda: inversion.invert_radial(model, t, radii), check)


# -- sparse-points --------------------------------------------------------

class SparsePoints(Workload):
    """Two to a dozen nodes at coarse steps: ratio_px_p0 and sparse grids.

    Each round also runs one short session over the entry points the other
    layers offer (``_session``), and asks sym_gamma for p_t(0) on both sides
    of its threshold t = 1/2, where a refusal is the answer below it.
    """

    name = "sparse-points"
    tail_q, min_rounds = 0.9, 2

    # 76 queries.  11 cheap ones (under ~0.015 s) and 7 of middling cost lie
    # below the 36 nine-node stable grids, and the 22 ratios and asymptotics
    # above them, so the median (rank 38) falls inside that block whichever
    # way the 7 middling ones fall.  p90 (rank 69) falls in the middle of the
    # 14 far cauchy ratios (ranks 62-75); only the near one lies above them.
    # The near ratio leads the round: it allocates the round's largest
    # arrays, and once glibc has freed them it serves the far ratios' 4 MB
    # arrays from the heap, not from fresh pages, so the first round costs
    # what the others do
    ROUND = (
        ("ratio.cauchy.near", 1), ("ratio.cauchy.far", 14),
        ("ratio.stable.a1.3", 6), ("ratio.stable.a1.5", 1), ("ratio.stable.a1.7", 1),
        ("ratio.gaussian", 1), ("ratio.sym_gamma", 2),
        ("sparse.stable", 36), ("sparse.stable.a1.7", 1),
        ("sparse.gaussian", 1), ("sparse.sym_gamma", 1),
    )
    CHOICES = {
        # ratios at t = 1: x, or (alpha, x)
        "ratio.cauchy.far": _values(4.2, 5.0, 17),
        "ratio.cauchy.near": _values(3.0, 3.4, 9),
        "ratio.stable.a1.3": _product(_values(1.28, 1.32, 5), _values(1.8, 2.05, 6)),
        "ratio.stable.a1.5": _product(_values(1.48, 1.52, 5), _values(1.8, 2.15, 8)),
        "ratio.stable.a1.7": _product(_values(1.68, 1.72, 5), _values(2.05, 2.45, 9)),
        # (t, x)
        "ratio.gaussian": _product(_values(0.75, 1.5, 4), _values(0.5, 3.0, 6)),
        "ratio.sym_gamma": _product(_values(1.35, 1.5, 4), _values(0.5, 3.0, 11)),
        # grids: (alpha, step) on 9 nodes at t = 1, or (alpha or t, nodes, step)
        "sparse.stable": _product(_values(1.48, 1.51, 4),
                                  [0.7, 0.72, 0.75, 0.78, 0.8, 0.83, 0.85, 0.88, 0.9, 0.92]),
        "sparse.stable.a1.7": _product([1.7, 1.72], [9], _values(0.7, 1.0, 7)),
        "sparse.gaussian": _product(_values(0.75, 1.5, 4), [5], _values(0.5, 2.0, 7)),
        "sparse.sym_gamma": _product([1.4, 1.5], [5], _values(0.5, 2.0, 7)),
    }

    def draw(self, rng: np.random.Generator) -> dict:
        p = super().draw(rng)
        u = lambda a, b: float(rng.uniform(a, b))
        p["session"] = (u(1.4, 1.6), u(0.8, 1.25), u(0.5, 50.0))
        p["table_model"] = (u(1.4, 1.6), u(0.9, 1.1))
        return p

    def make_round(self, p: dict, ctx: Context) -> List[Query]:
        return super().make_round(p, ctx) + self._session(ctx, p) + self._threshold(ctx)

    def build(self, ctx: Context, cls: str, prm) -> Query:
        kind, name = cls.split(".")[:2]
        if kind == "ratio":
            if name == "cauchy":
                return self._ratio(ctx, "cauchy", {}, 1.0, prm, cls)
            if name == "stable":
                return self._ratio(ctx, "stable", {"alpha": prm[0]}, 1.0, prm[1], cls)
            return self._ratio(ctx, name, {}, prm[0], prm[1], cls)
        if cls == "sparse.stable":
            return self._grid(ctx, "stable", {"alpha": prm[0]}, 1.0, 9, prm[1], cls)
        if name == "stable":
            return self._grid(ctx, "stable", {"alpha": prm[0]}, 1.0, prm[1], prm[2], cls)
        return self._grid(ctx, name, {}, prm[0], prm[1], prm[2], cls)

    def prepare(self, p: dict, out_dir: str) -> None:
        """Write the session's quadrature model as canonical JSON (set-up)."""
        alpha, radius = p["table_model"]
        text = modelio.canonical_text(
            levy_core.builtin_model("truncated_stable", dim=3, alpha=alpha, R=radius))
        path = os.path.join(out_dir, "truncated_stable-d3.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        p["table_file"] = (path, text)

    def _session(self, ctx, p) -> List[Query]:
        """The exponent, Fourier, Laplace, diagnostics and asymptotics entry
        points.  A truncated_stable model in dim 3, loaded from canonical
        JSON, has no closed form: its exponent table and both exponent routes
        run the radial quadrature.  A closed-form stable model (psi =
        |xi|^alpha) serves p_t(0), classify and predict_pt0, whose quadrature
        versions take seconds of interpreter-bound work (see README)."""
        path, text = p["table_file"]
        alpha, t, u = p["session"]
        s: dict = {}
        qs: List[Query] = []

        def load():
            s["q"] = modelio.load_model(path)
            return s["q"]

        def check_load(m):
            if modelio.canonical_text(m) != text:
                raise Mismatch("truncated_stable: canonical JSON does not round-trip")
        qs.append(Query("modelio.load_model", "session.load", load, check_load))

        def check_profile(fn):
            grid = np.geomspace(1e-3, 100.0, 31)
            v = fn(grid)
            if not (np.all(v > 0) and np.all(np.diff(v) >= -1e-12 * v[1:])):
                raise Mismatch("truncated_stable: Re psi table not positive and nondecreasing")
        qs.append(Query("levy_core.re_psi_profile", "session.profile",
                        lambda: levy_core.re_psi_profile(s["q"], 100.0), check_profile))

        def cosine():
            s["eval"] = levy_core.eval_re_psi(s["q"], [u, 0.0, 0.0])
            return s["eval"]

        def check_cosine(v):
            if not (math.isfinite(v) and v > 0):
                raise Mismatch(f"truncated_stable: eval_re_psi({u:.3f}) = {v}")

        def check_bessel(v):
            close(v, s["eval"], TOL_CROSS, "truncated_stable: iso_g vs eval_re_psi", rel=True)
        qs.append(Query("levy_core.eval", "session.eval_re_psi", cosine, check_cosine))
        qs.append(Query("levy_core.eval", "session.iso_g",
                        lambda: levy_core.iso_g(s["q"], u), check_bessel))

        model = ctx.model("stable", alpha=alpha)
        tag = f"stable a={alpha:.3f}"

        def fourier():
            s["pt_zero"] = inversion.pt_zero(model, t)
            return s["pt_zero"]

        def check_fourier(v):
            close(v, ref.stable_at_zero(alpha, t), TOL_CROSS, f"{tag}: pt_zero({t:.3f})",
                  rel=True)
        qs.append(Query("inversion.pt_zero", "session.pt_zero", fourier, check_fourier))

        def check_laplace(v):
            close(v, s["pt_zero"], TOL_CROSS, f"{tag}: pt0_laplace vs pt_zero", rel=True)
        qs.append(Query("rearrangement.pt0_laplace", "session.pt0_laplace",
                        lambda: rearrangement.pt0_laplace(model, t), check_laplace))

        def check_classify(rep):
            if rep["verdict"] != "smooth density for all t":
                raise Mismatch(f"{tag}: classify verdict {rep['verdict']!r}")
        qs.append(Query("diagnostics.classify", "session.classify",
                        lambda: diagnostics.classify(model), check_classify))

        def check_predict(rep):
            want = ref.stable_at_zero(alpha, np.asarray(rep.t_grid))
            close(rep.observed, want, TOL_CROSS, f"{tag}: large-time p_t(0)", rel=True)
        qs.append(Query("asymptotics.predict_pt0", "session.predict_pt0",
                        lambda: asymptotics.predict_pt0(model, "t_to_inf"), check_predict))
        return qs

    def _threshold(self, ctx) -> List[Query]:
        """sym_gamma p_t(0): a refusal at t = 0.45 by both routes, an answer
        at t = 0.55."""
        qs = []
        for layer, fn in (("inversion.pt_zero", inversion.pt_zero),
                          ("rearrangement.pt0_laplace", rearrangement.pt0_laplace)):
            short = layer.split(".")[1]
            model = ctx.model("sym_gamma")

            def refused(fn=fn, m=model):
                try:
                    return fn(m, 0.45)
                except IntegrabilityRefusal as exc:
                    return exc
            qs.append(Query(layer, f"{short}.sym_gamma.refusal", refused,
                            _refusal(f"{short} sym_gamma t=0.45")))
        model = ctx.model("sym_gamma")

        def check(v):
            close(v, ref.sym_gamma_at_zero(0.55), TOL_CROSS, "pt_zero sym_gamma t=0.55",
                  rel=True)
        qs.append(Query("inversion.pt_zero", "pt_zero.sym_gamma.answer",
                        lambda: inversion.pt_zero(model, 0.55), check))
        return qs

    def _ratio(self, ctx, name, params, t, x, label) -> Query:
        model = ctx.model(name, **params)
        what = f"{name} ratio t={t:.3f} x={x:.3f}"

        def check(r):
            if name == "cauchy":
                close(r, ref.cauchy_ratio(t, x), TOL_CAUCHY, what)
            elif name == "gaussian":
                close(r, math.exp(-x * x / (4.0 * t)), TOL_GAUSSIAN, what)
            elif name == "sym_gamma":
                want = ref.sym_gamma(t, np.array([x, 0.0]))
                close(r, want[0] / want[1], TOL_SYM_GAMMA, what)
            else:
                # the radial route uses no frequency fold: an independent check
                other = levy_core.builtin_model(name, **params)
                f = inversion.invert_radial(other, t, np.array([0.0, x]))
                close(r, f.values[1] / f.values[0], TOL_CROSS, what, rel=True)
        return Query("ratio_limit.ratio_px_p0", label,
                     lambda: ratio_limit.ratio_px_p0(model, t, x), check)

    def _grid(self, ctx, name, params, t, n, h, label) -> Query:
        model = ctx.model(name, **params)
        x = _grid(n, h)
        what = f"{name} sparse grid t={t:.3f} n={n} h={h:.3f}"

        def check(field):
            if name == "gaussian":
                close(field.values, ref.gaussian(t, x), TOL_GAUSSIAN, what)
            elif name == "sym_gamma":
                close(field.values, ref.sym_gamma(t, x), TOL_SYM_GAMMA, what)
            else:
                stable_grid(x, field.values, params["alpha"], t, what)
        return Query("inversion.invert_grid", label,
                     lambda: inversion.invert_grid(model, t, x), check)


WORKLOADS = {w.name: w for w in (DenseGrid(), SparsePoints())}
