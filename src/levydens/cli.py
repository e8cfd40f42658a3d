"""Command-line frontend.

Subcommands: psi, density, diagnose, nu-dist, asymptotics, ratio-limit,
classify, selftest.  Exit codes: 0 success, 2 refusal (a meaningful "no
density / not integrable at this t" verdict), 1 error, usage errors
included.  CSV output carries
'#'-prefixed metadata lines echoing the fully resolved configuration; JSON
output embeds the same under the "config" key.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import IntegrabilityRefusal, LevyDensError
from . import modelio


_MAX_GRID_NODES = 1 << 20    # node arrays far past this exhaust memory


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise LevyDensError(f"grid '{spec}' must look like start:stop:step")
    if not all(map(math.isfinite, (a, b, step))):
        raise LevyDensError(f"grid '{spec}' must have finite start, stop and step")
    if step <= 0 or b <= a:
        raise LevyDensError(f"grid '{spec}' must have stop > start and step > 0")
    if (b - a) / step + 1.0 > _MAX_GRID_NODES:
        raise LevyDensError(f"grid '{spec}' has more than {_MAX_GRID_NODES} nodes")
    n = int(round((b - a) / step))
    k0 = round(a / step)
    if abs(k0 - a / step) < 1e-9:
        # grids anchored on a step multiple hit shared nodes (like 0) exactly
        return (np.arange(n + 1) + k0) * step
    return a + np.arange(n + 1) * step


def _parse_krange(spec: str):
    try:
        lo, hi = (int(p) for p in spec.split(":"))
    except ValueError:
        raise LevyDensError(f"range '{spec}' must look like lo:hi")
    return lo, hi


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    """Write the result as JSON, or as CSV with a '#' metadata header."""
    out = sys.stdout if args.output is None else open(args.output, "w",
                                                     encoding="utf-8")
    try:
        if args.format == "json" or csv_rows is None:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            for key in sorted(payload["config"]):
                out.write(f"# {key} = {payload['config'][key]}\n")
            for key in sorted(payload):
                if key in ("config", "rows"):
                    continue
                out.write(f"# {key} = {payload[key]}\n")
            out.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                out.write(",".join(repr(float(v)) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _config(args, **extra) -> dict:
    cfg = {"subcommand": args.command, "model": getattr(args, "model", None),
           "format": args.format, "version": __version__}
    cfg.update(extra)
    return cfg


def _cmd_psi(args) -> int:
    from .levy_core import _im_psi, _re_psi_radial_fn
    model = modelio.load_model(args.model)
    xi = _parse_grid(args.xi)
    if model.dim != 1:
        raise LevyDensError("the psi subcommand tabulates one-dimensional exponents")
    if model.psi_exact_vec is not None:
        vals = model.psi_exact_vec(xi)
    else:
        vals = _re_psi_radial_fn(model)(np.abs(xi)) + 1j * _im_psi(model, xi[:, None])
    payload = {"config": _config(args, xi=args.xi, digest=modelio.model_digest(model))}
    rows = [(u, v.real, v.imag) for u, v in zip(xi, vals)]
    _emit(args, payload, rows, ("xi", "re_psi", "im_psi"))
    return 0


def _cmd_density(args) -> int:
    from .inversion import invert_grid
    model = modelio.load_model(args.model)
    payload = {"config": _config(args, t=args.t, grid=args.grid,
                                 digest=modelio.model_digest(model))}
    if model.dim == 1:
        xs = _parse_grid(args.grid)
        field = invert_grid(model, args.t, xs)
        rows = list(zip(xs, field.values))
        header = ("x", "p")
    elif model.dim == 2:
        xs = _parse_grid(args.grid)
        field = invert_grid(model, args.t, (xs, xs))
        rows = [(x, y, field.values[i, j])
                for i, x in enumerate(xs) for j, y in enumerate(xs)]
        header = ("x", "y", "p")
    else:
        raise LevyDensError("density grids support dim 1 and 2")
    payload["mass"] = field.mass
    payload["tail_bound"] = field.tail_bound
    _emit(args, payload, rows, header)
    return 0


_FUNCTIONALS = ("hw", "kallenberg", "tail-mass", "hw-star", "hw-phi")


def _cmd_diagnose(args) -> int:
    from . import diagnostics
    model = modelio.load_model(args.model)
    k_range = _parse_krange(args.k)
    if args.functional == "hw":
        rep = diagnostics.hw_functional(model, k_range, t_opt=args.t)
    elif args.functional == "kallenberg":
        rep = diagnostics.kallenberg_functional(model, k_range)
    elif args.functional == "tail-mass":
        rep = diagnostics.tail_mass_functional(model, k_range)
    elif args.functional == "hw-star":
        rep = diagnostics.hw_star_functional(model, k_range)
    else:
        if args.phi_model is None:
            raise LevyDensError("hw-phi needs --phi-model")
        phi = modelio.load_model(args.phi_model)
        rep = diagnostics.hw_phi_functional(model, phi, k_range)
    payload = rep.as_dict()
    payload["config"] = _config(args, functional=args.functional, k=args.k,
                                t=args.t, digest=modelio.model_digest(model))
    _emit(args, payload)
    return 0


def _cmd_nu_dist(args) -> int:
    from . import rearrangement
    model = modelio.load_model(args.model)
    table = rearrangement.build_table(model, args.x_max, x_min=args.x_min)
    payload = {"config": _config(args, x_min=args.x_min, x_max=args.x_max,
                                 digest=modelio.model_digest(model)),
               "method": table.method}
    rows = list(zip(table.x_nodes, table.nu_values))
    _emit(args, payload, rows, ("x", "nu"))
    return 0


def _cmd_asymptotics(args) -> int:
    from . import asymptotics
    model = modelio.load_model(args.model)
    rep = asymptotics.predict_pt0(model, args.direction)
    payload = rep.as_dict()
    payload["config"] = _config(args, direction=args.direction,
                                digest=modelio.model_digest(model))
    _emit(args, payload)
    return 0


def _cmd_ratio_limit(args) -> int:
    from . import ratio_limit
    model = modelio.load_model(args.model)
    rep = ratio_limit.ratio_report(model, args.delta, args.x)
    payload = rep.as_dict()
    payload["config"] = _config(args, delta=args.delta, x=args.x,
                                digest=modelio.model_digest(model))
    _emit(args, payload)
    return 0


def _cmd_classify(args) -> int:
    from . import diagnostics
    model = modelio.load_model(args.model)
    t_list = tuple(float(v) for v in args.t_list.split(","))
    verdict = diagnostics.classify(model, t_list)
    verdict["config"] = _config(args, t_list=args.t_list,
                                digest=modelio.model_digest(model))
    _emit(args, verdict)
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all
    return run_all()


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other error does: argparse's 2 is the
    refusal verdict here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levydens",
        description="Transition-density toolkit for Levy processes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model=True):
        if needs_model:
            p.add_argument("--model", required=True,
                           help="model file path or builtin:<name>[:k=v,...]")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("psi", help="tabulate the characteristic exponent")
    common(p)
    p.add_argument("--xi", required=True, help="frequency grid start:stop:step")
    p.set_defaults(fn=_cmd_psi, default_format="csv")

    p = sub.add_parser("density", help="invert the density on a grid")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", required=True, help="spatial grid start:stop:step")
    p.set_defaults(fn=_cmd_density, default_format="csv")

    p = sub.add_parser("diagnose", help="growth-functional reports")
    p.add_argument("functional", choices=_FUNCTIONALS)
    common(p)
    p.add_argument("--k", default="4:40", help="dyadic probe range lo:hi")
    p.add_argument("--t", type=float, default=None,
                   help="threshold time for the hw functional")
    p.add_argument("--phi-model", default=None,
                   help="comparison symbol model for hw-phi")
    p.set_defaults(fn=_cmd_diagnose, default_format="json")

    p = sub.add_parser("nu-dist", help="sublevel-measure table of Re psi")
    common(p)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--x-min", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_nu_dist, default_format="csv")

    p = sub.add_parser("asymptotics", help="p_t(0) fits, predictions, bounds")
    common(p)
    p.add_argument("--direction", choices=("t_to_0", "t_to_inf"),
                   default="t_to_0")
    p.set_defaults(fn=_cmd_asymptotics, default_format="json")

    p = sub.add_parser("ratio-limit", help="large-time ratio-limit ladder")
    common(p)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--x", type=float, default=1.0)
    p.set_defaults(fn=_cmd_ratio_limit, default_format="json")

    p = sub.add_parser("classify", help="density-existence verdict")
    common(p)
    p.add_argument("--t-list", default="0.5,1.0,2.0")
    p.set_defaults(fn=_cmd_classify, default_format="json")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p, needs_model=False)
    p.set_defaults(fn=_cmd_selftest, default_format="json")

    # let grid specs like -10:10:0.01 or -1e-1:1e-1:1e-2 pass as option
    # values: every part in the float syntax _parse_grid reads, so that a
    # non-finite part reaches its finiteness check
    num = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
    matcher = re.compile(rf"^-{num}(?::[-+]?{num})*$", re.IGNORECASE)
    parser._negative_number_matcher = matcher
    for action in parser._subparsers._group_actions:
        for sp in getattr(action, "choices", {}).values():
            sp._negative_number_matcher = matcher
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.fn(args)
    except IntegrabilityRefusal as exc:
        payload = {"refusal": str(exc), "diagnostics": exc.diagnostics,
                   "config": {"subcommand": args.command,
                              "model": getattr(args, "model", None)}}
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 2
    except LevyDensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
