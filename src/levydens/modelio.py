"""Model file serialization: JSON schema, canonical form, builtin lookup.

A model file is a JSON document with the fields

    dim       positive integer
    drift     list of dim reals
    gaussian  dim x dim row-major matrix
    measure   {variant, ...} per the measure schema below
    isotropic optional boolean: an assertion checked against the triplet,
              which alone selects the routes
    name      optional string

Measure variants: "none"; "atoms" with a list of {mass, radius} or
{mass, point}; "family" with {family, params}; "table" with {r_nodes,
rho_values, interp}.  The canonical form (sorted keys, two-space indent,
trailing newline) round-trips byte-identically through load/save.

Builtin references use the prefix form "builtin:name" with optional
comma-separated parameters, e.g. "builtin:stable:alpha=1.5,dim=2".
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Union

from .errors import ModelFormatError
from .levy_core import ModelSpec, builtin_model
from .measures import AtomSpec, MeasureSpec

BUILTIN_NAMES = (
    "gaussian", "cauchy", "stable", "tempered_stable", "truncated_stable",
    "gamma", "sym_gamma", "exa2_logkernel", "exa3_atoms", "exa4_atoms",
    "exa5_atoms",
)


def measure_to_dict(measure: MeasureSpec) -> dict:
    d = {"variant": measure.variant}
    if measure.variant == "atoms":
        atoms = []
        for a in measure.atoms:
            if a.radius is not None:
                atoms.append({"mass": a.mass, "radius": a.radius})
            else:
                atoms.append({"mass": a.mass, "point": list(a.point)})
        d["atoms"] = atoms
    elif measure.variant == "family":
        d["family"] = measure.family
        d["params"] = {k: measure.params[k] for k in sorted(measure.params)}
        if measure.onesided:
            d["onesided"] = True
    elif measure.variant == "table":
        d["r_nodes"] = list(measure.r_nodes)
        d["rho_values"] = list(measure.rho_values)
        d["interp"] = measure.interp
    return d


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "dim": model.dim,
        "drift": list(model.drift),
        "gaussian": [list(row) for row in model.gaussian],
        "measure": measure_to_dict(model.measure),
        "isotropic": model.isotropic,
        "name": model.name,
    }


def _expect(d: dict, key: str, types, field: str, required: bool = True,
            default=None):
    if key not in d:
        if required:
            raise ModelFormatError(f"missing required field", field=field)
        return default
    v = d[key]
    if not isinstance(v, types):
        raise ModelFormatError(
            f"expected {getattr(types, '__name__', types)}, got {type(v).__name__}",
            field=field)
    return v


def _real(v, field: str) -> float:
    """float(v), refused with the field's name unless it is a finite number:
    JSON admits NaN and Infinity, which no model parameter may be."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"expected a number, got {v!r}", field=field) from None
    if not math.isfinite(x):
        raise ModelFormatError(f"number must be finite, got {v!r}", field=field)
    return x


def _reals(v, field: str) -> tuple:
    """A list of finite numbers, each refused by its index."""
    if not isinstance(v, list):
        raise ModelFormatError(f"expected list, got {type(v).__name__}", field=field)
    return tuple(_real(c, f"{field}[{i}]") for i, c in enumerate(v))


def _reject_unknown(d: dict, allowed, context: str):
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ModelFormatError(f"unknown key(s) {extra}", field=context)


def measure_from_dict(d: dict) -> MeasureSpec:
    if not isinstance(d, dict):
        raise ModelFormatError("measure must be an object", field="measure")
    variant = _expect(d, "variant", str, "measure.variant")
    if variant == "none":
        _reject_unknown(d, ("variant",), "measure")
        return MeasureSpec(variant="none")
    if variant == "atoms":
        _reject_unknown(d, ("variant", "atoms"), "measure")
        raw = _expect(d, "atoms", list, "measure.atoms")
        atoms = []
        for i, a in enumerate(raw):
            if not isinstance(a, dict):
                raise ModelFormatError("atom must be an object",
                                       field=f"measure.atoms[{i}]")
            _reject_unknown(a, ("mass", "radius", "point"), f"measure.atoms[{i}]")
            where = f"measure.atoms[{i}]"
            mass = _expect(a, "mass", (int, float), f"{where}.mass")
            radius = a.get("radius")
            point = a.get("point")
            atoms.append(AtomSpec(
                mass=_real(mass, f"{where}.mass"),
                radius=None if radius is None else _real(radius, f"{where}.radius"),
                point=None if point is None else _reals(point, f"{where}.point")))
        return MeasureSpec(variant="atoms", atoms=tuple(atoms))
    if variant == "family":
        _reject_unknown(d, ("variant", "family", "params", "onesided"), "measure")
        family = _expect(d, "family", str, "measure.family")
        params = _expect(d, "params", dict, "measure.params",
                         required=False, default={})
        onesided = bool(_expect(d, "onesided", bool, "measure.onesided",
                                required=False, default=False))
        for key, val in params.items():
            _real(val, f"measure.params.{key}")
        return MeasureSpec(variant="family", family=family,
                           params=dict(params), onesided=onesided)
    if variant == "table":
        _reject_unknown(d, ("variant", "r_nodes", "rho_values", "interp"),
                        "measure")
        r = _expect(d, "r_nodes", list, "measure.r_nodes")
        v = _expect(d, "rho_values", list, "measure.rho_values")
        interp = _expect(d, "interp", str, "measure.interp",
                         required=False, default="loglog")
        return MeasureSpec(variant="table",
                           r_nodes=_reals(r, "measure.r_nodes"),
                           rho_values=_reals(v, "measure.rho_values"),
                           interp=interp)
    raise ModelFormatError(f"unknown measure variant '{variant}'",
                           field="measure.variant")


def model_from_dict(d: dict) -> ModelSpec:
    if not isinstance(d, dict):
        raise ModelFormatError("model document must be a JSON object")
    _reject_unknown(d, ("dim", "drift", "gaussian", "measure", "isotropic",
                        "name"), "model")
    dim = _expect(d, "dim", int, "dim")
    drift = _expect(d, "drift", list, "drift")
    gaussian = _expect(d, "gaussian", list, "gaussian")
    measure = measure_from_dict(_expect(d, "measure", dict, "measure"))
    isotropic = bool(_expect(d, "isotropic", bool, "isotropic",
                             required=False, default=False))
    name = _expect(d, "name", str, "name", required=False, default="")
    drift_t = _reals(drift, "drift")
    gauss_t = tuple(_reals(row, f"gaussian[{i}]") for i, row in enumerate(gaussian))
    return ModelSpec(dim=dim, drift=drift_t, gaussian=gauss_t, measure=measure,
                     isotropic=isotropic, name=name)


def _parse_builtin(ref: str) -> ModelSpec:
    body = ref[len("builtin:"):]
    name, _, paramstr = body.partition(":")
    if name not in BUILTIN_NAMES:
        raise ModelFormatError(
            f"unknown builtin model '{name}' (known: {', '.join(BUILTIN_NAMES)})")
    params = {}
    if paramstr:
        for item in paramstr.split(","):
            key, sep, val = item.partition("=")
            if not sep or not key:
                raise ModelFormatError(
                    f"builtin parameter '{item}' must look like key=value")
            try:
                num = float(val)
            except ValueError:
                raise ModelFormatError(
                    f"builtin parameter '{key}' has non-numeric value '{val}'")
            params[key] = int(num) if key in ("dim", "levels") and num.is_integer() else num
    return builtin_model(name, **params)


def load_model(source: Union[str, "os.PathLike"]) -> ModelSpec:
    """Load a ModelSpec from a 'builtin:...' reference or a JSON file path."""
    ref = str(source)
    if ref.startswith("builtin:"):
        return _parse_builtin(ref)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno)
    return model_from_dict(doc)


def canonical_text(model: ModelSpec) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def save_model(model: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(model))


def model_digest(model: ModelSpec) -> str:
    """sha256 of the canonical serialization, for report provenance lines."""
    return hashlib.sha256(canonical_text(model).encode("utf-8")).hexdigest()
