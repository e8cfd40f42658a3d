"""Model serialization: canonical round trips, builtin refs, schema errors."""

import json
import math

import pytest

from levydens import modelio
from levydens.errors import ModelFormatError
from levydens.levy_core import ModelSpec, builtin_model
from levydens.measures import AtomSpec, MeasureSpec


def _sample_models():
    yield builtin_model("gaussian")
    yield builtin_model("stable", alpha=1.5, dim=2)
    yield builtin_model("gamma")
    yield builtin_model("exa4_atoms", levels=5)
    yield ModelSpec(dim=1, drift=(0.3,), gaussian=((1.0,),),
                    measure=MeasureSpec(variant="table", r_nodes=(0.5, 2.0),
                                        rho_values=(1.0, 0.5),
                                        interp="linear"),
                    name="table_model")
    yield ModelSpec(dim=2, drift=(0.0, 0.1),
                    gaussian=((1.0, 0.0), (0.0, 1.0)),
                    measure=MeasureSpec(variant="atoms", atoms=(
                        AtomSpec(mass=0.5, point=(1.0, 0.0)),
                        AtomSpec(mass=1.0, radius=0.25))))


@pytest.mark.parametrize("model", list(_sample_models()),
                         ids=lambda m: m.name or "unnamed")
def test_canonical_round_trip_byte_identical(model, tmp_path):
    path = tmp_path / "model.json"
    modelio.save_model(model, path)
    text1 = path.read_text()
    loaded = modelio.load_model(path)
    assert modelio.canonical_text(loaded) == text1
    assert modelio.canonical_text(loaded) == modelio.canonical_text(model)
    # semantic equality of the triplet
    assert loaded.dim == model.dim
    assert loaded.drift == model.drift
    assert loaded.measure.variant == model.measure.variant


def test_digest_is_stable_and_distinguishes():
    a = modelio.model_digest(builtin_model("gaussian"))
    b = modelio.model_digest(builtin_model("gaussian"))
    c = modelio.model_digest(builtin_model("cauchy"))
    assert a == b
    assert a != c
    assert len(a) == 64


def test_builtin_reference_parsing():
    m = modelio.load_model("builtin:stable:alpha=1.5,dim=2")
    assert m.name == "stable" and m.dim == 2
    assert m.measure.params["alpha"] == 1.5
    # dim and levels coerce to int
    m2 = modelio.load_model("builtin:exa4_atoms:levels=7")
    assert len(m2.measure.atoms) == 7


def test_builtin_reference_errors():
    with pytest.raises(ModelFormatError):
        modelio.load_model("builtin:nope")
    with pytest.raises(ModelFormatError):
        modelio.load_model("builtin:stable:alpha")
    with pytest.raises(ModelFormatError):
        modelio.load_model("builtin:stable:alpha=abc")


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ModelFormatError):
        modelio.load_model(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "dim": 1,\n  oops\n}\n')
    with pytest.raises(ModelFormatError) as exc_info:
        modelio.load_model(bad)
    assert exc_info.value.line == 3


def test_unknown_keys_rejected(tmp_path):
    doc = modelio.model_to_dict(builtin_model("gaussian"))
    doc["extra_key"] = 1
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as exc_info:
        modelio.load_model(p)
    assert "extra_key" in str(exc_info.value)


def test_missing_required_field(tmp_path):
    doc = modelio.model_to_dict(builtin_model("gaussian"))
    del doc["drift"]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as exc_info:
        modelio.load_model(p)
    assert exc_info.value.field == "drift"


@pytest.mark.parametrize("key, value, named", [
    ("drift", [0.5, 0.0], "drift"),
    ("gaussian", [[2.0, 0.0], [0.0, 8.0]], "gaussian"),
    ("measure", {"variant": "atoms", "atoms": [{"mass": 1.0, "point": [1.0, 0.0]}]},
     "measure.atoms"),
])
def test_isotropic_true_is_checked_against_the_triplet(key, value, named):
    doc = modelio.model_to_dict(builtin_model("gaussian", dim=2))
    doc[key] = value
    with pytest.raises(ModelFormatError, match=named) as exc_info:
        modelio.model_from_dict(doc)
    assert exc_info.value.field == "isotropic"
    doc["isotropic"] = False
    assert modelio.canonical_text(modelio.model_from_dict(doc)) == \
        json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_measure_schema_errors():
    with pytest.raises(ModelFormatError):
        modelio.measure_from_dict({"variant": "bogus"})
    with pytest.raises(ModelFormatError):
        modelio.measure_from_dict({"variant": "none", "stray": 1})
    with pytest.raises(ModelFormatError):
        modelio.measure_from_dict({"variant": "atoms",
                                   "atoms": [{"mass": 1.0, "weird": 2}]})
    with pytest.raises(ModelFormatError):
        modelio.measure_from_dict({"variant": "table", "r_nodes": [1.0, 2.0]})


def test_builtin_names_all_constructible():
    for name in modelio.BUILTIN_NAMES:
        m = modelio.load_model(f"builtin:{name}")
        assert m.dim >= 1


def _doc_with(path, value):
    """A valid model document with ``value`` put at ``path`` (keys and list
    indices)."""
    docs = {
        "drift": {"dim": 1, "drift": [0.0], "gaussian": [[2.0]],
                  "measure": {"variant": "none"}},
        "atoms": {"dim": 1, "drift": [0.0], "gaussian": [[0.0]],
                  "measure": {"variant": "atoms",
                              "atoms": [{"mass": 1.0, "radius": 0.5},
                                        {"mass": 1.0, "point": [1.0]}]}},
        "family": {"dim": 1, "drift": [0.0], "gaussian": [[0.0]],
                   "measure": {"variant": "family", "family": "stable",
                               "params": {"alpha": 1.5}}},
        "table": {"dim": 1, "drift": [0.0], "gaussian": [[0.0]],
                  "measure": {"variant": "table", "r_nodes": [0.5, 2.0],
                              "rho_values": [1.0, 0.5], "interp": "linear"}},
    }
    doc = json.loads(json.dumps(docs[path[0]]))
    node = doc
    for key in path[1:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_NON_FINITE = [
    (("drift", "drift", 0), "drift[0]"),
    (("drift", "gaussian", 0, 0), "gaussian[0][0]"),
    (("atoms", "measure", "atoms", 0, "mass"), "measure.atoms[0].mass"),
    (("atoms", "measure", "atoms", 0, "radius"), "measure.atoms[0].radius"),
    (("atoms", "measure", "atoms", 1, "point", 0), "measure.atoms[1].point[0]"),
    (("family", "measure", "params", "alpha"), "measure.params.alpha"),
    (("table", "measure", "r_nodes", 1), "measure.r_nodes[1]"),
    (("table", "measure", "rho_values", 0), "measure.rho_values[0]"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path, field", _NON_FINITE, ids=[f for _, f in _NON_FINITE])
def test_non_finite_numbers_name_their_field(tmp_path, path, field, bad):
    # JSON admits NaN and Infinity; the canonical form (and so the digest)
    # cannot hold them, so the loader refuses them by field
    p = tmp_path / "m.json"
    p.write_text(json.dumps(_doc_with(path, bad)))
    with pytest.raises(ModelFormatError) as exc_info:
        modelio.load_model(p)
    assert exc_info.value.field == field
    # the same document with a finite number loads and digests
    p.write_text(json.dumps(_doc_with(path, 1.0)))
    assert len(modelio.model_digest(modelio.load_model(p))) == 64


def test_non_numeric_atom_entries_name_their_field():
    for atom, field in (({"mass": 1.0, "radius": "far"}, "measure.atoms[0].radius"),
                        ({"mass": 1.0, "point": 2.0}, "measure.atoms[0].point")):
        with pytest.raises(ModelFormatError) as exc_info:
            modelio.measure_from_dict({"variant": "atoms", "atoms": [atom]})
        assert exc_info.value.field == field
