"""Command-line frontend: exit codes, output formats, config echo."""

import json
import math

import numpy as np
import pytest

from levydens import modelio
from levydens.cli import run
from levydens.inversion import invert_grid
from levydens.levy_core import builtin_model
from levydens.rearrangement import nu_dist


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_csv_output(capsys):
    code, out, err = _run(capsys, "psi", "--model", "builtin:gaussian",
                          "--xi", "0:2:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("subcommand = psi" in ln for ln in header)
    assert any("digest" in ln for ln in header)
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert rows[0] == "xi,re_psi,im_psi"
    last = rows[-1].split(",")
    assert float(last[0]) == 2.0
    assert float(last[1]) == pytest.approx(4.0)


def _psi_rows(out):
    return [[float(v) for v in ln.split(",")] for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln[0] in "-0123456789"]


@pytest.mark.parametrize("name", ["tempered_stable", "gamma", "exa3_atoms"])
def test_psi_rows_are_eval_psi(capsys, name):
    # one array pass on the engine, not the exponent table: each row is
    # eval_psi at its node
    from levydens.levy_core import eval_psi
    code, out, _ = _run(capsys, "psi", "--model", f"builtin:{name}", "--xi", "-20:20:0.37")
    assert code == 0
    m = builtin_model(name)
    for xi, re, im in _psi_rows(out):
        want = eval_psi(m, xi)
        assert abs(complex(re, im) - want) <= 4e-16 * abs(want)


@pytest.mark.parametrize("grid", ["1e100:2e100:1e100", "1e200:2e200:1e200"])
def test_psi_far_out_is_finite(capsys, grid):
    code, out, err = _run(capsys, "psi", "--model", "builtin:tempered_stable", "--xi", grid)
    assert code == 0 and err == ""
    rows = _psi_rows(out)
    assert len(rows) == 2 and all(math.isfinite(re) for _, re, _ in rows)


def test_psi_past_the_float_range_names_xi(capsys):
    code, out, err = _run(capsys, "psi", "--model", "builtin:tempered_stable",
                          "--xi", "1e250:2e250:1e250")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "xi" in err


def test_density_hits_zero_node_exactly(capsys):
    code, out, _ = _run(capsys, "density", "--model", "builtin:gaussian",
                        "--t", "1", "--grid", "-2:2:0.5")
    assert code == 0
    rows = {ln.split(",")[0]: ln for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln[0] in "-0123456789"}
    assert "0.0" in rows
    val = float(rows["0.0"].split(",")[1])
    assert val == pytest.approx(0.2820947917738781, rel=1e-9)


def test_density_json_format(capsys):
    code, out, _ = _run(capsys, "density", "--model", "builtin:gaussian",
                        "--t", "1", "--grid", "-8:8:0.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["subcommand"] == "density"
    assert doc["mass"] == pytest.approx(1.0, abs=1e-4)


def test_density_on_a_square_lattice_in_dim_2(capsys):
    code, out, _ = _run(capsys, "density", "--model", "builtin:cauchy:dim=2",
                        "--t", "1", "--grid", "-1:1:0.25")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "x,y,p"
    xs = np.linspace(-1.0, 1.0, 9)
    got = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    assert got.shape == (81, 3)
    want = invert_grid(builtin_model("cauchy", dim=2), 1.0, (xs, xs)).values
    np.testing.assert_array_equal(got[:, 0], np.repeat(xs, 9))
    np.testing.assert_array_equal(got[:, 1], np.tile(xs, 9))
    np.testing.assert_array_equal(got[:, 2], want.ravel())


@pytest.mark.parametrize("dim", [2, 3])
def test_routes_read_the_triplet_not_the_isotropic_key(tmp_path, capsys, dim):
    # an isotropic stable file without the key takes the ball and radial
    # routes, and prints what the file with "isotropic": true prints
    doc = modelio.model_to_dict(builtin_model("stable", dim=dim, alpha=1.5))
    del doc["isotropic"]
    outs = []
    for i, key in enumerate(({}, {"isotropic": True})):
        path = tmp_path / f"stable{i}.json"
        path.write_text(json.dumps({**doc, **key}))
        rows = []
        for argv in (("nu-dist", "--x-max", "10"), ("asymptotics",), ("ratio-limit",)):
            code, out, err = _run(capsys, *argv, "--model", str(path))
            assert code == 0 and err == ""
            rows.append([ln for ln in out.splitlines()
                         if "digest" not in ln and "model" not in ln])
        outs.append(rows)
    assert outs[0] == outs[1]
    if dim == 2:
        assert abs(nu_dist(modelio.load_model(tmp_path / "stable0.json"), 1.0) - math.pi) <= 1e-12


def test_refusal_exit_code_and_payload(capsys):
    code, out, _ = _run(capsys, "density", "--model", "builtin:sym_gamma",
                        "--t", "0.4", "--grid", "-2:2:0.5")
    assert code == 2
    doc = json.loads(out)
    assert "refusal" in doc


def test_error_exit_code(capsys):
    code, out, err = _run(capsys, "psi", "--model", "builtin:nope",
                          "--xi", "0:1:0.5")
    assert code == 1
    assert "error:" in err
    code2, _, err2 = _run(capsys, "density", "--model", "builtin:gaussian",
                          "--t", "1", "--grid", "backwards")
    assert code2 == 1


def test_diagnose_hw(capsys):
    code, out, _ = _run(capsys, "diagnose", "hw", "--model",
                        "builtin:sym_gamma", "--k", "4:24", "--t", "0.75")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "bounded"
    assert doc["threshold_compare"]["pass"] is True


def test_diagnose_hw_phi_needs_phi_model(capsys):
    code, _, err = _run(capsys, "diagnose", "hw-phi", "--model",
                        "builtin:gaussian", "--k", "4:10")
    assert code == 1
    assert "phi-model" in err


def test_classify(capsys):
    code, out, _ = _run(capsys, "classify", "--model", "builtin:exa4_atoms",
                        "--t-list", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no density (Re psi does not diverge)"


def test_nu_dist_table(capsys):
    code, out, _ = _run(capsys, "nu-dist", "--model", "builtin:gaussian",
                        "--x-max", "10", "--x-min", "0.1")
    assert code == 0
    rows = [ln for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln[0].isdigit()]
    x, nu = (float(v) for v in rows[-1].split(","))
    assert nu == pytest.approx(2.0 * x ** 0.5, rel=1e-8)


def test_nu_dist_table_has_no_inf_rows_where_nu_is_finite(capsys):
    # ln(1 + xi^2) <= x has length 2 sqrt(e^x - 1), finite for every x
    code, out, _ = _run(capsys, "nu-dist", "--model", "builtin:sym_gamma",
                        "--x-max", "100")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert float(rows[-1][0]) == pytest.approx(100.0)
    for x, nu in rows:
        want = 2.0 * math.sqrt(math.expm1(float(x)))
        assert float(nu) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bounds, field", [
    (("--x-max", "inf"), "x_max"),
    (("--x-max", "10", "--x-min", "nan"), "x_min"),
])
def test_nu_dist_rejects_non_finite_bounds(capsys, bounds, field):
    code, out, err = _run(capsys, "nu-dist", "--model", "builtin:gaussian", *bounds)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


def test_nu_dist_out_of_reach_names_x_max(capsys):
    # tempered_stable's engine overflows near |xi| = 4e200 (Re psi ~ 6e300),
    # below the level 1e305: a typed error naming the bound
    code, out, err = _run(capsys, "nu-dist", "--model", "builtin:tempered_stable",
                          "--x-max", "1e305")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "x_max" in err


def test_ratio_limit_subcommand(capsys):
    code, out, _ = _run(capsys, "ratio-limit", "--model", "builtin:cauchy",
                        "--delta", "1", "--x", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratios"][-1] == pytest.approx(1.0, abs=1e-5)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = _run(capsys, "psi", "--model", "builtin:gaussian",
                        "--xi", "0:1:0.5", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "xi,re_psi,im_psi" in target.read_text()


def test_model_file_source(tmp_path, capsys):
    path = tmp_path / "m.json"
    modelio.save_model(builtin_model("gaussian"), path)
    code, out, _ = _run(capsys, "psi", "--model", str(path), "--xi", "0:1:1")
    assert code == 0


def test_negative_grid_bounds_parse(capsys):
    code, _, _ = _run(capsys, "density", "--model", "builtin:gaussian",
                      "--t", "1", "--grid", "-1:1:0.5")
    assert code == 0


def test_exponent_grid_spec_after_space(capsys):
    code, out, _ = _run(capsys, "density", "--model", "builtin:gaussian",
                        "--t", "1", "--grid", "-1e-1:1e-1:1e-2")
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln and ln[0] in "-0123456789"]) == 21


def test_usage_error_exit_code(capsys):
    # a usage error is an error (1), not the refusal verdict (2)
    with pytest.raises(SystemExit) as exc:
        run(["density", "--model", "builtin:gaussian", "--t", "1"])
    assert exc.value.code == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("--model", "builtin:gaussian", "--t", "inf"), "t="),
    (("--model", "builtin:stable:alpha=nan", "--t", "1"), "'alpha'"),
    (("--model", "builtin:exa4_atoms:levels=-3", "--t", "1"), "'levels'"),
])
def test_density_rejects_bad_input(capsys, argv, field):
    # each ends in a typed error naming the field: no NaN output, no
    # traceback and no refusal of a silently empty model
    code, out, err = _run(capsys, "density", *argv, "--grid", "-1:1:0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


def test_ratio_limit_rejects_nan_delta(capsys):
    # NaN passes the sign checks; it must end in an error, not a refusal
    code, out, err = _run(capsys, "ratio-limit", "--model", "builtin:cauchy",
                          "--delta", "nan")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "delta" in err


@pytest.mark.parametrize("argv, spec", [
    (("psi", "--model", "builtin:gaussian", "--xi", "0:inf:1"), "0:inf:1"),
    (("density", "--model", "builtin:gaussian", "--t", "1", "--grid=-1:1:nan"),
     "-1:1:nan"),
    (("density", "--model", "builtin:cauchy", "--t", "1", "--grid", "0:1e9:1e-3"),
     "0:1e9:1e-3"),
    (("density", "--model", "builtin:gaussian", "--t", "1", "--grid", "-1:1:nan"),
     "-1:1:nan"),
])
def test_grid_spec_rejected(capsys, argv, spec):
    # non-finite parts and node counts past the cap end in a typed error
    # naming the spec, not in a traceback or an allocation failure
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"'{spec}'" in err


@pytest.mark.parametrize("text, field", [
    ('{"dim": 1, "drift": [0.0], "gaussian": [[0.0]], "measure": {"variant": "atoms",'
     ' "atoms": [{"mass": 1, "radius": Infinity}]}}', "measure.atoms[0].radius"),
    ('{"dim": 1, "drift": [NaN], "gaussian": [[2.0]], "measure": {"variant": "none"}}',
     "drift[0]"),
])
def test_model_file_with_non_finite_number(tmp_path, capsys, text, field):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = _run(capsys, "density", "--model", str(path), "--t", "1",
                          "--grid", "-1:1:0.5")
    assert code == 1
    assert f"field '{field}'" in err and "Traceback" not in err
