import json
import math
import re
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fuzzfix as fx
from conftest import raises_exactly
from fuzzfix.cli import COMMANDS, main, parse_config, run
from fuzzfix.errors import ValidationError


FLAGSHIP = {
    "space": {"kind": "interval", "lo": 0.0, "hi": 1.0},
    "tnorm": "product",
    "phi": {"kind": "induced", "k": 0.5, "cap": 1.0},
    "f": {"kind": "affine", "a": 0.5, "b": 0.0},
    "g": {"kind": "affine", "a": -1.0, "b": 1.0},
    "solver": {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "t0": 2.0},
    "verification": {"samples": 400, "seed": 0, "grid": 11},
    "query": {"x": 0.0, "y": 1.0},
}

MULTI = {
    "space": {
        "kind": "finite",
        "points": ["0", "0.1", "1"],
        "dist": [[0.0, 0.1, 1.0], [0.1, 0.0, 0.9], [1.0, 0.9, 0.0]],
    },
    "tnorm": "product",
    "phi": {"kind": "induced", "k": 0.5, "cap": 1.0},
    "T": {"kind": "setvalued", "map": {"0": ["0"], "0.1": ["0"], "1": ["0", "0.1"]}},
    "solver": {"start": "1", "epsilon": 1e-3, "lambda": 1e-3, "t0": 2.0},
    "verification": {"samples": 200, "seed": 0, "grid": 11},
}

BAD_CONTRACTION = {
    "space": {"kind": "interval", "lo": 0.0, "hi": 1.0},
    "tnorm": "product",
    "phi": {"kind": "linear", "k": 0.5},
    "f": {"kind": "affine", "a": 0.5, "b": 0.0},
    "solver": {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "t0": 2.0},
    "verification": {"samples": 200, "seed": 0, "grid": 11},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


# -------------------------------------------------------------- parsing


def test_parse_flagship_roundtrip():
    cfg = parse_config(json.dumps(FLAGSHIP))
    assert isinstance(cfg.space, fx.IntervalSpace)
    assert cfg.norm.variant == "product"
    assert isinstance(cfg.phi, fx.InducedPhi)
    assert isinstance(cfg.f, fx.AffineMap)
    assert isinstance(cfg.g, fx.AffineBijection)
    assert cfg.solver.t0 == 2.0
    assert cfg.query == (0.0, 1.0)


def test_parse_error_carries_position():
    with pytest.raises(fx.ParseError) as err:
        parse_config("{not json")
    assert "line 1" in str(err.value)


def test_t0_must_exceed_one():
    doc = dict(FLAGSHIP, solver=dict(FLAGSHIP["solver"], t0=0.5))
    with pytest.raises(fx.ValidationError) as err:
        parse_config(json.dumps(doc))
    assert "t0" in str(err.value)


def test_degenerate_g_rejected():
    doc = dict(FLAGSHIP, g={"kind": "affine", "a": 0.0, "b": 0.0})
    with pytest.raises(fx.ValidationError) as err:
        parse_config(json.dumps(doc))
    assert "g" in str(err.value)


def test_missing_space_rejected():
    with pytest.raises(fx.ValidationError):
        parse_config(json.dumps({"tnorm": "product"}))


def test_g_defaults_to_identity():
    cfg = parse_config(json.dumps(BAD_CONTRACTION))
    assert cfg.g.apply(0.3) == 0.3


def test_unknown_tnorm_rejected():
    with pytest.raises(fx.ValidationError):
        parse_config(json.dumps(dict(FLAGSHIP, tnorm="hamacher")))


def test_setvalued_parse():
    cfg = parse_config(json.dumps(MULTI))
    assert cfg.setvalued.image("1") == ("0", "0.1")


# ------------------------------------------------------------- commands


def test_solve_command(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    trace = tmp_path / "trace.txt"
    code = main(["solve", "--config", str(path), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["result"]["point"] - 2.0 / 3.0) <= 1e-6
    assert payload["result"]["converged"] is True
    lines = trace.read_text().splitlines()
    assert len(lines) == payload["result"]["iterations"]
    first = lines[0].split()
    assert first[0] == "1"
    assert float(first[1]) == 1.0  # x1 = g^{-1}(f(0)) = 1 - 0 = 1
    # 17 significant digits round-trip exactly
    assert float(first[2]) == float(first[2])


def test_check_contraction_negative_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, BAD_CONTRACTION)
    code = main(["check-contraction", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdicts"]["contraction"]["passed"] is False
    assert payload["counterexamples"]
    ce = payload["counterexamples"][0]
    assert ce["x"] == 0.0 and ce["y"] == 1.0
    # every emitted counterexample replays through the library
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    phi = fx.LinearPhi(0.5)
    for entry in payload["counterexamples"]:
        antecedent = fm.membership(entry["x"], entry["y"], entry["t"])
        scaled = phi.eval(entry["t"])
        consequent = fm.membership(0.5 * entry["x"], 0.5 * entry["y"], scaled)
        assert antecedent == entry["antecedent"] > 1.0 - entry["t"]
        assert consequent == entry["consequent"] <= 1.0 - scaled


def test_check_contraction_flagship_passes(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    code = main(["check-contraction", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdicts"]["contraction"]["passed"] is True


def test_check_axioms_command(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    code = main(["check-axioms", "--config", str(path), "--samples", "300"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdicts"]["tnorm"]["passed"] is True
    assert payload["verdicts"]["fm_axioms"]["passed"] is True
    assert payload["samples"] == 300


def test_check_phi_command(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    assert main(["check-phi", "--config", str(path)]) == 0
    capsys.readouterr()
    bad = dict(FLAGSHIP, phi={"kind": "table", "points": [[0.0, 0.0], [1.0, 1.5]]})
    path2 = write_config(tmp_path, bad, "bad.json")
    assert main(["check-phi", "--config", str(path2)]) == 1


def test_check_phi_flags_a_drop_between_grid_points(tmp_path, capsys):
    # The drop from 0.1 to 0.01 at t = 0.21 lies between the grid points.
    points = [[0.0, 0.0], [0.2, 0.1], [0.21, 0.01], [0.24, 0.1]]
    path = write_config(tmp_path, dict(FLAGSHIP, phi={"kind": "table", "points": points}))
    assert main(["check-phi", "--config", str(path)]) == 1
    law = json.loads(capsys.readouterr().out)["verdicts"]["phi_class"]["laws"][0]
    assert law["name"] == "nondecreasing"
    assert law["witnesses"] == [[0.2, 0.21, 0.1, 0.01]]


def test_check_phi_uses_the_solvers_range(tmp_path, capsys):
    # phi(3) = 3.5 lies above the identity: outside (0, 2], inside (0, t0].
    phi = {"kind": "table", "points": [[0, 0], [0.5, 0.25], [3, 3.5]]}
    doc = dict(FLAGSHIP, phi=phi)
    path = write_config(tmp_path, doc)
    assert main(["check-phi", "--config", str(path)]) == 0
    capsys.readouterr()
    path = write_config(tmp_path, dict(doc, solver=dict(FLAGSHIP["solver"], t0=5)), "t0.json")
    assert main(["check-phi", "--config", str(path)]) == 1
    law = json.loads(capsys.readouterr().out)["verdicts"]["phi_class"]["laws"][1]
    assert law["name"] == "below_identity"
    assert law["witnesses"] == [[3.0, 3.5]]
    assert main(["solve", "--config", str(path)]) == 1
    failure = json.loads(capsys.readouterr().out)["verdicts"]["hypothesis_failure"]
    assert failure["error"] == "PhiInvalid"


def test_rational_solve_past_a_million_steps_reports(tmp_path, capsys):
    solver = {**FLAGSHIP["solver"], "epsilon": 1e-7, "lambda": 1e-7}
    path = write_config(tmp_path, dict(FLAGSHIP, phi={"kind": "rational"}, solver=solver))
    code = main(["solve", "--config", str(path)])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 1
    assert result["converged"] is False
    assert result["horizon_used"] == math.ceil(1 / 1e-7 - 1 / 2.0)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, token):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FLAGSHIP).replace('"epsilon": 0.001', f'"epsilon": {token}'))
    assert token in path.read_text()
    assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_threshold_command(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    code = main(["threshold", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["result"]["tau"] == pytest.approx(0.618034, abs=1e-6)


def test_induce_phi_command(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    code = main(["induce-phi", "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["result"]["k"] == 0.5
    assert payload["result"]["anchor"] == 0.5  # crossing time of k * cap
    assert payload["verdicts"]["phi_class"]["passed"] is True


def test_solve_set_command(tmp_path, capsys):
    path = write_config(tmp_path, MULTI)
    trace = tmp_path / "orbit.txt"
    code = main(["solve-set", "--config", str(path), "--trace", str(trace)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["result"]["point"] == "0"
    assert payload["result"]["in_image"] is True
    assert trace.read_text().splitlines()[0].split()[1] == "0.1"


# The command and base config each section's malformed cases run with.
SECTION_RUNS = {
    "space": ("check-axioms", FLAGSHIP),
    "phi": ("check-phi", FLAGSHIP),
    "f": ("check-contraction", FLAGSHIP),
    "g": ("check-contraction", FLAGSHIP),
    "T": ("solve-set", MULTI),
    "solver": ("solve", FLAGSHIP),
    "query": ("threshold", FLAGSHIP),
    "verification": ("check-axioms", FLAGSHIP),
}
ABSENT = object()
# (section, case, value or ABSENT to drop the section, stderr message);
# the message of an absent section is only checked to name it.
MALFORMED = (
    ("space", "not_object", 3, "space: must be an object"),
    ("space", "unknown_kind", {"kind": "torus"}, "space: unknown kind 'torus'"),
    ("space", "missing_field", {"kind": "interval", "lo": 0.0}, "space: missing field 'hi'"),
    ("space", "bad_value", {"kind": "interval", "lo": 1.0, "hi": 0.0}, "space: interval requires lo < hi"),
    ("space", "absent", ABSENT, None),
    ("phi", "not_object", [1], "phi: must be an object"),
    ("phi", "unknown_kind", {"kind": "cubic"}, "phi: unknown kind 'cubic'"),
    ("phi", "missing_field", {"kind": "linear"}, "phi: missing field 'k'"),
    ("phi", "bad_value", {"kind": "linear", "k": 1.5}, "phi: linear ratio must lie in (0, 1), got 1.5"),
    ("phi", "absent", ABSENT, None),
    ("f", "not_object", "x", "f: must be an object"),
    ("f", "unknown_kind", {"kind": "quadratic"}, "f: unknown kind 'quadratic'"),
    ("f", "missing_field", {"kind": "affine", "a": 0.5}, "f: missing field 'b'"),
    ("f", "bad_value", {"kind": "constant", "c": 5}, "f.c: 5.0 lies outside the space"),
    (
        "f",
        "table_not_object",
        {"kind": "table", "map": [1]},
        "f: field 'map' must be an object",
    ),
    ("f", "absent", ABSENT, None),
    ("g", "not_object", 1, "g: must be an object"),
    ("g", "unknown_kind", {"kind": "rotation"}, "g: unknown kind 'rotation'"),
    ("g", "missing_field", {"kind": "affine", "a": 1.0}, "g: missing field 'b'"),
    ("g", "bad_value", {"kind": "affine", "a": 0.0, "b": 0.0}, "g: affine bijection requires a != 0"),
    ("T", "not_object", [], 'T: must be an object with kind "setvalued"'),
    ("T", "unknown_kind", {"kind": "multi"}, 'T: must be an object with kind "setvalued"'),
    ("T", "missing_field", {"kind": "setvalued"}, "T: missing field 'map'"),
    ("T", "bad_value", {"kind": "setvalued", "map": {"0": []}}, "T.map['0']: image must be a nonempty list"),
    ("T", "absent", ABSENT, None),
    ("solver", "not_object", 2, "solver: must be an object"),
    ("solver", "missing_field", {"start": 0.0, "epsilon": 1e-3}, "solver: missing field 'lambda'"),
    (
        "solver",
        "bad_value",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1.5},
        "solver: lambda must lie strictly between 0 and 1",
    ),
    # 1 - lambda rounds to 1, so no grade could pass the stop test.
    (
        "solver",
        "unresolved_lambda",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-17},
        "solver: lambda must lie strictly between 0 and 1, with 1 - lambda below 1 in floats",
    ),
    ("solver", "absent", ABSENT, None),
    ("query", "not_object", "q", "query: must be an object"),
    ("query", "missing_field", {"x": 0.0}, "query: missing field 'y'"),
    ("query", "bad_value", {"x": 0.0, "y": 2.0}, "query.y: 2.0 lies outside the space"),
    ("query", "absent", ABSENT, None),
    ("verification", "not_object", [3], "verification: must be an object"),
    ("verification", "bad_value", {"samples": "many"}, "verification: field 'samples' must be an integer"),
    ("verification", "list_value", {"samples": [1]}, "verification: field 'samples' must be an integer"),
    # Typed fields: no value is truncated or coerced into another kind.
    ("verification", "fractional_samples", {"samples": 300.9}, "verification: field 'samples' must be an integer"),
    ("verification", "fractional_grid", {"grid": 2.5}, "verification: field 'grid' must be an integer"),
    ("verification", "boolean_seed", {"seed": True}, "verification: field 'seed' must be an integer"),
    (
        "space",
        "string_normalize",
        {"kind": "interval", "lo": 0.0, "hi": 4.0, "normalize": "false"},
        "space: field 'normalize' must be a boolean",
    ),
    ("space", "fractional_dim", {"kind": "euclidean", "dim": 2.5}, "space: field 'dim' must be an integer"),
    ("space", "null_dim", {"kind": "euclidean", "dim": None}, "space: field 'dim' must be an integer"),
    ("space", "string_bound", {"kind": "interval", "lo": "0", "hi": 1.0}, "space: field 'lo' must be a number"),
    ("space", "numeric_label", {"kind": "finite", "points": [1], "dist": [[0]]}, "space: labels must be nonempty strings without whitespace"),
    # Shaped fields: a list, a list of lists or an object, never a string or
    # another container read as one.
    ("space", "string_points", {"kind": "finite", "points": "ab", "dist": [[0, 1], [1, 0]]}, "space: field 'points' must be a list"),
    (
        "space",
        "object_points",
        {"kind": "finite", "points": {"a": 1, "b": 2}, "dist": [[0, 1], [1, 0]]},
        "space: field 'points' must be a list",
    ),
    ("space", "object_dist", {"kind": "finite", "points": ["a"], "dist": {"a": [0]}}, "space: field 'dist' must be a list of lists"),
    ("space", "string_rows", {"kind": "finite", "points": ["a", "b"], "dist": ["01", "10"]}, "space: field 'dist' must be a list of lists"),
    ("f", "table_of_pairs", {"kind": "table", "map": [["a", "b"], ["b", "a"]]}, "f: field 'map' must be an object"),
    ("g", "listed_permutation", {"kind": "permutation", "map": ["ab", "ba"]}, "g: field 'map' must be an object"),
    ("T", "listed_map", {"kind": "setvalued", "map": [["0", ["0"]]]}, "T: field 'map' must be an object"),
    ("T", "empty_map", {"kind": "setvalued", "map": {}}, "T: set-valued map needs a nonempty domain"),
    ("phi", "boolean_ratio", {"kind": "linear", "k": True}, "phi: field 'k' must be a number"),
    ("phi", "string_breakpoint", {"kind": "table", "points": [[0, "0"]]}, "phi: '0' is not a number"),
    (
        "solver",
        "fractional_max_iter",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "max_iter": 10.5},
        "solver: field 'max_iter' must be an integer",
    ),
    (
        "solver",
        "fractional_window",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "window": 2.5},
        "solver: field 'window' must be an integer",
    ),
    ("solver", "string_start", {"start": "0.5", "epsilon": 1e-3, "lambda": 1e-3}, "solver.start: '0.5' is not a number"),
    # Empty containers of another shape are no empty list of times.
    (
        "solver",
        "object_residual_times",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "residual_times": {}},
        "solver: field 'residual_times' must be a list",
    ),
    (
        "solver",
        "string_residual_times",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "residual_times": ""},
        "solver: field 'residual_times' must be a list",
    ),
    (
        "solver",
        "string_residual_time",
        {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3, "residual_times": [0.1, "x"]},
        "solver: 'x' is not a number",
    ),
    ("query", "string_point", {"x": "0.5", "y": 1.0}, "query.x: '0.5' is not a number"),
)


@pytest.mark.parametrize(
    "section,value,message",
    [(section, value, message) for section, _, value, message in MALFORMED],
    ids=[f"{section}-{case}" for section, case, _, _ in MALFORMED],
)
def test_malformed_section_is_usage_error(tmp_path, capsys, section, value, message):
    command, base = SECTION_RUNS[section]
    doc = {key: raw for key, raw in base.items() if key != section}
    if value is not ABSENT:
        doc[section] = value
    assert main([command, "--config", str(write_config(tmp_path, doc))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if message is None:
        assert section in err
    else:
        assert err == f"config error: {message}\n"


def test_null_optional_field_takes_its_default():
    # JSON null in an optional field reads as the field left out.
    doc = {"space": {"kind": "euclidean", "dim": 2, "bound": None, "normalize": None}, "verification": {"samples": None}}
    cfg = parse_config(json.dumps(doc))
    assert cfg.space == fx.EuclideanSpace(2)
    assert cfg.samples == 10000
    solver = {"start": 0.0, "epsilon": 1e-3, "lambda": 1e-3}
    cfg = parse_config(json.dumps({**FLAGSHIP, "solver": {**solver, "residual_times": None}}))
    assert cfg.solver == parse_config(json.dumps({**FLAGSHIP, "solver": solver})).solver
    assert cfg.solver.residual_times is None


def test_empty_residual_times_stay_empty():
    cfg = parse_config(json.dumps({**FLAGSHIP, "solver": {**FLAGSHIP["solver"], "residual_times": []}}))
    assert cfg.solver.residual_times == ()
    report, code = fx.run("solve", cfg)
    assert json.loads(fx.render_report(report))["result"]["residuals"] == []
    assert code == 0


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@seed(20070)
@settings(max_examples=200, deadline=None, database=None)
@given(
    doc=st.sampled_from([FLAGSHIP, MULTI]),
    section=st.sampled_from(["space", "phi", "f", "g", "T", "solver", "verification", "query", "tnorm"]),
    field=st.sampled_from([None, "kind", "lo", "hi", "dim", "points", "dist", "normalize", "k", "cap", "a", "b",
                           "c", "map", "start", "epsilon", "lambda", "t0", "max_iter", "window", "residual_times",
                           "samples", "seed", "grid", "x", "y"]),
    value=json_values,
)
def test_fuzzed_config_raises_only_config_or_value_errors(doc, section, field, value):
    # One section, or one field of it, replaced by an arbitrary JSON value:
    # parsing either succeeds or fails with an error the CLI turns into exit 2.
    doc = json.loads(json.dumps(doc))
    if field is None or not isinstance(doc.get(section), dict):
        doc[section] = value
    else:
        doc[section][field] = value
    try:
        parse_config(json.dumps(doc))
    except (fx.ConfigError, ValueError):
        pass


@pytest.mark.parametrize("command", ["check-contraction", "induce-phi"])
def test_induced_cap_whose_crossing_rounds_to_one_is_usage_error(tmp_path, capsys, command):
    # crossing_time(1e16) rounds to 1.0, where eval would divide by 1 - t = 0.
    path = write_config(tmp_path, dict(FLAGSHIP, phi={"kind": "induced", "k": 0.5, "cap": 1e16}))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: phi: cap")


@pytest.mark.parametrize("command", ["check-contraction", "check-axioms", "threshold"])
@pytest.mark.parametrize(
    "space, query",
    [
        ({"kind": "interval", "lo": -1e308, "hi": 1e308}, (0.0, 1.0)),
        ({"kind": "euclidean", "dim": 2, "bound": 1e308}, ([0.0, 0.0], [1.0, 0.0])),
        ({"kind": "euclidean", "dim": 3, "bound": 1e308}, ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])),
    ],
    ids=["interval", "box2", "box3"],
)
def test_space_whose_diameter_overflows_is_usage_error(tmp_path, capsys, command, space, query):
    doc = dict(BAD_CONTRACTION, space=space, phi={"kind": "induced", "k": 0.5, "cap": 1e12})
    doc.update(solver=dict(doc["solver"], start=query[0]), query={"x": query[0], "y": query[1]})
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--samples", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: space: ")


@pytest.mark.parametrize(
    "space, x, y",
    [
        ({"kind": "euclidean", "dim": 2}, [-1e308, 0.0], [1e308, 0.0]),
        ({"kind": "euclidean", "dim": 2}, [1.5e308, 1.5e308], [0.0, 0.0]),
        ({"kind": "euclidean", "dim": 1}, 1e308, -1e308),
    ],
    ids=["plane", "diagonal", "line"],
)
def test_query_whose_distance_overflows_is_usage_error(tmp_path, capsys, space, x, y):
    # Two finite points of an unbounded space can lie farther apart than
    # the largest float; the crossing time of an infinite distance is no answer.
    path = write_config(tmp_path, {"space": space, "query": {"x": x, "y": y}})
    assert main(["threshold", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: query: the distance of ")


def test_query_on_a_normalized_unbounded_space_stays_finite(tmp_path, capsys):
    # Under normalization the distance of the same points rounds to 1.
    doc = {"space": {"kind": "euclidean", "dim": 2, "normalize": True}}
    doc["query"] = {"x": [-1e308, 0.0], "y": [1e308, 0.0]}
    assert main(["threshold", "--config", str(write_config(tmp_path, doc))]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["tau"] == fx.onset(1.0)


@pytest.mark.parametrize("start, max_iter, step", [([1e300, 0.0], 100, 28), ([1.0, -1.0], 2000, 1024)])
def test_orbit_that_leaves_the_finite_floats_is_a_hypothesis_failure(tmp_path, capsys, start, max_iter, step):
    # f = 2x doubles the orbit until it overflows to inf: the report says at
    # which step, exits 1 and writes no trace.
    doc = dict(BAD_CONTRACTION, space={"kind": "euclidean", "dim": 2}, f={"kind": "affine", "a": 2.0, "b": 0.0})
    doc["solver"] = dict(doc["solver"], start=start, max_iter=max_iter)
    trace = tmp_path / "trace.txt"
    assert main(["solve", "--config", str(write_config(tmp_path, doc)), "--trace", str(trace)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is None
    message = f"the orbit leaves the finite floats at step {step}"
    assert payload["verdicts"] == {"hypothesis_failure": {"error": "OverflowError", "message": message}}
    assert not trace.exists()


def test_replayed_distance_that_is_not_a_number_is_a_hypothesis_failure(tmp_path, capsys):
    # f = 1e308 x sends the first coordinates of a kept pair both to -inf, so
    # the distance of their images is inf - inf: the report says so and
    # stays valid JSON instead of printing a NaN consequent.
    doc = {
        "space": {"kind": "euclidean", "dim": 2},
        "phi": {"kind": "linear", "k": 0.5},
        "f": {"kind": "affine", "a": 1e308, "b": 0.0},
    }
    assert main(["check-contraction", "--config", str(write_config(tmp_path, doc)), "--samples", "2000"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is None and payload["counterexamples"] == []
    failure = payload["verdicts"]["hypothesis_failure"]
    assert failure["error"] == "OverflowError"
    assert failure["message"].endswith("overflow: their distance is not a number")


def _run_json(command, path, capsys):
    code = main([command, "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    del payload["config_digest"]
    return code, payload


def test_bare_number_on_a_line_is_its_one_tuple(tmp_path, capsys):
    # On a 1-D Euclidean space a config may write a point as a bare number:
    # threshold and solve then report what the 1-tuple point gives.
    line = {"kind": "euclidean", "dim": 1}
    runs = []
    for x, y, start in ((0.25, -1.5, 0.75), ([0.25], [-1.5], [0.75])):
        doc = dict(BAD_CONTRACTION, space=line, query={"x": x, "y": y})
        doc["solver"] = dict(doc["solver"], start=start)
        path = write_config(tmp_path, doc)
        runs.append([_run_json(command, path, capsys) for command in ("threshold", "solve")])
    assert runs[0] == runs[1]
    (code, threshold), (solved, solve) = runs[0]
    assert code == 0 and threshold["result"]["x"] == [0.25] and threshold["result"]["tau"] == fx.onset(1.75)
    assert solved == 0 and solve["result"]["converged"] is True and len(solve["result"]["point"]) == 1


@pytest.mark.parametrize("command, where", [("threshold", "query.x"), ("solve", "solver.start")])
def test_bare_number_on_a_plane_is_usage_error(tmp_path, capsys, command, where):
    doc = dict(BAD_CONTRACTION, space={"kind": "euclidean", "dim": 2}, query={"x": [0.0, 0.0], "y": [0.0, 0.0]})
    doc["solver"] = dict(doc["solver"], start=[0.0, 0.0])
    section, field = where.split(".")
    doc[section] = dict(doc[section], **{field: 0.5})
    assert main([command, "--config", str(write_config(tmp_path, doc))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {where}: scalar point in a 2-dimensional space\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "verification, flags",
    [({"grid": 1}, []), ({"grid": -3}, []), ({"samples": 0}, []), ({}, ["--samples", "-5"])],
    ids=["grid-1", "grid-minus-3", "samples-0", "samples-flag-minus-5"],
)
def test_verification_values_below_their_least_are_usage_errors(tmp_path, capsys, command, verification, flags):
    # Every command rejects them, from the config or a flag, whether or not
    # it reads them: none is quietly clamped or echoed.
    base = MULTI if command == "solve-set" else FLAGSHIP
    doc = dict(base, verification=dict(base["verification"], **verification))
    assert main([command, "--config", str(write_config(tmp_path, doc)), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: verification: samples must be >= 1 and grid >= 2")


@pytest.mark.parametrize("command", COMMANDS)
def test_least_verification_values_run(tmp_path, capsys, command):
    base = MULTI if command == "solve-set" else FLAGSHIP
    doc = dict(base, verification=dict(base["verification"], samples=1, grid=2))
    assert main([command, "--config", str(write_config(tmp_path, doc))]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["samples"] == 1


def test_solve_requires_f_not_T(tmp_path, capsys):
    doc = dict(MULTI)
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(path)]) == 2


WITH_F_AND_T = {**MULTI, "f": {"kind": "table", "map": {"0": "0", "0.1": "0", "1": "0.1"}}}
# (id, command, config text, message): a usage error raised past parsing.
USAGE_ERRORS = (
    ("top-level-array", "check-axioms", "[]", "top level: must be an object"),
    ("solve-given-T", "solve", json.dumps(WITH_F_AND_T), "solve takes f, not T; use solve-set"),
    ("solve-set-given-f", "solve-set", json.dumps(WITH_F_AND_T), "solve-set takes T, not f; use solve"),
    ("check-given-f-and-T", "check-contraction", json.dumps(WITH_F_AND_T), "check-contraction takes exactly one of f and T"),
    (
        "check-given-neither",
        "check-contraction",
        json.dumps({k: v for k, v in MULTI.items() if k != "T"}),
        "check-contraction takes exactly one of f and T",
    ),
    ("induce-phi-on-linear", "induce-phi", json.dumps(BAD_CONTRACTION), 'induce-phi requires phi of kind "induced"'),
)


@pytest.mark.parametrize(
    "command, text, message", [row[1:] for row in USAGE_ERRORS], ids=[row[0] for row in USAGE_ERRORS]
)
def test_usage_error_exits_2_with_its_message(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_run_rejects_an_unknown_command():
    # The parser's choices keep it from main, so run is called directly.
    cfg = parse_config(json.dumps(FLAGSHIP))
    raises_exactly(lambda: run("solve-all", cfg), ValidationError, "unknown command 'solve-all'")


def test_missing_config_file_is_usage_error(capsys):
    assert main(["solve", "--config", "/nonexistent/config.json"]) == 2


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["check-axioms", "--config", str(path)]) == 2


def test_max_iter_flag_overrides(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    code = main(["solve", "--config", str(path), "--max-iter", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["result"]["converged"] is False
    assert payload["result"]["iterations"] == 2


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    outputs = []
    for _ in range(2):
        main(["check-contraction", "--config", str(path), "--seed", "5"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_traces_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    blobs = []
    for name in ("a.txt", "b.txt"):
        trace = tmp_path / name
        main(["solve", "--config", str(path), "--trace", str(trace)])
        capsys.readouterr()
        blobs.append(trace.read_bytes())
    assert blobs[0] == blobs[1]


def test_elapsed_time_has_microsecond_resolution(tmp_path, capsys):
    path = write_config(tmp_path, FLAGSHIP)
    assert main(["threshold", "--config", str(path)]) == 0
    assert re.fullmatch(r"elapsed_s=\d+\.\d{6}\n", capsys.readouterr().err)


def test_module_entrypoint_smoke(tmp_path):
    path = write_config(tmp_path, FLAGSHIP)
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzfix.cli", "threshold", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tau" in proc.stdout
    assert "elapsed_s=" in proc.stderr


def test_package_entrypoint_prints_no_warning(tmp_path):
    path = write_config(tmp_path, FLAGSHIP)
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "threshold", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        for module in ("fuzzfix", "fuzzfix.cli")
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert "Warning" not in runs[0].stderr
