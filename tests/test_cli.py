import json
import math
import subprocess
import sys

import pytest

import fuzzfix as fx
from fuzzfix.cli import main, parse_config


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
    assert cfg.g.apply(cfg.space, 0.3) == 0.3


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


def test_solve_requires_f_not_T(tmp_path, capsys):
    doc = dict(MULTI)
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(path)]) == 2


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
