import json

import numpy as np
import pytest

from setvi.cli import main

QUAD_DOC = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"generator": {"name": "quadratic_vector", "params": {"targets": [0, 1]},
                          "domain_grid": {"from": [-1], "to": [2], "steps": 13}}},
    "base_points": [[0.5]],
    "settings": {"tau_strict": 1e-6,
                 "dini": {"t_max": 1e-4, "ratio": 0.5, "steps": 12},
                 "wstar_density": 9},
}

HYPER_DOC = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"tabulated": [
        {"x": [0], "points": [[0, 0]]},
        {"x": [1], "points": [[0.01, 100.0], [1.0, 1.0], [100.0, 0.01]]},
    ]},
}


@pytest.fixture()
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(QUAD_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture()
def hyper_file(tmp_path):
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(HYPER_DOC), encoding="utf-8")
    return str(path)


def test_chain_confirms_and_exits_zero(quad_file, capsys):
    assert main(["chain", quad_file]) == 0
    out = capsys.readouterr().out
    assert "CONFIRMED" in out and "VIOLATED" not in out


def test_minimality_fails_exits_one(tmp_path, capsys):
    doc = dict(QUAD_DOC, base_points=[[2.0]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["minimality", str(path)]) == 1
    assert "FAILS" in capsys.readouterr().out


def test_minimality_borderline_exits_three(tmp_path):
    doc = {
        "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
        "map": {"tabulated": [
            {"x": [0], "points": [[0, 0]]},
            {"x": [1], "points": [[-5e-10, -5e-10]]},
        ]},
        "base_points": [[0]],
    }
    path = tmp_path / "border.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["minimality", str(path)]) == 3


def test_missing_file_exits_two(capsys):
    assert main(["chain", "/nonexistent/problem.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_usage_exits_two(capsys):
    assert main(["vi"]) == 2          # missing required arguments
    assert main(["not-a-command"]) == 2


def test_relations_prints_hyperbola_margin(hyper_file, capsys):
    assert main(["relations", hyper_file, "--a", "0", "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert "margin 0.01" in out
    assert "A(.0) < B(.1): True" in out


def test_json_report_is_valid_and_carries_settings(quad_file, capsys):
    assert main(["vi", quad_file, "--kind", "svi", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "vi"
    assert payload["settings"]["tau_strict"] == 1e-6
    assert payload["base_points"][0]["verdict"] == "HOLDS"


def test_vi_dominated_point_exits_one(tmp_path):
    doc = dict(QUAD_DOC, base_points=[[2.0]])
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["vi", str(path), "--kind", "svi"]) == 1


def test_mvt_reports_witnesses(quad_file, capsys):
    assert main(["mvt", quad_file, "--ray", "0,1", "--density", "3"]) == 0
    assert "found for every sampled weight" in capsys.readouterr().out


def test_convexity_report(quad_file, capsys):
    assert main(["convexity", quad_file]) == 0
    out = capsys.readouterr().out
    assert "cone convexity: HOLDS" in out


def test_suite_small_run_exits_zero(capsys):
    assert main(["suite", "--instances", "2", "--seed", "5"]) == 0
    assert "violated: 0" in capsys.readouterr().out


def test_suite_json_identical_across_runs(capsys):
    assert main(["suite", "--instances", "3", "--seed", "9", "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["suite", "--instances", "3", "--seed", "9", "--output", "json"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_convexity_on_tabulated_problem(tmp_path, capsys):
    # five stored samples: some pair combinations (0.375, ...) are not
    # stored, and the rays to the neighbours of 0.5 hold only their ends
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    doc = {"cone": QUAD_DOC["cone"],
           "map": {"tabulated": [{"x": [x], "points": [[x * x, (1 - x) ** 2]]}
                                 for x in xs]},
           "base_points": [[0.5]]}
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["convexity", str(path), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c_convexity"]["verdict"] == "HOLDS"
    assert report["c_convexity"]["resolution"]["pairs"] > 0
    skipped = [p["x"] for p in report["paths"] if "skipped" in p]
    classified = [p["x"] for p in report["paths"] if "skipped" not in p]
    assert skipped == [[0.25], [0.75]]
    assert classified == [[0.0], [1.0]]


def test_unknown_settings_key_exits_two(tmp_path, capsys):
    doc = dict(QUAD_DOC, settings={"wstar_densty": 9})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["minimality", str(path)]) == 2
    assert "wstar_densty" in capsys.readouterr().err


def test_console_entry_point_help():
    assert main(["--help"]) == 0
