import contextlib
import copy
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setvi.vi
from setvi.cli import main
from setvi.config import _DINI_RULES, _SETTING_RULES
from setvi.errors import InternalCheckError
from setvi.report import format_float, render_json
from setvi.setmap import _CATALOG, SCHEMA
from setvi.verdicts import Verdict

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

# the constant two-point antichain: F(x) + C is not convex anywhere
ANTICHAIN_DOC = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"generator": {"name": "constant_cloud",
                          "params": {"points": [[0, 1], [1, 0]]},
                          "domain_grid": {"from": [-1], "to": [1], "steps": 5}}},
}

# non-uniform samples with an empty value at x = 1.4; eps 0.3 fails the
# radial continuity check at x0 = 2, so the report carries its witness
NONUNIFORM_DOC = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"tabulated": [
        {"x": [x], "points": [] if x == 1.4 else
         [[(x - 0.1) ** 2 + 0.3, (x + 0.2) ** 2], [(x - 0.1) ** 2 + 1.0, (x + 0.2) ** 2 + 0.5]]}
        for x in (-2.0, -1.3, -0.9, -0.2, 0.0, 0.15, 0.6, 1.4, 1.5, 2.0)]},
    "base_points": [[0.0], [2.0]],
    "settings": {"tau_strict": 1e-6, "dini": {"t_max": 1e-3, "ratio": 0.5, "steps": 12},
                 "wstar_density": 9, "eps_list": [0.3, 3.0]},
}


def _tabulated_doc(seed):
    """A shifted, totally ordered two-point to four-point cloud on 41 samples."""
    rng = np.random.default_rng([seed, 0x7AB])
    xs = np.linspace(-2.0, 2.0, 41)
    p = int(rng.integers(2, 5))
    start = rng.uniform(-1.0, 1.0, size=2)
    segment = np.vstack([start, start + np.cumsum(rng.uniform(0.1, 1.0, size=(p - 1, 2)),
                                                  axis=0)])
    offset = rng.uniform(-1.0, 1.0, size=2)
    quadratic = rng.uniform(0.5, 1.5, size=2)
    centre = float(xs[int(rng.integers(10, 31))])
    table = [{"x": [float(x)],
              "points": (segment + offset + quadratic * (x - centre) ** 2).tolist()}
             for x in xs]
    lam = rng.uniform(0.5, 2.0, size=2)
    return {"cone": {"dual_generators": np.diag(lam).tolist(), "interior_point": [1.0, 1.0]},
            "map": {"tabulated": table},
            "base_points": [[centre], [2.0]],
            "settings": {"tau_strict": 1e-6,
                         "dini": {"t_max": 1e-3, "ratio": 0.5, "steps": 12},
                         "wstar_density": 9}}


def _write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


def test_suite_applies_the_density_flag(capsys):
    args = ["suite", "--instances", "2", "--seed", "5", "--output", "json"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main([*args, "--density", "3"]) == 0
    dense3 = capsys.readouterr().out
    assert json.loads(default)["settings"]["wstar_density"] == 7
    assert json.loads(dense3)["settings"]["wstar_density"] == 3
    assert dense3 != default


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_rejects_an_instance_count_below_one(count, capsys):
    assert main(["suite", "--instances", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "instances must be an integer >= 1" in captured.err


def test_suite_rejects_a_zero_tau(capsys):
    assert main(["suite", "--instances", "1", "--tau", "0"]) == 2
    assert "tau_strict" in capsys.readouterr().err


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


def test_sample_off_a_segment_is_not_read_as_on_it(tmp_path, capsys):
    # [1, 1e-4] lies within 1e-9 (1 + 1e6) of the segment from [0, 0] to
    # [2, 0] but is no stored sample at [1, 0]: the segment's samples and the
    # lookup must apply one tolerance, or the chain reads [1, 0] and exits 2
    doc = {"cone": QUAD_DOC["cone"],
           "map": {"tabulated": [{"x": x, "points": [[float(i), 0.0]]} for i, x in
                                 enumerate([[0.0, 0.0], [1.0, 1e-4], [2.0, 0.0], [1e6, 0.0]])]},
           "base_points": [[0.0, 0.0]]}
    assert main(["chain", _write(tmp_path, "far", doc)]) != 2
    assert "not a stored sample" not in capsys.readouterr().err


def test_unknown_settings_key_exits_two(tmp_path, capsys):
    doc = dict(QUAD_DOC, settings={"wstar_densty": 9})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["minimality", str(path)]) == 2
    assert "wstar_densty" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [4097, 4098])
def test_ray_steps_is_capped(tmp_path, capsys, steps):
    # one setting must not buy unbounded work: the convexity grids stop at 4097
    doc = dict(QUAD_DOC, settings={**QUAD_DOC["settings"], "ray_steps": steps})
    rejected = main(["convexity", _write(tmp_path, "steps", doc)]) == 2
    assert rejected == (steps > 4097)
    assert ("ray_steps" in capsys.readouterr().err) == rejected


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_eps_that_is_not_a_finite_distance_exits_two(tmp_path, capsys, eps):
    # json.dumps writes the bare NaN and Infinity tokens that json.loads reads
    doc = dict(QUAD_DOC, settings={**QUAD_DOC["settings"], "eps_list": [eps]})
    assert main(["chain", _write(tmp_path, "eps", doc), "--output", "json"]) == 2
    out = capsys.readouterr()
    assert "eps_list" in out.err and out.out == ""


def test_repeated_tabulated_x_exits_two(tmp_path, capsys):
    doc = {"cone": HYPER_DOC["cone"],
           "map": {"tabulated": [{"x": [0], "points": [[1, 1]]},
                                 {"x": [0], "points": [[0, 0]]},
                                 {"x": [1], "points": [[2, 2]]}]}}
    assert main(["minimality", _write(tmp_path, "repeat", doc)]) == 2
    assert "tabulated x [0.0] appears more than once" in capsys.readouterr().err


# one typo per document, and the key the error message must name
_GENERATOR = QUAD_DOC["map"]["generator"]
TYPO_DOCS = {
    "whole_space-string": ({"cone": HYPER_DOC["cone"], "map": {"tabulated": [
        {"x": [0], "points": [[1, 1]]},
        {"x": [1], "points": [], "whole_space": "false"}]}}, "whole_space"),
    "point-key": ({"cone": HYPER_DOC["cone"], "map": {"tabulated": [
        {"x": [0], "points": [[1, 1]]}, {"x": [1], "point": [[0, 0]]}]}}, "point"),
    "fractional-steps": ({**QUAD_DOC, "map": {"generator": {
        **_GENERATOR, "domain_grid": {"from": [-1], "to": [2], "steps": 2.9}}}}, "steps"),
    "domian_points": ({**QUAD_DOC, "map": {"generator": {
        **_GENERATOR, "domian_points": [[0.25]]}}}, "domian_points"),
    "base_point": ({**QUAD_DOC, "base_point": [[0.5]]}, "base_point"),
    "tabulated-and-generator": ({**QUAD_DOC, "map": {
        **QUAD_DOC["map"], "tabulated": [{"x": [0], "points": [[0, 0]]}]}}, "both"),
    "fractional-samples": ({**QUAD_DOC, "map": {"generator": {
        **_GENERATOR, "name": "hyperbola_truncation", "params": {"T": 100, "samples": 5.9}}}},
        "samples"),
    "boolean-domain_dim": ({**QUAD_DOC, "map": {"generator": {
        **_GENERATOR, "name": "constant_cloud",
        "params": {"points": [[0, 0]], "domain_dim": True}}}}, "domain_dim"),
}


@pytest.mark.parametrize("doc, key", TYPO_DOCS.values(), ids=TYPO_DOCS.keys())
def test_problem_typo_exits_two(tmp_path, capsys, doc, key):
    assert main(["minimality", _write(tmp_path, "typo", doc)]) == 2
    assert key in capsys.readouterr().err


def _replaced(doc, path, value):
    """A copy of doc with the node at path (a tuple of keys) set to value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# documents whose wrong types used to escape as a TypeError, or whose bad
# sample point was accepted, and the key the error message must name
_TABLE = HYPER_DOC["map"]["tabulated"]
MALFORMED_DOCS = {
    "nested-x": (_replaced(HYPER_DOC, ("map", "tabulated", 0, "x"), [[0]]), "'x'"),
    "null-x": (_replaced(HYPER_DOC, ("map", "tabulated", 0, "x"), None), "'x'"),
    "empty-x": (_replaced(HYPER_DOC, ("map", "tabulated", 0, "x"), []), "'x'"),
    "points-object": (_replaced(HYPER_DOC, ("map", "tabulated", 0, "points"), {"a": 1}),
                      "'points'"),
    "dual_generators-object": (_replaced(HYPER_DOC, ("cone", "dual_generators"), {"a": 1}),
                               "'dual_generators'"),
    "name-list": (_replaced(QUAD_DOC, ("map", "generator", "name"), ["x"]), "'name'"),
    "from-object": (_replaced(QUAD_DOC, ("map", "generator", "domain_grid", "from"),
                              {"a": 1}), "'from'"),
    "jump_at-list": (_replaced(QUAD_DOC, ("map", "generator"), {
        **_GENERATOR, "name": "jump_map",
        "params": {"left_points": [[0, 0]], "right_points": [[1, 1]], "jump_at": [0.5]}}),
        "'jump_at'"),
    # json.dumps writes the bare NaN and Infinity tokens that json.loads reads
    "nan-base_points": (_replaced(QUAD_DOC, ("base_points",), [[float("nan")]]),
                        "'base_points'"),
    "nan-from": (_replaced(QUAD_DOC, ("map", "generator", "domain_grid", "from"),
                           [float("nan")]), "'from'"),
    "nan-targets": (_replaced(QUAD_DOC, ("map", "generator", "params", "targets"),
                              [float("nan"), 1]), "'targets'"),
    "nan-points": (_replaced(HYPER_DOC, ("map", "tabulated", 0, "points"),
                             [[float("nan"), 0]]), "'points'"),
    "infinity-domain_points": (_replaced(QUAD_DOC, ("map", "generator", "domain_points"),
                                         [[float("inf")]]), "'domain_points'"),
}


@pytest.mark.parametrize("doc, key", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS.keys())
def test_malformed_problem_exits_two(tmp_path, capsys, doc, key):
    assert main(["minimality", _write(tmp_path, "malformed", doc)]) == 2
    assert key in capsys.readouterr().err


def _node_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _node_paths(child, path + (key,))


# small JSON: short lists and small integers, so that no grid blows up
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats(-50, 50) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=8)


def test_finite_input_that_overflows_keeps_its_evaluation_error(tmp_path, capsys):
    doc = _replaced(QUAD_DOC, ("map", "generator", "params", "targets"), [1e308, 1])
    with np.errstate(over="ignore"):
        assert main(["minimality", _write(tmp_path, "overflow", doc)]) == 2
    assert "set value points must be finite" in capsys.readouterr().err


DIGESTS = Path(__file__).parent.parent / "scripts" / "digest_problems"


def _digest(name):
    return json.loads((DIGESTS / f"{name}.json").read_text(encoding="utf-8"))


_PARAMS_DOCS = {"quadratic_vector": QUAD_DOC, "segment_shift": _digest("segment_shift_2d"),
                "constant_cloud": ANTICHAIN_DOC,
                "hyperbola_truncation": _digest("hyperbola_truncation"),
                "jump_map": _digest("jump_map")}

# every rule table: the name its messages give, and a document with the path
# of a node that the table checks
RULE_TABLES = {
    "problem": (SCHEMA["problem"], "problem", QUAD_DOC, ()),
    "cone": (SCHEMA["cone"], "cone", QUAD_DOC, ("cone",)),
    "map": (SCHEMA["map"], "map", QUAD_DOC, ("map",)),
    "tabulated entry": (SCHEMA["tabulated entry"], "tabulated entry 0", HYPER_DOC,
                        ("map", "tabulated", 0)),
    "generator": (SCHEMA["generator"], "generator", QUAD_DOC, ("map", "generator")),
    "domain_grid": (SCHEMA["domain_grid"], "domain_grid", QUAD_DOC,
                    ("map", "generator", "domain_grid")),
    "settings": (_SETTING_RULES, "settings", QUAD_DOC, ("settings",)),
    "dini": (_DINI_RULES, "dini", QUAD_DOC, ("settings", "dini")),
    **{f"{name} params": (rules, f"{name} params", _PARAMS_DOCS[name],
                          ("map", "generator", "params"))
       for name, (_, rules) in _CATALOG.items()},
}

# a rule is broken by the first of these that its test rejects
_BAD_VALUES = [0, -1, 1.5, 4098, [0.5], [[0.5]], [], [float("nan")], "x", None, {"bad": 1}]


def _rule_breaks():
    """One broken document per rule, per required key and per table, with
    the message that must name the broken key."""
    for table, (rules, where, doc, path) in RULE_TABLES.items():
        node = doc
        for key in path:
            node = node[key]
        yield pytest.param(_replaced(doc, path, {**node, "typo": 1}),
                           f"unknown {where} keys ['typo']", id=f"{table}-unknown")
        for key, rule in rules.items():
            bad = next(v for v in _BAD_VALUES if not rule.test(v))
            yield pytest.param(_replaced(doc, path + (key,), bad),
                               f"{where} {key!r} must be {rule.what}, not ",
                               id=f"{table}-{key}")
            if rule.required:
                yield pytest.param(_replaced(doc, path, {k: v for k, v in node.items()
                                                         if k != key}),
                                   f"{where} needs {key!r}", id=f"{table}-{key}-missing")


def test_every_rule_table_has_a_document():
    tables = set(SCHEMA) | {f"{name} params" for name in _CATALOG} | {"settings", "dini"}
    assert set(RULE_TABLES) == tables


@pytest.mark.parametrize("doc, message", _rule_breaks())
def test_every_rule_rejects_with_its_key(tmp_path, capsys, doc, message):
    assert main(["minimality", _write(tmp_path, "broken", doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid", [4097, 4098])
def test_chain_ray_grid_is_capped(tmp_path, capsys, grid):
    doc = dict(QUAD_DOC, settings={**QUAD_DOC["settings"], "chain_ray_grid": grid})
    rejected = main(["chain", _write(tmp_path, "grid", doc)]) == 2
    assert rejected == (grid > 4097)
    assert ("'chain_ray_grid'" in capsys.readouterr().err) == rejected


@pytest.mark.parametrize("steps", [4096, 4097])
def test_dini_steps_are_capped(tmp_path, capsys, steps):
    # at ratio 0.9 the step grid ends near 1e-191, so only the cap can refuse it
    dini = {"t_max": 1e-4, "ratio": 0.9, "steps": steps}
    doc = dict(QUAD_DOC, settings={**QUAD_DOC["settings"], "dini": dini})
    rejected = main(["chain", _write(tmp_path, "dini", doc)]) == 2
    assert rejected == (steps > 4096)
    assert ("dini 'steps'" in capsys.readouterr().err) == rejected


@pytest.mark.parametrize("steps", [4097, 4098, [3, 1365], [3, 1366]])
def test_domain_grid_points_are_capped(tmp_path, capsys, steps):
    axes = 1 if isinstance(steps, int) else len(steps)
    count = steps if axes == 1 else math.prod(steps)
    doc = {**QUAD_DOC, "base_points": [[0.5] * axes],
           "map": {"generator": {"name": "quadratic_vector",
                                 "params": {"targets": [[0.0] * axes, [1.0] * axes]},
                                 "domain_grid": {"from": [-1] * axes, "to": [2] * axes,
                                                 "steps": steps}}}}
    rejected = main(["minimality", _write(tmp_path, "grid", doc)]) == 2
    assert rejected == (count > 4097)
    assert (f"domain grid would hold {count} points" in capsys.readouterr().err) == rejected


@pytest.mark.parametrize("doc", [NONUNIFORM_DOC, QUAD_DOC, _digest("segment_shift_2d"),
                                 _digest("jump_map"), _digest("hyperbola_truncation"),
                                 _digest("clouds_chain_4d")],
                         ids=["tabulated", "generator", "segment_shift_2d", "jump_map",
                              "hyperbola_truncation", "clouds_chain_4d"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_node_replaced_exits_with_a_cli_code(doc, data):
    # the document goes in as JSON text, which load_problem reads like a file
    paths = list(_node_paths(doc))
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="node")]
    text = json.dumps(_replaced(doc, path, data.draw(_SMALL_JSON, label="value")))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["minimality", text])
    assert code in (0, 1, 2, 3)


def test_seed_is_a_suite_flag(quad_file, tmp_path, capsys):
    assert main(["chain", quad_file, "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["suite", "--seed", "1", "--instances", "2"]) == 0
    assert "instances: 2" in capsys.readouterr().out
    # a problem's own seed reaches its report unchanged
    path = _write(tmp_path, "seeded", {**QUAD_DOC, "settings": {"seed": 7}})
    assert main(["minimality", path, "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["settings"]["seed"] == 7


@pytest.mark.parametrize("value", [
    (1.0, 2.0), np.float64(0.5), np.int64(3), np.bool_(True), np.array([1.0]), Verdict.HOLDS,
], ids=["tuple", "float64", "int64", "bool_", "ndarray", "enum"])
def test_render_json_rejects_non_report_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        render_json({"value": [value]})


@pytest.mark.parametrize("tree", [
    float("nan"), [1.0, float("nan")], {"a": {"b": [float("nan")]}},
], ids=["top", "list", "nested"])
def test_render_json_rejects_nan(tree):
    with pytest.raises(InternalCheckError, match="NaN"):
        render_json({"report": tree})


def test_console_entry_point_help():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("doc, args, code, size, digest", [
    (QUAD_DOC, ["chain"], 0, 11151,
     "547e6a24fa57545467bc4c47c5a868d5c18e43e1610217841b0f582d8f1926ea"),
    (QUAD_DOC, ["mvt", "--ray=0,1"], 0, 2595,
     "794e19098932131a7bb7663c3d3f7a5779a4c9bafe2bb0775f0400b4c9bddb8b"),
    (_tabulated_doc(7), ["chain"], 1, 33674,
     "fc7acd59bcfb93393b57d6977dd987a033736cc07fc7b3c4f1625b32477f56c4"),
    (NONUNIFORM_DOC, ["chain"], 1, 17402,
     "b6613fea7a5492c3b9628808bd4f97be60386107a96a06b0116b3bbc53fefd02"),
], ids=["chain-quadratic", "mvt-quadratic", "chain-tabulated-seed7",
        "chain-tabulated-nonuniform"])
def test_json_report_bytes_are_pinned(tmp_path, capsys, doc, args, code, size, digest):
    path = _write(tmp_path, "problem", doc)
    assert main([args[0], path, *args[1:], "--output", "json"]) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_report_formatting():
    assert format_float(float("inf")) == "+inf"
    assert format_float(float("-inf")) == "-inf"
    assert format_float(0.1) == f"{0.1:.17g}"
    assert len(format_float(1 / 3).replace("0.", "")) == 17


def test_chain_on_non_convex_extended_values_reports_fails(tmp_path, capsys):
    # a constant map is weakly minimal everywhere; only the hypothesis fails
    path = _write(tmp_path, "antichain", ANTICHAIN_DOC)
    assert main(["chain", path, "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["hypotheses"]["c_convexity"]["verdict"] == "FAILS"
    assert "VIOLATED" not in [e["status"] for e in report["implications"]]


def test_internal_inconsistency_exits_four(quad_file, capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise InternalCheckError("convexity tests disagree")

    monkeypatch.setattr(setvi.vi, "c_convexity_check", disagree)
    assert main(["chain", quad_file]) == 4
    assert capsys.readouterr().err.startswith("internal check failed: ")


def test_dini_step_beyond_the_segment_exits_two(tmp_path, capsys):
    doc = dict(QUAD_DOC, settings={"dini": {"t_max": 2.0}})
    assert main(["vi", _write(tmp_path, "far", doc), "--kind", "svi"]) == 2
    assert "t_max" in capsys.readouterr().err


def _one_sample(map_doc):
    return {"cone": QUAD_DOC["cone"], "map": map_doc}


# one domain sample: no pair to combine and no ray to walk
ONE_SAMPLE_DOCS = {
    "tabulated_1d": _one_sample({"tabulated": [{"x": [0.0], "points": [[0, 0], [1, -1]]}]}),
    "tabulated_2d": _one_sample({"tabulated": [{"x": [0.0, 0.0], "points": [[0, 0], [1, -1]]}]}),
    "jump_map": _one_sample({"generator": {
        "name": "jump_map", "params": {"left_points": [[0, 0], [0.5, -0.2]],
                                       "right_points": [[-1, -1]], "jump_at": 0.55},
        "domain_grid": {"from": [0], "to": [1], "steps": 1}}}),
    "quadratic": _one_sample({"generator": {
        "name": "quadratic_vector", "params": {"targets": [0, 1]},
        "domain_grid": {"from": [0.5], "to": [0.5], "steps": 1}}}),
}


@pytest.mark.parametrize("doc", ONE_SAMPLE_DOCS.values(), ids=ONE_SAMPLE_DOCS.keys())
def test_one_sample_map_runs_chain_and_convexity(tmp_path, capsys, doc):
    path = _write(tmp_path, "one", doc)
    assert main(["chain", path]) == 0
    assert main(["convexity", path]) == 3
    assert capsys.readouterr().err == ""


def test_convexity_on_empty_trailing_samples_warns_nothing(tmp_path, capsys):
    # the last two scalar path values are +inf, and their difference is NaN
    doc = {"cone": QUAD_DOC["cone"],
           "map": {"tabulated": [{"x": [0], "points": [[0, 0]]}, {"x": [1], "points": []},
                                 {"x": [2], "points": []}]}}
    path = _write(tmp_path, "tail", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["convexity", path]) == 3
    assert capsys.readouterr().err == ""


def test_a_second_base_point_off_the_table_exits_two(tmp_path, capsys):
    # the chains and checks of every base point run together; the first
    # point's reports are never printed, and the message names the second
    doc = {"cone": QUAD_DOC["cone"],
           "map": {"tabulated": [{"x": [0], "points": [[0, 1]]},
                                 {"x": [0.5], "points": [[0.25, 0.25]]},
                                 {"x": [1], "points": [[1, 0]]}]},
           "base_points": [[0.5], [0.3]]}
    path = _write(tmp_path, "off_table", doc)
    for argv in (["chain", path], ["vi", path, "--kind", "svi"], ["minimality", path]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: [0.3] is not a stored sample of the tabulated map\n")
