import json

import numpy as np
import pytest

from setvi.cone import Region, make_cone
from setvi.errors import (
    BadParameters,
    DimensionMismatch,
    OutsideSampleDomain,
    SchemaError,
    UnknownGenerator,
)
from setvi.setmap import (
    SetValue,
    builtin_map,
    evaluate,
    load_problem,
    map_extended_member,
    ray_restriction,
)

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])

MINIMAL_DOC = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"tabulated": [{"x": [0], "points": [[0, 0]]}]},
}


class TestLoadProblem:
    def test_minimal_document(self):
        problem = load_problem(MINIMAL_DOC)
        assert problem.map.domain.shape == (1, 1)
        assert evaluate(problem.map, [0]).points.tolist() == [[0.0, 0.0]]

    def test_json_string_and_file(self, tmp_path):
        text = json.dumps(MINIMAL_DOC)
        assert load_problem(text).map.domain.shape == (1, 1)
        path = tmp_path / "problem.json"
        path.write_text(text, encoding="utf-8")
        assert load_problem(str(path)).map.domain.shape == (1, 1)

    def test_missing_cone(self):
        with pytest.raises(SchemaError):
            load_problem({"map": MINIMAL_DOC["map"]})

    def test_empty_points_entry_loads_outside_domain(self):
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 2]]},
                {"x": [1], "points": [], "whole_space": False},
            ]},
        }
        problem = load_problem(doc)
        assert evaluate(problem.map, [1]).is_empty
        assert problem.map.domain_indices().tolist() == [0]

    def test_duplicate_samples_keep_first(self):
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 1]]},
                {"x": [0], "points": [[9, 9]]},
            ]},
        }
        problem = load_problem(doc)
        assert problem.map.domain.shape == (1, 1)
        assert evaluate(problem.map, [0]).points.tolist() == [[1.0, 1.0]]

    def test_generator_document_with_grid(self):
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"generator": {
                "name": "quadratic_vector",
                "params": {"targets": [0, 1]},
                "domain_grid": {"from": [-1], "to": [2], "steps": 7},
            }},
            "base_points": [[0.5]],
        }
        problem = load_problem(doc)
        assert problem.map.domain.shape == (7, 1)
        assert problem.base_points.tolist() == [[0.5]]

    def test_settings_must_be_object(self):
        doc = dict(MINIMAL_DOC, settings=[1, 2])
        with pytest.raises(SchemaError):
            load_problem(doc)


class TestEvaluate:
    def test_generator_quadratic(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        assert evaluate(m, [0.5]).points.tolist() == [[0.25, 0.25]]
        assert evaluate(m, [2]).points.tolist() == [[4.0, 1.0]]

    def test_tabulated_verbatim_and_outside(self):
        problem = load_problem(MINIMAL_DOC)
        assert evaluate(problem.map, [0]).points.tolist() == [[0.0, 0.0]]
        with pytest.raises(OutsideSampleDomain):
            evaluate(problem.map, [0.25])

    def test_generator_determinism(self):
        m = builtin_map("segment_shift",
                        {"segment": [[0, 0], [1, 1]], "quadratic": [1, 2]})
        a = evaluate(m, [0.3]).points
        b = evaluate(m, [0.3]).points
        assert a.tobytes() == b.tobytes()


class TestRayRestriction:
    def test_constant_map_constant_along_rays(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]})
        ray = ray_restriction(m, [0], [1], np.linspace(0, 1, 5))
        assert all(v.points.tolist() == [[0.0, 0.0]] for v in ray.values)

    def test_quadratic_hand_values(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0], [1], np.array([0.0, 0.5, 1.0]))
        assert ray.values[0].points.tolist() == [[0.0, 1.0]]
        assert ray.values[1].points.tolist() == [[0.25, 0.25]]
        assert ray.values[2].points.tolist() == [[1.0, 0.0]]

    def test_degenerate_ray_is_constant(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0.3], [0.3], np.linspace(0, 1, 4))
        first = ray.values[0].points
        assert all((v.points == first).all() for v in ray.values)

    def test_single_point_grid(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0.0], [1.0], np.array([0.0, 1.0]))
        assert len(ray.values) == 2


class TestConeExtendView:
    def test_plain_value(self):
        m = builtin_map("constant_cloud", {"points": [[1, 1]]})
        assert map_extended_member(m, ORTHANT, [0], [2, 1.5]).region is Region.INTERIOR

    def test_empty_value_sentinel(self):
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"tabulated": [{"x": [0], "points": []}]},
        }
        problem = load_problem(doc)
        res = map_extended_member(problem.map, ORTHANT, [0], [5, 5])
        assert res.region is Region.OUTSIDE and res.margin == -np.inf

    def test_whole_space_sentinel(self):
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"tabulated": [{"x": [0], "points": [], "whole_space": True}]},
        }
        problem = load_problem(doc)
        res = map_extended_member(problem.map, ORTHANT, [0], [-9, -9])
        assert res.region is Region.INTERIOR and res.margin == np.inf


class TestBuiltinCatalog:
    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            builtin_map("no_such_thing", {})

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            builtin_map("quadratic_vector", {"targets": []})
        with pytest.raises(BadParameters):
            builtin_map("hyperbola_truncation", {"T": 0.5})

    def test_hyperbola_truncation_min_coordinate(self):
        m = builtin_map("hyperbola_truncation", {"T": 100, "samples": 5})
        pts = evaluate(m, [0]).points
        assert pts.min() == pytest.approx(0.01, abs=1e-15)
        assert pts.shape == (5, 2)

    def test_constant_cloud(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]})
        assert evaluate(m, [0.77]).points.tolist() == [[0.0, 0.0]]

    def test_jump_map_sides(self):
        m = builtin_map("jump_map", {"left_points": [[0, 0]],
                                     "right_points": [[-1, -1]],
                                     "jump_at": 0.5})
        assert evaluate(m, [0.4]).points.tolist() == [[0.0, 0.0]]
        assert evaluate(m, [0.5]).points.tolist() == [[-1.0, -1.0]]

    def test_vector_targets(self):
        m = builtin_map("quadratic_vector", {"targets": [[0, 0], [1, 1]]})
        val = evaluate(m, [1.0, 0.0]).points
        assert val.tolist() == [[1.0, 1.0]]


def test_set_value_rejects_ragged_dim():
    with pytest.raises(DimensionMismatch):
        SetValue.make([], dim=None)
