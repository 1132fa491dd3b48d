import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from setvi import setmap as setmap_mod
from setvi.errors import (
    BadParameters,
    DimensionMismatch,
    OutsideSampleDomain,
    SchemaError,
    UnknownGenerator,
)
from setvi.setmap import (
    SetMap,
    SetValue,
    _Generator,
    builtin_map,
    evaluate,
    evaluate_rows,
    load_problem,
    radial_rays,
    ray_restriction,
    stack_values,
)

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

    def test_duplicate_samples_are_rejected(self):
        # a repeated x would otherwise hide one of its two values
        doc = {
            "cone": MINIMAL_DOC["cone"],
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 1]]},
                {"x": [0], "points": [[9, 9]]},
            ]},
        }
        with pytest.raises(SchemaError, match=r"\[0\.0\]"):
            load_problem(doc)

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
        assert ray.values[0].tolist() == [[[0.0, 0.0]]] * 5

    def test_quadratic_hand_values(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0], [1], np.array([0.0, 0.5, 1.0]))
        stack, counts, whole = ray.values
        assert stack.tolist() == [[[0.0, 1.0]], [[0.25, 0.25]], [[1.0, 0.0]]]
        assert counts.tolist() == [1, 1, 1] and not whole.any()

    def test_degenerate_ray_is_constant(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0.3], [0.3], np.linspace(0, 1, 4))
        stack = ray.values[0]
        assert (stack == stack[0]).all()

    def test_single_point_grid(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        ray = ray_restriction(m, [0.0], [1.0], np.array([0.0, 1.0]))
        assert [len(a) for a in ray.values] == [2, 2, 2]


def _catalog_maps(rng):
    """One seeded map of every generator that has a batch kernel, on a
    domain of 1 to 4 dimensions, with signed zeros among the coefficients."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))

    def coef(*shape):
        return np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], shape),
                        rng.normal(size=shape)).tolist()

    return n, [
        builtin_map("quadratic_vector", {"targets": coef(m, n)},
                    domain=rng.normal(size=(3, n))),
        builtin_map("segment_shift", {"segment": coef(int(rng.integers(1, 6)), m),
                                      "domain_dim": n, "offset": coef(m),
                                      "linear": coef(m, n), "quadratic": coef(m),
                                      "center": coef(n)},
                    domain=rng.normal(size=(3, n))),
        builtin_map("constant_cloud", {"points": coef(3, m), "domain_dim": n},
                    domain=rng.normal(size=(3, n))),
        builtin_map("hyperbola_truncation", {"T": 10.0, "samples": 5, "domain_dim": n},
                    domain=rng.normal(size=(3, n))),
    ]


def test_batch_kernels_give_each_row_its_own_bits():
    # a row evaluated alone, in a batch, or through evaluate has the same
    # bits: ray_restriction evaluates a whole ray in one batch on this promise
    rng = np.random.default_rng(20240811)
    rows = 0
    for _ in range(150):
        n, maps = _catalog_maps(rng)
        xs = rng.normal(size=(int(rng.integers(1, 40)), n))
        xs[rng.random(xs.shape) < 0.1] = rng.choice([0.0, -0.0])
        for m in maps:
            batch = m.generator.eval_batch(xs)
            for i, x in enumerate(xs):
                alone = m.generator.eval_batch(xs[i:i + 1])[0]
                assert batch[i].tobytes() == alone.tobytes(), m.generator.name
                assert evaluate(m, x).points.tobytes() == alone.tobytes(), m.generator.name
                rows += 1
    assert rows > 10000


@pytest.mark.parametrize("wide_left", [True, False])
def test_jump_map_rows_hold_their_side_padded_at_its_last_point(wide_left):
    # a row read alone, in a batch, or through evaluate holds its side's
    # points; the narrower side repeats its last point, as stack_values pads
    wide, narrow = [[0, 0], [0.5, -0.2], [1, -1]], [[-1, -1], [2, -3]]
    left, right = (wide, narrow) if wide_left else (narrow, wide)
    m = builtin_map("jump_map", {"left_points": left, "right_points": right, "jump_at": 0.55})
    padded = np.array(narrow + narrow[-1:], dtype=float)
    sides = (np.array(wide, float), padded) if wide_left else (padded, np.array(wide, float))
    xs = np.array([[0.0], [0.55], [0.3], [1.0], [-0.0], [0.5499999]])
    batch = m.generator.eval_batch(xs)
    assert batch.shape == (len(xs), 3, 2)
    for x, row in zip(xs, batch):
        want = sides[0 if x[0] < 0.55 else 1].tobytes()
        assert row.tobytes() == want
        assert m.generator.eval_batch(x[None, :])[0].tobytes() == want
        assert evaluate(m, x).points.tobytes() == want
    assert [v.points.tobytes() for v in m.values] == [
        sides[0 if x < 0.55 else 1].tobytes() for x in m.domain[:, 0]]


@pytest.mark.parametrize("name, params", [
    ("quadratic_vector", {"targets": [[0, 0], [1, 1]]}),
    ("segment_shift", {"segment": [[0, 1], [1, 0]], "domain_dim": 2, "quadratic": [1, 1]}),
    ("constant_cloud", {"points": [[0, 1], [1, 0]], "domain_dim": 2}),
    ("hyperbola_truncation", {"T": 10, "samples": 4}),
    ("jump_map", {"left_points": [[0, 0]], "right_points": [[1, 1], [2, 0]], "jump_at": 0.5}),
])
def test_building_a_generator_map_makes_one_kernel_call(monkeypatch, name, params):
    # the domain is read in one batch, and the values are read-only views
    # of that stack's rows
    factory, rules = setmap_mod._CATALOG[name]
    calls = []

    def counted(p):
        gen = factory(p)
        return dataclasses.replace(
            gen, eval_batch=lambda xs: calls.append(len(xs)) or gen.eval_batch(xs))

    monkeypatch.setitem(setmap_mod._CATALOG, name, (counted, rules))
    m = builtin_map(name, params)
    assert calls == [len(m.domain)] == [11 ** m.domain_dim]
    stack, counts, whole = m.stacked
    assert not stack.flags.writeable and (counts == stack.shape[1]).all() and not whole.any()
    for v, row in zip(m.values, stack):
        assert np.shares_memory(v.points, stack) and not v.points.flags.writeable
        assert v.points.tobytes() == row.tobytes() and not v.whole_space


def test_rays_batch_match_the_per_point_values(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(40):
        _, maps = _catalog_maps(rng)
        for m in maps:
            x0 = m.domain[int(rng.integers(0, 3))] * rng.choice([1.0, 0.5])
            t_grid = np.linspace(0.0, 1.0, int(rng.integers(2, 10)))
            calls = []
            original = m.generator.eval_batch
            monkeypatch.setattr(m, "generator", dataclasses.replace(
                m.generator, eval_batch=lambda xs: calls.append(len(xs)) or original(xs)))
            rays = radial_rays(m, x0, t_grid)
            assert calls == [len(m.domain) * t_grid.size]
            rays.append(ray_restriction(m, x0, m.domain[0], t_grid))
            assert calls[1:] == [t_grid.size]
            monkeypatch.undo()
            for x, ray in zip([*m.domain, m.domain[0]], rays):
                assert ray.x.tobytes() == x.tobytes()
                assert ray.t_grid.tobytes() == t_grid.tobytes()
                points = x0[None, :] + t_grid[:, None] * (x - x0)[None, :]
                stack, counts, whole = ray.values
                assert [c.tobytes() for c in stack] == [
                    evaluate(m, p).points.tobytes() for p in points]
                assert (counts == stack.shape[1]).all() and not whole.any()
                assert not stack.flags.writeable


def test_rays_reject_a_nonfinite_batch():
    # finite at both samples, a pole between them
    gen = _Generator("pole", {}, 1, 1, lambda xs: 1.0 / (xs[:, None, :] - 0.5))
    m = SetMap(domain=[[0.0], [1.0]], kind="generator", generator=gen)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
        ray_restriction(m, [0.0], [1.0], np.linspace(0, 1, 3))


class TestBuiltinCatalog:
    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            builtin_map("no_such_thing", {})

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            builtin_map("quadratic_vector", {"targets": []})
        with pytest.raises(BadParameters):
            builtin_map("hyperbola_truncation", {"T": 0.5})

    @pytest.mark.parametrize("name, params", [
        ("hyperbola_truncation", {"T": 100, "samples": 5.9}),
        ("constant_cloud", {"points": [[0, 0]], "domain_dim": 1.7}),
        ("constant_cloud", {"points": [[0, 0]], "domain_dim": True}),
        ("segment_shift", {"segment": [[0, 0]], "domain_dim": 2.0}),
    ], ids=["samples-5.9", "domain_dim-1.7", "domain_dim-true", "domain_dim-2.0"])
    def test_integer_parameters_are_not_truncated(self, name, params):
        key = "samples" if "samples" in params else "domain_dim"
        with pytest.raises(BadParameters, match=f"'{key}' must be an integer"):
            builtin_map(name, params)

    def test_unknown_parameter_is_rejected(self):
        # a misspelt key must not run with the default centre 0
        with pytest.raises(BadParameters, match="centre"):
            builtin_map("segment_shift", {"segment": [[0, 0]], "centre": [0.5]})

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


def test_stack_values_pads_each_cloud_with_its_last_point():
    values = [SetValue.make([[1, 2], [3, 4], [5, 6]]),
              SetValue.make([[7, 8]]),
              SetValue.make([], dim=2),
              SetValue.make([[9, 9], [9, 9]], whole_space=True),
              SetValue.make([[0, -1], [-2, 0]])]
    stack, counts, whole = stack_values(values)
    assert stack.shape == (5, 3, 2)
    assert counts.tolist() == [3, 1, 0, 0, 2]
    assert whole.tolist() == [False, False, False, True, False]
    assert stack[0].tolist() == [[1, 2], [3, 4], [5, 6]]
    assert stack[1].tolist() == [[7, 8]] * 3
    assert stack[4].tolist() == [[0, -1], [-2, 0], [-2, 0]]
    # the rows of values without points hold zeros, not a whole-space value's points
    assert stack[2].tolist() == stack[3].tolist() == [[0, 0]] * 3


def test_stack_values_of_one_shape_and_of_no_values():
    clouds = np.arange(12.0).reshape(3, 2, 2)
    stack, counts, whole = stack_values([SetValue.make(c) for c in clouds])
    assert stack.tobytes() == clouds.tobytes() and stack.shape == clouds.shape
    assert counts.tolist() == [2, 2, 2] and whole.tolist() == [False] * 3
    stack, counts, whole = stack_values([SetValue.make([], dim=2)] * 2)
    assert stack.shape == (2, 1, 2) and not stack.any() and counts.tolist() == [0, 0]
    stack, counts, whole = stack_values([])
    assert stack.shape == (0, 1, 0) and counts.shape == whole.shape == (0,)


def test_set_value_rejects_ragged_dim():
    with pytest.raises(DimensionMismatch):
        SetValue.make([], dim=None)


DIGEST_PROBLEMS = sorted((Path(__file__).parent.parent / "scripts" / "digest_problems")
                         .glob("*.json"))


@pytest.mark.parametrize("path", DIGEST_PROBLEMS, ids=lambda p: p.stem)
def test_digest_problems_load(path):
    # the problem set scripts/report_digests.py compares checkouts on
    assert load_problem(str(path)).map.domain.shape[0] > 0


def test_tabulated_rows_match_the_stacked_values_one_by_one():
    # a tabulated map's rows come from its one stack, as narrow as
    # stack_values makes them, and a point that is not a sample is an error
    m = load_problem(str(DIGEST_PROBLEMS[0].with_name("tabulated_ragged_whole.json"))).map
    want = stack_values(m.values)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m.stacked, want))
    rng = np.random.default_rng(5)
    for _ in range(200):
        xs = m.domain[rng.integers(0, len(m.domain), size=int(rng.integers(1, 6)))]
        got = evaluate_rows(m, xs)
        want = stack_values([evaluate(m, x) for x in xs])
        assert [(a.shape, a.dtype, a.tobytes()) for a in got] == \
            [(b.shape, b.dtype, b.tobytes()) for b in want]
    with pytest.raises(OutsideSampleDomain, match=r"\[0\.05\]"):
        evaluate_rows(m, np.array([[0.0], [0.05]]))
