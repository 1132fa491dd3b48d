import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setvi.cone import dual_base, make_cone
from setvi.errors import EmptySet
from setvi.extreal import NEG_INF, POS_INF
from setvi.scalarize import (
    PiecewiseLinear,
    ScalarPath,
    equicontinuity_check,
    hausdorff_check,
    hausdorff_check_radial,
    scalar_path,
    scalarize,
    scalarize_many,
    support_profile,
)
from setvi.setmap import SetMap, SetValue, builtin_map, evaluate, load_problem, radial_rays
from setvi.verdicts import Verdict

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 5)


class TestScalarize:
    def test_min_of_first_coordinates(self):
        value = SetValue.make([[1, 2], [3, 0]])
        assert scalarize(value, [1, 0]).value == 1.0

    def test_empty_value_is_plus_infinity(self):
        assert scalarize(SetValue.make([], dim=2), [1, 0]) == POS_INF

    def test_whole_space_is_minus_infinity(self):
        assert scalarize(SetValue.make([], whole_space=True, dim=2), [1, 0]) == NEG_INF

    def test_mixed_weight(self):
        value = SetValue.make([[1, 2], [3, 0]])
        assert scalarize(value, [0.5, 0.5]).value == 1.5

    @given(st.floats(min_value=0.01, max_value=100))
    def test_positive_homogeneity(self, lam):
        value = SetValue.make([[1.5, -2.0], [0.25, 4.0]])
        w = np.array([0.3, 0.7])
        assert scalarize(value, lam * w).value == pytest.approx(
            lam * scalarize(value, w).value, rel=1e-12)

    def test_domain_agreement_with_map(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 2]]},
                {"x": [1], "points": []},
            ]},
        }
        problem = load_problem(doc)
        for w in WS.weights:
            inside = scalarize(evaluate(problem.map, [0]), w)
            outside = scalarize(evaluate(problem.map, [1]), w)
            assert inside != POS_INF and outside == POS_INF


class TestScalarPath:
    def test_constant_map_path_is_zero(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]})
        path = scalar_path(m, [0], [1], [0.4, 0.6], np.linspace(0, 1, 5))
        assert path.values.tolist() == [0.0] * 5

    def test_quadratic_path_values(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        t = np.linspace(0, 1, 5)
        path = scalar_path(m, [0], [1], [0.5, 0.5], t)
        np.testing.assert_allclose(path.values, 0.5 * t**2 + 0.5 * (t - 1) ** 2)

    def test_empty_region_is_plus_infinity(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[0, 0]]},
                {"x": [0.5], "points": [[1, 1]]},
                {"x": [1], "points": []},
            ]},
        }
        problem = load_problem(doc)
        path = scalar_path(problem.map, [0], [1], [1, 0], np.array([0, 0.5, 1.0]))
        assert path.values.tolist() == [0.0, 1.0, np.inf]

    def test_grid_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            ScalarPath(np.array([0.0, 0.5]), np.array([1.0, 2.0]))

    def test_outside_evaluates_plus_infinity(self):
        path = ScalarPath.from_function(lambda t: t, np.linspace(0, 1, 3))
        assert path.eval(1.5) == np.inf and path.eval(-0.1) == np.inf

    def test_breakpoints_must_match_grid(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ScalarPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0]),
                       breakpoints=pl)

    def test_mixed_segment_semantics(self):
        pl = PiecewiseLinear(np.array([0.0, 0.5, 1.0]),
                             np.array([np.inf, 1.0, 2.0]))
        path = ScalarPath.from_breakpoints(pl, np.array([0.0, 0.5, 1.0]))
        assert path.eval(0.25) == np.inf      # open segment below an inf knot
        assert path.eval(0.75) == 1.5          # finite segment interpolates
        assert path.eval(0.0) == np.inf        # knot value wins at the knot


def _jump_problem():
    grid = np.linspace(0, 1, 11).reshape(-1, 1)
    return builtin_map("jump_map", {"left_points": [[0, 0]],
                                    "right_points": [[-1, -1]],
                                    "jump_at": 0.55}, domain=grid)


class TestEquicontinuity:
    def test_constant_map_holds_for_every_eps(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]},
                        domain=np.linspace(0, 1, 9).reshape(-1, 1))
        for eps in (1e-6, 0.1, 2.0):
            res = equicontinuity_check(m, [0.5], WS, [0.1, 0.3], eps)
            assert res.verdict is Verdict.HOLDS

    def test_jump_fails_below_jump_size(self):
        res = equicontinuity_check(_jump_problem(), [0.5], WS, [0.15, 0.3],
                                   eps=0.5)
        assert res.verdict is Verdict.FAILS

    def test_jump_holds_above_jump_size(self):
        res = equicontinuity_check(_jump_problem(), [0.5], WS, [0.15, 0.3],
                                   eps=2.0)
        assert res.verdict is Verdict.HOLDS

    def test_resolution_reports_probe_count(self):
        res = equicontinuity_check(_jump_problem(), [0.5], WS, [0.15], eps=2.0)
        assert res.details["chosen"]["probed"] > 0


class TestHausdorff:
    def test_moving_point_holds_on_fine_grid(self):
        m = builtin_map("segment_shift", {"segment": [[0, 0]], "linear": [[1], [1]]},
                        domain=np.linspace(0, 1, 21).reshape(-1, 1))
        res = hausdorff_check(m, [0.5], eps_list=[0.2],
                              probe_radii=[0.06, 0.12])
        assert res.verdict is Verdict.HOLDS

    def test_jump_fails_below_jump(self):
        res = hausdorff_check(_jump_problem(), [0.5], eps_list=[0.5],
                              probe_radii=[0.15, 0.3])
        assert res.verdict is Verdict.FAILS

    def test_single_sample_domain_holds_vacuously(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]},
                        domain=np.array([[0.0]]))
        res = hausdorff_check(m, [0.0], eps_list=[0.1],
                              probe_radii=[1.0])
        assert res.verdict is Verdict.HOLDS
        assert res.details["per_eps"][0]["probed"] == 0

    def test_radial_variant_detects_jump(self):
        rays = radial_rays(_jump_problem(), [0.0], np.linspace(0, 1, 11))
        res = hausdorff_check_radial(rays, eps_list=[0.5])
        assert res.verdict is Verdict.FAILS

    def test_radial_variant_constant_holds(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0], [1, 1]]},
                        domain=np.linspace(0, 1, 5).reshape(-1, 1))
        res = hausdorff_check_radial(radial_rays(m, [0.0], np.linspace(0, 1, 5)),
                                     eps_list=[0.1])
        assert res.verdict is Verdict.HOLDS

    def test_smallest_radius_decides(self):
        # a larger radius selects a superset of samples, so it can only fail
        # where the smallest one already does: adding radii changes no output
        rng = np.random.default_rng(11)
        for _ in range(200):
            domain = np.sort(rng.uniform(-1, 1, size=int(rng.integers(2, 9)))).reshape(-1, 1)
            values = [SetValue.make([], dim=2) if rng.random() < 0.1 else
                      SetValue.make([], whole_space=True, dim=2) if rng.random() < 0.05 else
                      SetValue.make(rng.normal(size=(int(rng.integers(1, 4)), 2)))
                      for _ in domain]
            values[0] = SetValue.make([[0.0, 0.0]])
            m = SetMap(domain=domain, kind="tabulated", values=values)
            eps = rng.choice([-1.0, 0.0, 0.2, 1.0, 1e6], size=int(rng.integers(1, 4))).tolist()
            radii = sorted(rng.uniform(0.05, 2.0, size=int(rng.integers(2, 4))).tolist())
            one = hausdorff_check(m, domain[0], eps, radii[:1], tau=1e-3)
            every = hausdorff_check(m, domain[0], eps, radii[::-1], tau=1e-3)
            assert (one.verdict, one.witness, one.details) == \
                (every.verdict, every.witness, every.details)

    def test_radial_scan_compares_only_neighbours(self, monkeypatch):
        # only samples within 1.5 steps are compared: on a uniform grid each
        # anchor meets its two neighbours, so 2 (T - 1) excesses per ray
        module = sys.modules["setvi.scalarize"]  # setvi.scalarize is the function
        excess = module._excess
        calls = []

        def counted(inner, outer):
            calls.append(1)
            return excess(inner, outer)

        monkeypatch.setattr(module, "_excess", counted)
        T = 9
        m = builtin_map("quadratic_vector", {"targets": [0, 1]},
                        domain=np.linspace(-1, 2, 7).reshape(-1, 1))
        rays = radial_rays(m, [0.5], np.linspace(0, 1, T))
        hausdorff_check_radial(rays, eps_list=[0.5])
        assert 0 < len(calls) <= 2 * (T - 1) * len(rays)


def test_continuity_bridge_scales_with_weight_norms():
    # containment within eps forces every scalarization to move by at most
    # eps times the largest weight norm, at the same radius
    m = builtin_map("segment_shift", {"segment": [[0, 0], [0.5, 0.5]],
                                      "linear": [[1], [-1]]},
                    domain=np.linspace(0, 1, 21).reshape(-1, 1))
    eps = 0.2
    radii = [0.06, 0.12]
    h = hausdorff_check(m, [0.5], eps_list=[eps], probe_radii=radii)
    assert h.verdict is Verdict.HOLDS
    delta = h.details["per_eps"][0]["delta"]
    norms = np.linalg.norm(WS.weights, axis=1)
    e = equicontinuity_check(m, [0.5], WS, [delta], eps * norms.max())
    assert e.verdict is Verdict.HOLDS


class TestSupportProfile:
    def test_two_point_value_profile_is_min_of_linear(self):
        value = SetValue.make([[1, 0], [0, 1]])
        segment = np.linspace([1, 0], [0, 1], 9)
        profile, concavity = support_profile(value, segment)
        np.testing.assert_allclose(profile, np.minimum(segment[:, 0], segment[:, 1]))
        assert concavity.verdict is Verdict.HOLDS

    def test_singleton_profile_linear(self):
        value = SetValue.make([[2, -1]])
        segment = np.linspace([1, 0], [0, 1], 7)
        profile, concavity = support_profile(value, segment)
        np.testing.assert_allclose(profile, segment @ np.array([2.0, -1.0]))
        assert concavity.verdict is Verdict.HOLDS

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            support_profile(SetValue.make([], dim=2), np.eye(2))

    def test_randomized_values_always_concave(self):
        rng = np.random.default_rng(3)
        segment = np.linspace([1, 0], [0, 1], 17)
        for _ in range(100):
            value = SetValue.make(rng.normal(size=(rng.integers(1, 8), 2)))
            _, concavity = support_profile(value, segment)
            assert concavity.verdict is Verdict.HOLDS


def test_scalarize_many_matches_scalar():
    value = SetValue.make([[1, 2], [3, 0]])
    outs = scalarize_many(value, WS.weights)
    for j, w in enumerate(WS.weights):
        assert outs[j] == scalarize(value, w).value
