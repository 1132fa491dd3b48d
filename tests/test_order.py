import numpy as np
import pytest

from setvi.cone import dual_base, make_cone
from setvi.errors import EmptySet, InternalCheckError, NonSingletonValue
from setvi.order import (
    MinimalityVerdict,
    _enforce_consistency,
    classify_weak_min,
    dominance_margin,
    relation_ll,
    relation_lt,
    scalar_strict_separation,
    vector_weak_efficient,
)
from setvi.setmap import SetValue, builtin_map, evaluate, load_problem
from setvi.verdicts import CheckResult, Verdict
from test_cone import random_cone

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 9)


class TestRelations:
    def test_strict_dominance(self):
        A = SetValue.make([[0, 0]])
        B = SetValue.make([[1, 1]])
        assert relation_lt(A, B, ORTHANT)
        holds, margin = relation_ll(A, B, ORTHANT)
        assert holds and margin == 1.0

    def test_boundary_point_blocks_both(self):
        A = SetValue.make([[0, 0]])
        B = SetValue.make([[0, 1]])
        assert not relation_lt(A, B, ORTHANT)
        holds, margin = relation_ll(A, B, ORTHANT)
        assert not holds and margin == 0.0

    def test_hyperbola_margin_shrinks_with_truncation(self):
        A = SetValue.make([[0, 0]])
        previous = np.inf
        for T in (10, 100, 1000):
            m = builtin_map("hyperbola_truncation", {"T": T, "samples": 33})
            B = evaluate(m, [0])
            assert relation_lt(A, B, ORTHANT)
            holds, margin = relation_ll(A, B, ORTHANT)
            assert holds
            assert margin == pytest.approx(1.0 / T, abs=1e-12)
            assert margin < previous
            previous = margin

    def test_whole_space_margins(self):
        point = SetValue.make([[0, 0]])
        whole = SetValue.make([], whole_space=True, dim=2)
        assert dominance_margin(whole, point, ORTHANT) == np.inf
        assert dominance_margin(point, whole, ORTHANT) == -np.inf
        assert not relation_lt(point, whole, ORTHANT)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            relation_lt(SetValue.make([], dim=2), SetValue.make([[0, 0]]), ORTHANT)

    def test_adding_cone_translates_never_changes_verdicts(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            cone = random_cone(rng, m)
            A = rng.normal(size=(rng.integers(1, 5), m))
            B = rng.normal(size=(rng.integers(1, 5), m))
            # nonnegative combinations of rows feasible for the dual normals
            # stay inside the cone; use the interior witness direction
            shifts = np.abs(rng.normal(size=(2, 1))) * cone.interior_point[None, :]
            A_aug = np.vstack([A] + [A + s for s in shifts])
            va, vb = SetValue.make(A), SetValue.make(B)
            va2 = SetValue.make(A_aug)
            assert relation_lt(va, vb, cone) == relation_lt(va2, vb, cone)
            assert relation_ll(va, vb, cone)[0] == relation_ll(va2, vb, cone)[0]

    def test_uniform_implies_lower_always(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(2, 4))
            cone = random_cone(rng, m)
            A = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            B = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            holds, _ = relation_ll(A, B, cone)
            if holds:
                assert relation_lt(A, B, cone)

    def test_relations_coincide_outside_band(self):
        rng = np.random.default_rng(29)
        tau = 1e-9
        for _ in range(200):
            m = int(rng.integers(2, 4))
            cone = random_cone(rng, m)
            A = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            B = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            margin = dominance_margin(A, B, cone)
            if abs(margin) > 10 * tau:
                assert relation_lt(A, B, cone, tau) == relation_ll(A, B, cone, tau)[0]


class TestSeparation:
    def test_clear_separation(self):
        res = scalar_strict_separation(SetValue.make([[0, 0]]),
                                       SetValue.make([[1, 1]]), WS)
        assert res.verdict is Verdict.HOLDS

    def test_equal_values_fail(self):
        A = SetValue.make([[0.5, 0.5]])
        res = scalar_strict_separation(A, A, WS)
        assert res.verdict is not Verdict.HOLDS

    def test_reversed_coordinate_fails_with_witness(self):
        res = scalar_strict_separation(SetValue.make([[0, 0]]),
                                       SetValue.make([[2, -1]]), WS)
        assert res.verdict is Verdict.FAILS
        assert res.witness["w"] == [0.0, 1.0]

    def test_uniform_dominance_implies_separation(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(2, 4))
            cone = random_cone(rng, m)
            ws = dual_base(cone, 5)
            A = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            B = SetValue.make(rng.normal(size=(rng.integers(1, 5), m)))
            holds, margin = relation_ll(A, B, cone)
            if holds and margin > 1e-6:
                res = scalar_strict_separation(A, B, ws)
                assert res.verdict is not Verdict.FAILS


QUAD_GRID = np.array([-1, -0.5, 0, 0.25, 0.5, 0.75, 1, 2]).reshape(-1, 1)


def quad_map():
    return builtin_map("quadratic_vector", {"targets": [0, 1]}, domain=QUAD_GRID)


class TestClassifyWeakMin:
    def test_singleton_domain_vacuous(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]},
                        domain=np.array([[0.0]]))
        v = classify_weak_min(m, [0.0], ORTHANT, WS)
        assert v.w_l_min.verdict is Verdict.HOLDS
        assert v.w_sc_min.verdict is Verdict.HOLDS
        assert v.w_min.verdict is Verdict.HOLDS

    def test_quadratic_minimizer_set(self):
        m = quad_map()
        expected = {0.0, 0.25, 0.5, 0.75, 1.0}
        found = set()
        for x in QUAD_GRID:
            v = classify_weak_min(m, x, ORTHANT, WS)
            assert v.w_l_min.verdict is v.w_min.verdict
            if v.w_min.verdict is Verdict.HOLDS:
                found.add(float(x[0]))
        assert found == expected

    def test_dominated_point_reports_witness(self):
        v = classify_weak_min(quad_map(), [2.0], ORTHANT, WS)
        assert v.w_min.verdict is Verdict.FAILS
        assert v.w_min.witness["x"] == [1.0]
        # the dominating gap (4,1) - (1,0) = (3,1) certifies interior dominance
        assert v.w_min.witness["margin"] == pytest.approx(1.0)

    def test_whole_space_base_short_circuits(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [], "whole_space": True},
                {"x": [1], "points": [[0, 0]]},
            ]},
        }
        problem = load_problem(doc)
        v = classify_weak_min(problem.map, [0], ORTHANT, WS)
        assert v.degenerate_whole_space
        assert v.w_sc_min.verdict is Verdict.HOLDS

    def test_whole_space_elsewhere_defeats_all_three(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[0, 0]]},
                {"x": [1], "points": [], "whole_space": True},
            ]},
        }
        problem = load_problem(doc)
        v = classify_weak_min(problem.map, [0], ORTHANT, WS)
        assert v.w_min.verdict is Verdict.FAILS
        assert v.w_sc_min.verdict is Verdict.FAILS

    def test_scalar_notion_may_lag_the_order_notions(self):
        # the staircase value at x = 1 improves every weight on (1, 1) by at
        # least 0.05 without dominating it, since its extended set is not convex
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 1]]},
                {"x": [1], "points": [[1.9, 0], [0, 1.9]]},
            ]},
        }
        v = classify_weak_min(load_problem(doc).map, [0], ORTHANT, WS)
        assert v.w_min.verdict is Verdict.HOLDS
        assert v.w_sc_min.verdict is Verdict.FAILS
        assert not v.consistent and "no scalar witness" in v.note

    def test_scalar_minimality_under_clear_domination_raises(self):
        hold, fail = CheckResult(Verdict.HOLDS), CheckResult(Verdict.FAILS)
        verdict = MinimalityVerdict(fail, hold, fail, degenerate_whole_space=False)
        with pytest.raises(InternalCheckError, match="uniform domination"):
            _enforce_consistency(verdict, 1.0, WS, 1e-9)


class TestVectorWeakEfficiency:
    def test_quadratic_interior_point(self):
        assert vector_weak_efficient(quad_map(), [0.5], ORTHANT)

    def test_dominated_point(self):
        assert not vector_weak_efficient(quad_map(), [2.0], ORTHANT)

    def test_constant_map_every_point_efficient(self):
        m = builtin_map("constant_cloud", {"points": [[1, 2]]},
                        domain=np.linspace(0, 1, 5).reshape(-1, 1))
        assert all(vector_weak_efficient(m, x, ORTHANT) for x in m.domain)

    def test_non_singleton_rejected(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0], [1, 1]]})
        with pytest.raises(NonSingletonValue):
            vector_weak_efficient(m, [0.0], ORTHANT)

    def test_agrees_with_set_classifier_on_singletons(self):
        m = quad_map()
        for x in QUAD_GRID:
            set_verdict = classify_weak_min(m, x, ORTHANT, WS).w_min.verdict
            vec = vector_weak_efficient(m, x, ORTHANT)
            assert (set_verdict is Verdict.HOLDS) == vec
