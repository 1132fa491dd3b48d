import numpy as np
import pytest

from setvi.analysis import DiniConfig
from setvi.cone import dual_base, make_cone
from setvi.errors import BasePointOutsideDomain
from setvi.setmap import builtin_map, load_problem
from setvi.verdicts import Verdict
from setvi.vi import (
    ChainStatus,
    replay_derivative,
    theorem_chain,
    vi_check,
)

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 9)
CFG = DiniConfig(t_max=1e-4, ratio=0.5, steps=12)
TAU = 1e-6

GRID = np.linspace(-1, 2, 13).reshape(-1, 1)


def quad_map():
    return builtin_map("quadratic_vector", {"targets": [0, 1]}, domain=GRID)


class TestMintyForm:
    def test_holds_at_interior_minimizer(self):
        res = vi_check(quad_map(), [0.5], ORTHANT, WS, CFG, "mvi", TAU)
        assert res.verdict is Verdict.HOLDS
        assert all(e["witness_w"] is not None for e in res.per_x)

    def test_fails_at_dominated_point_with_grid_point_between(self):
        # x = 1.5 lies right of every objective minimum, so every weighted
        # derivative toward x0 = 2 is strictly positive: no witness exists
        res = vi_check(quad_map(), [2.0], ORTHANT, WS, CFG, "mvi", TAU)
        assert res.verdict is Verdict.FAILS
        bad = [e for e in res.per_x if e["witness_w"] is None]
        assert any(e["x"] == [1.5] or e["x"] == [1.25] or e["x"] == [1.75]
                   for e in bad)

    def test_constant_map_all_derivatives_zero(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0], [1, 1]]},
                        domain=GRID)
        res = vi_check(m, [0.5], ORTHANT, WS, CFG, "mvi", TAU)
        assert res.verdict is Verdict.HOLDS
        assert all(abs(e["derivative"]) <= TAU for e in res.per_x)


class TestStampacchiaForm:
    def test_holds_at_interior_minimizer_with_balanced_weight(self):
        res = vi_check(quad_map(), [0.5], ORTHANT, WS, CFG, "svi", TAU)
        assert res.verdict is Verdict.HOLDS
        widx = [i for i, w in enumerate(WS.weights)
                if np.allclose(w, [0.5, 0.5])][0]
        d = replay_derivative(quad_map(), np.array([0.5]), WS, CFG, "svi",
                              np.array([2.0]), widx)
        assert abs(d) <= TAU

    def test_fails_at_dominated_point(self):
        # from x0 = 2 toward x = 0 every weighted derivative is negative
        res = vi_check(quad_map(), [2.0], ORTHANT, WS, CFG, "svi", TAU)
        assert res.verdict is Verdict.FAILS

    def test_singleton_domain_vacuous(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]},
                        domain=np.array([[0.5]]))
        res = vi_check(m, [0.5], ORTHANT, WS, CFG, "svi", TAU)
        assert res.verdict is Verdict.HOLDS

    def test_efficient_set_matches_dominance_scan(self):
        from setvi.order import vector_weak_efficient

        m = quad_map()
        svi_set = [float(x[0]) for x in GRID
                   if vi_check(m, x, ORTHANT, WS, CFG, "svi", TAU).verdict
                   is Verdict.HOLDS]
        brute = [float(x[0]) for x in GRID
                 if vector_weak_efficient(m, x, ORTHANT, TAU)]
        assert svi_set == brute == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestConvexForms:
    def test_whole_space_base_short_circuits(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [], "whole_space": True},
                {"x": [1], "points": [[0, 0]]},
            ]},
        }
        problem = load_problem(doc)
        res = vi_check(problem.map, [0], ORTHANT, WS, CFG, "svi2", TAU)
        assert res.verdict is Verdict.HOLDS
        assert res.resolution.get("degenerate_whole_space")

    def test_ray_leaving_domain_witnesses_plus_infinity(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[0, 0]]},
                {"x": [1], "points": []},
            ]},
        }
        problem = load_problem(doc)
        res = vi_check(problem.map, [0], ORTHANT, WS, CFG, "svi2", TAU)
        assert res.verdict is Verdict.HOLDS
        outside = [e for e in res.per_x if e["x"] == [1.0]]
        assert outside[0]["derivative"] == np.inf

    def test_convex_instance_svi_implies_svi2(self):
        m = quad_map()
        for x0 in ([0.5], [1.0]):
            svi = vi_check(m, x0, ORTHANT, WS, CFG, "svi", TAU)
            svi2 = vi_check(m, x0, ORTHANT, WS, CFG, "svi2", TAU)
            if svi.verdict is Verdict.HOLDS:
                assert svi2.verdict is Verdict.HOLDS

    def test_mvi2_properness_guard_blocks_whole_space_witnesses(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[0, 0]]},
                {"x": [1], "points": [], "whole_space": True},
            ]},
        }
        problem = load_problem(doc)
        res = vi_check(problem.map, [0], ORTHANT, WS, CFG, "mvi2", TAU)
        entry = [e for e in res.per_x if e["x"] == [1.0]][0]
        assert entry["witness_w"] is None

    def test_base_point_must_be_in_domain(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": []},
                {"x": [1], "points": [[0, 0]]},
            ]},
        }
        problem = load_problem(doc)
        with pytest.raises(BasePointOutsideDomain):
            vi_check(problem.map, [0], ORTHANT, WS, CFG, "svi", TAU)


class TestTheoremChain:
    def test_quadratic_minimizer_confirms_everything(self):
        rep = theorem_chain(quad_map(), [0.5], ORTHANT, WS, cfg=CFG, tau=TAU)
        assert not rep.violated
        statuses = {e["implication"]: e["status"] for e in rep.implications}
        assert all(s == ChainStatus.CONFIRMED.value for s in statuses.values())
        assert rep.hypotheses["c_convexity"].verdict is Verdict.HOLDS
        assert rep.verdicts["svi"] is Verdict.HOLDS
        assert rep.verdicts["mvi"] is Verdict.HOLDS

    def test_dominated_point_confirms_vacuously(self):
        rep = theorem_chain(quad_map(), [2.0], ORTHANT, WS, cfg=CFG, tau=TAU)
        assert not rep.violated
        assert rep.verdicts["svi"] is Verdict.FAILS
        assert rep.verdicts["mvi"] is Verdict.FAILS
        assert rep.verdicts["w_min"] is Verdict.FAILS
        vacuous = [e for e in rep.implications if e.get("vacuous")]
        assert vacuous

    def test_jump_map_blocks_continuity_dependent_entries(self):
        grid = np.linspace(0, 1, 11).reshape(-1, 1)
        m = builtin_map("jump_map", {"left_points": [[1, 1]],
                                     "right_points": [[0, 0]],
                                     "jump_at": 0.75}, domain=grid)
        rep = theorem_chain(m, [0.0], ORTHANT, WS, cfg=CFG, tau=TAU)
        assert rep.hypotheses["radial_continuity"].verdict is Verdict.FAILS
        blocked = [e for e in rep.implications
                   if e["status"] == ChainStatus.NOT_APPLICABLE.value
                   and "radial_continuity" in e.get("blocked_by", [])]
        assert blocked

    def test_witnesses_replay_bit_identically(self):
        m = quad_map()
        rep = theorem_chain(m, [0.5], ORTHANT, WS, cfg=CFG, tau=TAU)
        for kind, vi in rep.vi_details.items():
            for entry in vi.per_x:
                if entry["witness_w"] is None:
                    continue
                again = replay_derivative(m, np.array([0.5]), WS, CFG, kind,
                                          np.array(entry["x"]),
                                          entry["witness_w"])
                assert again == entry["derivative"]


def test_chain_on_tabulated_map_uses_stored_segment_samples():
    xs = np.linspace(0, 1, 5)
    entries = [{"x": [float(x)],
                "points": [[float((x - 0.2) ** 2), float((x - 0.8) ** 2)]]}
               for x in xs]
    doc = {
        "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
        "map": {"tabulated": entries},
    }
    problem = load_problem(doc)
    wstar = dual_base(ORTHANT, 5)
    rep = theorem_chain(problem.map, [0.25], ORTHANT, wstar,
                        cfg=DiniConfig(t_max=1e-3, ratio=0.5, steps=10), tau=1e-6)
    assert not rep.violated
    assert rep.hypotheses["c_convexity"].verdict is Verdict.HOLDS
    assert rep.verdicts["w_min"] is Verdict.HOLDS
