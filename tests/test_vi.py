import sys

import numpy as np
import pytest

from setvi.analysis import DiniConfig
from setvi.cone import dual_base, make_cone
from setvi.errors import BasePointOutsideDomain
from setvi.setmap import blocks, builtin_map, load_problem
from setvi.suite import run_suite
from setvi.verdicts import CheckResult, Verdict
from setvi.vi import (
    ChainStatus,
    _equivalence,
    _implication,
    replay_derivative,
    replay_derivatives,
    theorem_chain,
    theorem_chains,
    vi_check,
)

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 9)
CFG = DiniConfig(t_max=1e-4, ratio=0.5, steps=12)
TAU = 1e-6

GRID = np.linspace(-1, 2, 13).reshape(-1, 1)


def quad_map():
    return builtin_map("quadratic_vector", {"targets": [0, 1]}, domain=GRID)


def cloud_map():
    # 64 points per value on 33 samples: the probes of one ray or of a few
    # fill a block of ray_scalarizations
    s = np.linspace(0.0, 1.0, 64)
    return builtin_map("segment_shift", {"segment": np.column_stack([s, 1.0 - s]).tolist(),
                                         "quadratic": [1.0, 1.0], "center": [0.5]},
                       domain=np.linspace(-1, 2, 33).reshape(-1, 1))


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"ray_grid_size": 1}, "ray_grid_size must be an integer >= 2"),
        ({"ray_grid_size": 0}, "ray_grid_size must be an integer >= 2"),
        ({"max_rays": 0}, "max_rays must be an integer >= 1"),
    ])
    def test_grid_arguments_are_checked_up_front(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            theorem_chain(quad_map(), [0.5], ORTHANT, WS, cfg=CFG, tau=TAU, **kwargs)

    @pytest.mark.parametrize("max_rays", [1, 4, 8, 13])
    @pytest.mark.parametrize("make_map, block", [("quad", None), ("cloud", None),
                                                 ("cloud", 1 << 15)])
    def test_batched_calls_per_survey_block_and_per_vi_check(self, monkeypatch, max_rays,
                                                             make_map, block):
        # per survey block two dini_table calls (one per side) and one
        # evaluate_batch call; the svi and mvi rows together one dini_table
        # call and one evaluate_batch call per block of points; one
        # evaluate_batch call reads the rays and one the convexity points.
        # The map is built first: its domain read is one more call
        map_ = quad_map() if make_map == "quad" else cloud_map()
        if block is not None:
            monkeypatch.setattr(sys.modules["setvi.setmap"], "_POINTS_BLOCK", block)
        calls = {"dini_table": 0, "evaluate_batch": 0}
        for fn in calls:
            original = getattr(sys.modules["setvi.analysis" if fn == "dini_table"
                                           else "setvi.setmap"], fn)

            def counted(*args, _fn=fn, _original=original):
                calls[_fn] += 1
                return _original(*args)

            for name, mod in list(sys.modules.items()):
                if name.startswith("setvi.") and getattr(mod, fn, None) is original:
                    monkeypatch.setattr(mod, fn, counted)
        rep = theorem_chain(map_, [0.5], ORTHANT, WS, cfg=CFG, tau=TAU, max_rays=max_rays)
        n = map_.domain.shape[0]
        surveyed = rep.hypotheses["star_shaped"].resolution["rays"]
        assert surveyed == len(range(0, n, -(-n // max_rays)))
        cloud = map_.values[0].points.size
        survey_blocks = len(blocks(surveyed, 2 * 9 * CFG.steps * cloud))
        vi_blocks = len(blocks(2 * n * (CFG.steps + 1), cloud))
        assert calls == {"dini_table": 2 * survey_blocks + 1,
                         "evaluate_batch": 1 + survey_blocks + vi_blocks + 1}
        if make_map == "cloud":  # the survey and, in a smaller block, the VI rows split
            assert survey_blocks > 1 or max_rays < 8
            assert (vi_blocks > 1) == (block is not None)
        for kind, vi in rep.vi_details.items():  # a batched row has its bits alone
            for e in vi.per_x:
                if e["witness_w"] is not None:
                    again = replay_derivative(map_, [0.5], WS, CFG, kind, e["x"], e["witness_w"])
                    assert np.float64(again).tobytes() == np.float64(e["derivative"]).tobytes()


HOLDING = {name: CheckResult(Verdict.HOLDS)
           for name in ("c_convexity", "compactness", "radial_continuity", "properness",
                        "non_degenerate")}
H, F, U = Verdict.HOLDS, Verdict.FAILS, Verdict.UNDETERMINED


@pytest.mark.parametrize("antecedent, consequent, status, extra", [
    (U, H, "NOT_APPLICABLE", {"blocked_by": ["antecedent undetermined"]}),
    (H, U, "NOT_APPLICABLE", {"blocked_by": ["consequent undetermined"]}),
    (H, F, "VIOLATED", {}),
])
def test_implication_with_its_hypotheses_holding(antecedent, consequent, status, extra):
    entry = _implication("a => b", ["compactness"], HOLDING, antecedent, consequent)
    assert entry == {"implication": "a => b", "needs": ["compactness"],
                     "status": status, **extra}


@pytest.mark.parametrize("trio, status, extra", [
    ((H, U, F), "NOT_APPLICABLE", {"blocked_by": ["undetermined verdict"]}),
    ((H, H, F), "VIOLATED", {"verdicts": ["HOLDS", "HOLDS", "FAILS"]}),
    ((F, F, F), "CONFIRMED", {}),
])
def test_equivalence_with_its_hypotheses_holding(trio, status, extra):
    entry = _equivalence(HOLDING, trio)
    assert entry == {"implication": "svi <=> w-min <=> mvi", "needs": list(HOLDING),
                     "status": status, **extra}


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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def tabulated_map():
    xs = np.linspace(0, 1, 5)
    entries = [{"x": [float(x)], "points": [[float((x - 0.2) ** 2), float((x - 0.8) ** 2)],
                                            [1.0, 1.0]]}
               for x in xs]
    return load_problem({"cone": {"dual_generators": [[1, 0], [0, 1]],
                                  "interior_point": [1, 1]},
                         "map": {"tabulated": entries}}).map


def square_map():
    axis = np.linspace(-1, 2, 4)
    domain = np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    return builtin_map("quadratic_vector", {"targets": [[0, 0], [1, 1]]}, domain=domain)


BATCH_CASES = [(quad_map, [0.5]), (cloud_map, [0.5]), (tabulated_map, [0.25]),
               (square_map, [0.0, 1.0])]


class TestBatchedReplay:
    @pytest.mark.parametrize("kind", ["svi", "mvi", "svi2", "mvi2"])
    @pytest.mark.parametrize("make_map, x0", BATCH_CASES)
    def test_batch_matches_rows_and_record_bit_for_bit(self, make_map, x0, kind):
        map_ = make_map()
        held = [e for e in vi_check(map_, x0, ORTHANT, WS, CFG, kind, TAU).per_x
                if e["witness_w"] is not None]
        assert len(held) > 1
        again = replay_derivatives(map_, x0, WS, CFG, kind, [e["x"] for e in held],
                                   [e["witness_w"] for e in held])
        rows = [replay_derivative(map_, x0, WS, CFG, kind, e["x"], e["witness_w"])
                for e in held]
        assert _bits(again) == _bits(rows) == _bits([e["derivative"] for e in held])

    def test_a_wrong_weight_index_changes_the_replay(self):
        map_ = quad_map()
        held = [e for e in vi_check(map_, [0.5], ORTHANT, WS, CFG, "svi", TAU).per_x
                if e["witness_w"] is not None and e["x"] != [0.5]]
        shifted = [(e["witness_w"] + 1) % len(WS) for e in held]
        again = replay_derivatives(map_, [0.5], WS, CFG, "svi", [e["x"] for e in held],
                                   shifted)
        assert all(_bits(a) != _bits(e["derivative"]) for a, e in zip(again, held))

    def test_suite_replays_once_per_instance_and_kind(self, monkeypatch):
        suite = sys.modules["setvi.suite"]
        kinds = []  # the kinds replayed after each instance's chains

        def chains(*args, **kwargs):
            kinds.append([])
            return theorem_chains(*args, **kwargs)

        def replays(*args):
            kinds[-1].append(args[4])
            return replay_derivatives(*args)

        monkeypatch.setattr(suite, "theorem_chains", chains)
        monkeypatch.setattr(suite, "replay_derivatives", replays)
        monkeypatch.setattr(suite, "_usable_cpus", lambda: 1)  # count in this process
        report = run_suite(seed=5, instances=6)
        assert report["summary"]["replay_failures"] == []
        assert len(kinds) == len(report["instances"])
        assert all(sorted(k) == ["mvi", "svi"] for k in kinds)

    def test_suite_runs_one_chain_pass_and_one_convexity_check_per_instance(self, monkeypatch):
        suite, vi = sys.modules["setvi.suite"], sys.modules["setvi.vi"]
        calls = {"theorem_chains": 0, "c_convexity_check": 0}
        for module, name in ((suite, "theorem_chains"), (vi, "c_convexity_check")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(suite, "_usable_cpus", lambda: 1)  # count in this process
        report = run_suite(seed=5, instances=6)
        assert calls == {"theorem_chains": 6, "c_convexity_check": 6}
        assert sum(len(res["per_base"]) for res in report["instances"]) > 12

    def test_a_stack_dependent_kernel_fails_the_suite_replays(self, monkeypatch):
        # a mutant whose rows depend on their stack: replays of fewer rows
        # than the check read come back with other bits
        scalarize = sys.modules["setvi.scalarize"]
        original = scalarize.scalarize_batch

        def mutant(clouds, weights):
            out = original(clouds, weights)
            mean = out.mean()
            return (out - mean) + mean

        monkeypatch.setattr(scalarize, "scalarize_batch", mutant)
        assert run_suite(seed=5, instances=6)["summary"]["replay_failures"]
