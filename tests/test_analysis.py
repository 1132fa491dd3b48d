import numpy as np
import pytest

from setvi import analysis as analysis_mod
from setvi import order as order_mod
from setvi.analysis import (
    CONVEXITY_T_SAMPLES,
    DiniConfig,
    c_convexity_check,
    classify_path,
    convexity_pairs,
    diewert_witness,
    dini_lower,
)
from setvi.cone import dual_base, make_cone
from setvi.errors import InternalCheckError, NoWitnessFound, StepOutsideDomain
from setvi.order import classify_weak_min
from setvi.scalarize import PiecewiseLinear, ScalarPath
from setvi.setmap import builtin_map, load_problem
from setvi.verdicts import Verdict

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 5)
GRID = np.linspace(0, 1, 11)


def pl_path(knots, values, grid_size=21):
    pl = PiecewiseLinear(np.asarray(knots, dtype=float),
                         np.asarray(values, dtype=float))
    return ScalarPath.from_breakpoints(pl, np.linspace(0, 1, grid_size))


class TestDiniLower:
    def test_quadratic_at_zero_small_error(self):
        path = ScalarPath.from_function(lambda t: t * t, GRID)
        d = dini_lower(path, 0.0, +1)
        assert abs(d - 0.0) <= 1e-5

    def test_piecewise_linear_exact_forward(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 0.5])
        assert dini_lower(path, 0.5, +1) == 1.0
        assert dini_lower(path, 0.5, -1) == 1.0

    def test_asymmetric_kink_backward(self):
        # slopes -1 then +2: walking backward from the kink climbs at rate 1
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0])
        assert dini_lower(path, 0.5, -1) == 1.0
        assert dini_lower(path, 0.5, +1) == 2.0

    def test_interior_of_segment_uses_local_slope(self):
        path = pl_path([0, 0.5, 1], [0.0, 1.0, 0.5])
        assert dini_lower(path, 0.25, +1) == 2.0
        assert dini_lower(path, 0.75, +1) == -1.0
        assert dini_lower(path, 0.75, -1) == 1.0

    def test_outside_interval_rejected(self):
        path = pl_path([0, 1], [0, 1])
        with pytest.raises(StepOutsideDomain):
            dini_lower(path, 1.5, +1)

    def test_boundary_forward_reads_plus_infinity(self):
        path = pl_path([0, 1], [0.0, 1.0])
        assert dini_lower(path, 1.0, +1) == np.inf

    def test_base_at_plus_infinity_with_infinite_ray(self):
        # a ray that never re-enters the domain carries no descent information
        values = np.full(5, np.inf)
        values[0] = 0.0
        path = ScalarPath(np.linspace(0, 1, 5), values)
        d = dini_lower(path, 0.5, +1, DiniConfig(t_max=0.05))
        assert d == np.inf

    def test_finite_base_with_empty_ray_is_plus_infinity(self):
        values = np.array([0.0, np.inf, np.inf, np.inf, np.inf])
        path = ScalarPath(np.linspace(0, 1, 5), values)
        assert dini_lower(path, 0.0, +1) == np.inf

    def test_numeric_matches_exact_below_first_breakpoint(self):
        # dyadic knots and values keep the interpolation arithmetic exact, so
        # the probe quotients reproduce the closed-form slope bit for bit
        knots = [0, 0.25, 1]
        vals = [1.0, 0.5, 0.75]
        exact = pl_path(knots, vals, grid_size=9)
        numeric = ScalarPath.from_function(exact.eval_many, np.linspace(0, 1, 9))
        cfg = DiniConfig(t_max=0.125, ratio=0.5, steps=12)  # below the kink
        for t, direction in ((0.0, +1), (0.125, +1), (0.125, -1)):
            assert dini_lower(numeric, t, direction, cfg) == \
                dini_lower(exact, t, direction)

    def test_value_scaling_scales_derivative_exactly(self):
        knots = [0, 0.25, 0.75, 1]
        vals = np.array([0.75, 0.125, 0.5, 1.25])
        lam = 4.0
        base = pl_path(knots, vals)
        scaled = pl_path(knots, lam * vals)
        for t in (0.0, 0.25, 0.5, 0.75):
            assert dini_lower(scaled, t, +1) == \
                lam * dini_lower(base, t, +1)


class TestClassifyPath:
    def test_trapezoid_structure(self):
        path = pl_path([0, 0.3, 0.7, 1], [0.3, 0.0, 0.0, 0.3], grid_size=101)
        rep = classify_path(path)
        assert rep.semistrictly_quasiconvex.verdict is Verdict.HOLDS
        assert rep.s0 == pytest.approx(0.3, abs=0.011)
        assert rep.t0 == pytest.approx(0.7, abs=0.011)

    def test_quadratic_is_pseudoconvex_with_zero_plateau(self):
        path = ScalarPath.from_function(lambda t: t * t, np.linspace(0, 1, 21))
        rep = classify_path(path)
        assert rep.semistrictly_quasiconvex.verdict is Verdict.HOLDS
        assert rep.pseudoconvex.verdict is Verdict.HOLDS
        assert rep.s0 == 0.0 and rep.t0 == 0.0

    def test_interior_maximum_fails_with_witness(self):
        path = ScalarPath.from_function(lambda t: -abs(t - 0.5),
                                        np.linspace(0, 1, 21))
        rep = classify_path(path)
        assert rep.semistrictly_quasiconvex.verdict is Verdict.FAILS
        assert rep.semistrictly_quasiconvex.witness is not None
        assert rep.pseudoconvex.verdict is Verdict.FAILS

    def test_monotone_convex_is_both_pseudo_classes(self):
        path = pl_path([0, 0.5, 1], [0.0, 0.2, 0.9], grid_size=21)
        rep = classify_path(path)
        assert rep.pseudoconvex.verdict is Verdict.HOLDS
        assert rep.pseudoconcave.verdict is Verdict.HOLDS

    def test_grid_too_coarse(self):
        from setvi.errors import GridTooCoarse

        path = ScalarPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(GridTooCoarse):
            classify_path(path)

    def test_splice_recovery_randomized(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0, 1, 201)
        for _ in range(25):
            s0, t0 = np.sort(rng.uniform(0.1, 0.9, size=2))
            down, up = rng.uniform(0.5, 4.0, size=2)
            pl = PiecewiseLinear(
                np.array([0.0, s0, t0, 1.0]),
                np.array([down * s0, 0.0, 0.0, up * (1 - t0)]),
            )
            rep = classify_path(ScalarPath.from_breakpoints(pl, grid))
            step = grid[1] - grid[0]
            assert abs(rep.s0 - s0) <= step + 1e-12
            assert abs(rep.t0 - t0) <= step + 1e-12

    def test_pseudoconvex_paths_are_semistrictly_quasiconvex(self):
        # V-shaped strict splices are pseudoconvex by construction; their
        # triples must never exhibit an interior hump
        rng = np.random.default_rng(21)
        grid = np.linspace(0, 1, 101)
        for _ in range(50):
            s0 = rng.uniform(0.15, 0.85)
            down, up = rng.uniform(0.5, 3.0, size=2)
            pl = PiecewiseLinear(np.array([0.0, s0, 1.0]),
                                 np.array([down * s0, 0.0, up * (1 - s0)]))
            rep = classify_path(ScalarPath.from_breakpoints(pl, grid))
            assert rep.pseudoconvex.verdict is Verdict.HOLDS
            assert rep.semistrictly_quasiconvex.verdict is Verdict.HOLDS


class TestConeConvexity:
    def pairs(self, lo=-1.0, hi=1.0):
        return [(np.array([lo]), np.array([hi]))]

    def test_constant_map_holds(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]})
        res = c_convexity_check(m, ORTHANT, WS, self.pairs(), [0.25, 0.5, 0.75])
        assert res.verdict is Verdict.HOLDS

    def test_componentwise_convex_holds(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        res = c_convexity_check(m, ORTHANT, WS, self.pairs(), [0.25, 0.5, 0.75])
        assert res.verdict is Verdict.HOLDS

    def test_concave_component_fails_both_tests(self):
        m = builtin_map("segment_shift",
                        {"segment": [[0, 0]], "quadratic": [-1.0, 0.0]})
        res = c_convexity_check(m, ORTHANT, WS, self.pairs(), [0.5])
        assert res.verdict is Verdict.FAILS
        assert res.witness is not None
        assert res.details["scalar_witness"] is not None

    def test_staircase_values_fail_containment_only(self):
        # F(x) + C is not convex for a two-point staircase value: the midpoint
        # of its points fails the containment, while every scalarization of
        # the constant map stays convex (the notch is invisible to weights)
        m = builtin_map("constant_cloud", {"points": [[2, 0], [0, 2]]})
        res = c_convexity_check(m, ORTHANT, WS, self.pairs(), [0.5])
        assert res.verdict is Verdict.FAILS
        assert res.witness["point"] == [1.0, 1.0]
        assert res.witness["margin"] == -1.0
        assert res.details["scalar_witness"] is None

    def test_containment_witness_on_chains_of_dominated_anchors(self):
        # F(0) and F(4) are 8-point staircases (antichains under the
        # orthant, so no combined point drops) and F(1), F(2), F(3) 8-point
        # chains from (1.5, 1.5): 64 combination points against 8 anchors
        # of which 7 are dominated.  The first worst point, (0, 2) at
        # t = 0.25, has its margin min(0 - 1.5, 2 - 1.5) at the least anchor
        s = np.linspace(0.0, 2.0, 8)
        stair = np.column_stack([s, 2.0 - s])
        steps = np.tile([[0.3, 0.1], [0.1, 0.4]], (4, 1))[:7]
        chain = 1.5 + np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0)
        m = self.tabulated([stair.tolist()] + [chain.tolist()] * 3 + [stair.tolist()])
        pairs = [(np.array([0.0]), np.array([4.0])), (np.array([4.0]), np.array([0.0]))]
        res = c_convexity_check(m, ORTHANT, WS, pairs, [0.25, 0.5, 0.75])
        assert res.verdict is Verdict.FAILS
        assert res.witness == {"x1": [0.0], "x2": [4.0], "t": 0.25,
                               "point": [0.0, 2.0], "margin": -1.5}
        assert res.details["scalar_witness"]["gap"] == 1.5

    def test_containment_witness_survives_probe_pruning(self, monkeypatch):
        # each F(x) is an 8-point chain under the orthant, shifted by a
        # concave first component: each of the 3 end values keeps its one
        # C-minimal point, so each of the 6 combinations reads one
        # combination point instead of 64, and the FAILS witness must equal
        # the one read over all of them
        steps = np.tile([[0.3, 0.1], [0.1, 0.4]], (4, 1))[:7]
        chain = np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0)
        m = builtin_map("segment_shift", {"segment": chain.tolist(), "quadratic": [-1.0, 0.0]})
        pairs = [(np.array([-1.0]), np.array([1.0])), (np.array([-0.5]), np.array([1.0]))]
        kept, probes = [], []
        mark, margins = analysis_mod.dominated_probes, analysis_mod.ext_margins

        def spy_mark(ys, cone, scale, factor=1.0):
            out = mark(ys, cone, scale, factor)
            kept.append(np.count_nonzero(~out, axis=-1).tolist())
            return out

        def spy_margins(points, cone, ys):
            probes.append(ys.shape[:-1])
            return margins(points, cone, ys)

        monkeypatch.setattr(analysis_mod, "dominated_probes", spy_mark)
        monkeypatch.setattr(analysis_mod, "ext_margins", spy_margins)
        pruned = c_convexity_check(m, ORTHANT, WS, pairs, [0.25, 0.5, 0.75])
        monkeypatch.setattr(analysis_mod, "dominated_probes",
                            lambda ys, cone, scale, factor=1.0: np.zeros(ys.shape[:-1], bool))
        full = c_convexity_check(m, ORTHANT, WS, pairs, [0.25, 0.5, 0.75])
        assert kept == [[1, 1, 1]]
        assert probes == [(6, 1), (6, 64)]
        assert pruned.verdict is Verdict.FAILS
        assert pruned.witness["margin"] < 0
        assert pruned.witness == full.witness
        assert pruned.details == full.details

    def test_ordered_clouds_read_one_point_per_margin(self, monkeypatch):
        # 64-point clouds totally ordered by a rescaled orthant of R^4, shifted
        # by a convex quadratic: every (pair, t) combination hands ext_margins
        # one combination point, and the minimality scan probes one point of
        # F(x0) against every sample, then all 64 for the samples whose
        # smallest margin is zero: x0 and, for the corner, F(-2) = F(2)
        rng = np.random.default_rng(101)
        start = rng.uniform(-1.0, 1.0, size=4)
        chain = np.vstack([start, start + np.cumsum(rng.uniform(0.1, 1.0, size=(63, 4)), axis=0)])
        cone = make_cone(np.diag(rng.uniform(0.5, 2.0, size=4)), np.ones(4))
        m = builtin_map("segment_shift", {
            "segment": chain.tolist(), "offset": rng.uniform(-1.0, 1.0, size=4).tolist(),
            "quadratic": rng.uniform(0.5, 1.5, size=4).tolist(), "center": [0.0],
            "domain_dim": 1}, domain=np.linspace(-2.0, 2.0, 33).reshape(-1, 1))
        wstar = dual_base(cone, 7)
        calls = []

        def spy(module):
            margins = module.ext_margins

            def counted(points, cone, ys):
                calls.append((points.shape[:-1], ys.shape[-2]))
                return margins(points, cone, ys)
            monkeypatch.setattr(module, "ext_margins", counted)

        spy(analysis_mod)
        spy(order_mod)
        pairs = convexity_pairs(m, CONVEXITY_T_SAMPLES, 15)
        res = c_convexity_check(m, cone, wstar, pairs, CONVEXITY_T_SAMPLES, 1e-5)
        assert res.verdict is Verdict.HOLDS
        assert calls == [((45, 64), 1)]
        for x0, verdict, zeros in ((0.0, Verdict.HOLDS, 1), (2.0, Verdict.FAILS, 2)):
            calls.clear()
            assert classify_weak_min(m, [x0], cone, wstar, 1e-5).w_min.verdict is verdict
            assert calls == [((33, 64), 1), ((zeros, 64), 64)]

    def tabulated(self, values):
        """A tabulated map on x = 0, 1, 2; None marks an empty value, "whole"
        a whole-space one."""
        entries = [{"x": [x], "points": [], "whole_space": True} if v == "whole"
                   else {"x": [x], "points": [] if v is None else v}
                   for x, v in enumerate(values)]
        return load_problem({"cone": {"dual_generators": [[1, 0], [0, 1]],
                                      "interior_point": [1, 1]},
                             "map": {"tabulated": entries}}).map

    def test_empty_endpoint_is_skipped(self):
        m = self.tabulated([None, [[0, 0]], [[1, 1]]])
        res = c_convexity_check(m, ORTHANT, WS, [(np.array([0.0]), np.array([2.0]))], [0.5])
        assert res.verdict is Verdict.UNDETERMINED
        assert res.resolution["combinations_checked"] == 0

    def test_whole_space_endpoint_needs_a_whole_space_combination(self):
        m = self.tabulated(["whole", [[0, 0]], [[1, 1]]])
        res = c_convexity_check(m, ORTHANT, WS, [(np.array([0.0]), np.array([2.0]))], [0.5])
        assert res.verdict is Verdict.FAILS
        assert res.witness["reason"] == "whole-space combination not covered"

    def test_empty_combination_fails(self):
        m = self.tabulated([[[0, 0]], None, [[1, 1]]])
        res = c_convexity_check(m, ORTHANT, WS, [(np.array([0.0]), np.array([2.0]))], [0.5])
        assert res.verdict is Verdict.FAILS
        assert res.witness["reason"] == "empty value at the combination point"

    def test_scalar_witness_without_containment_witness_raises(self, monkeypatch):
        # the containment forces convex scalarizations, so only margins
        # forced positive let a non-convex scalarization through alone
        import setvi.analysis

        def inside(points, cone, ys):
            return np.ones(ys.shape[:-1]), np.zeros(ys.shape[:-1], dtype=int)

        monkeypatch.setattr(setvi.analysis, "ext_margins", inside)
        m = builtin_map("segment_shift", {"segment": [[0, 0]], "quadratic": [-1.0, 0.0]})
        with pytest.raises(InternalCheckError, match="convexity tests disagree"):
            c_convexity_check(m, ORTHANT, WS, self.pairs(), [0.5])

    def test_pair_count_of_an_iterator(self):
        m = builtin_map("quadratic_vector", {"targets": [0, 1]})
        pairs = ((np.array([lo]), np.array([1.0])) for lo in (-1.0, -0.5, 0.0))
        res = c_convexity_check(m, ORTHANT, WS, pairs, [0.5])
        assert res.resolution["pairs"] == 3
        assert res.resolution["combinations_checked"] == 3

    def test_tabulated_pairs_keep_stored_combinations(self):
        xs = np.linspace(0.0, 1.0, 5)
        doc = {"cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
               "map": {"tabulated": [{"x": [x], "points": [[x, -x]]} for x in xs]}}
        m = load_problem(doc).map
        pairs = convexity_pairs(m, [0.25, 0.5, 0.75], max_pairs=36)
        assert [(a[0], b[0]) for a, b in pairs] == [(0.0, 1.0)]
        every = convexity_pairs(builtin_map("quadratic_vector", {"targets": [0, 1]},
                                            domain=xs.reshape(-1, 1)),
                                [0.5], max_pairs=4)
        assert [(a[0], b[0]) for a, b in every] == [(0.0, 0.25), (0.0, 1.0),
                                                   (0.25, 1.0), (0.75, 1.0)]

    @staticmethod
    def _pairs_then_stride(m, t_samples, max_pairs):
        """The reference: every kept pair built as a tuple, then thinned."""
        first, second = np.triu_indices(m.domain.shape[0], 1)
        pairs = [(m.domain[i], m.domain[j]) for i, j in zip(first, second)]
        if m.kind == "tabulated":
            stored = {tuple(x) for x in m.domain}
            pairs = [(a, b) for a, b in pairs
                     if all(tuple(t * a + (1.0 - t) * b) in stored for t in t_samples)]
        if len(pairs) > max_pairs:
            pairs = pairs[::int(np.ceil(len(pairs) / max_pairs))]
        return pairs

    def test_index_stride_matches_the_list_stride(self):
        # thinning the indices before any tuple is built keeps the pairs and their order
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, max_pairs = int(rng.integers(1, 61)), int(rng.integers(1, 41))
            # most of a quarter grid, so that many combination points are stored samples
            xs = np.sort(rng.choice(0.25 * np.arange(n + 4), size=n, replace=False))
            doc = {"cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
                   "map": {"tabulated": [{"x": [x], "points": [[x, -x]]} for x in xs]}}
            for m in (builtin_map("quadratic_vector", {"targets": [0, 1]},
                                  domain=xs.reshape(-1, 1)), load_problem(doc).map):
                got = convexity_pairs(m, CONVEXITY_T_SAMPLES, max_pairs)
                want = self._pairs_then_stride(m, CONVEXITY_T_SAMPLES, max_pairs)
                assert [(a.tolist(), b.tolist()) for a, b in got] == \
                    [(a.tolist(), b.tolist()) for a, b in want]

    def test_a_large_domain_builds_only_the_kept_pairs(self):
        # 2049 samples have 2,096,128 pairs; as tuples they held about 750 MB
        import tracemalloc

        m = builtin_map("quadratic_vector", {"targets": [0, 1]},
                        domain=np.linspace(-1.0, 2.0, 2049).reshape(-1, 1))
        tracemalloc.start()
        try:
            pairs = convexity_pairs(m, CONVEXITY_T_SAMPLES, max_pairs=36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) <= 36 and peak < 64 * 2 ** 20


class TestDiewertWitness:
    def test_linear_path_any_point(self):
        path = pl_path([0, 1], [0.0, 1.0], grid_size=5)
        t, residual = diewert_witness(path, "forward")
        assert residual >= -1e-9

    def test_v_shape_finds_steep_side(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0], grid_size=5)
        t, residual = diewert_witness(path, "forward")
        assert 0.5 <= t < 1.0
        assert residual == pytest.approx(1.5)

    def test_plus_infinity_start_witnessed_at_zero(self):
        values = np.array([np.inf, 1.0, 0.5, 0.2, 0.1])
        path = ScalarPath(np.linspace(0, 1, 5), values)
        t, residual = diewert_witness(path, "forward")
        assert t == 0.0

    def test_backward_form(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0], grid_size=5)
        s, residual = diewert_witness(path, "backward")
        assert 0.0 < s <= 1.0
        assert residual >= -1e-9

    def test_no_witness_raises(self):
        # an upper semicontinuous step: the difference is 1 but every
        # derivative along the way is 0 or -inf-side at the sampled points
        values = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        grid = np.linspace(0, 1, 5)
        path = ScalarPath(grid, values, evaluator=lambda ts: np.where(
            np.asarray(ts) > 0.26, 1.0, 0.0))
        with pytest.raises(NoWitnessFound):
            diewert_witness(path, "forward", DiniConfig(t_max=1e-3))


def make_lsc_piecewise(rng):
    """Random lower-semicontinuous piecewise-linear path, possibly with
    +inf head or tail segments."""
    k = int(rng.integers(2, 6))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
    vals = rng.uniform(-2.0, 2.0, size=knots.size)
    style = rng.integers(0, 4)
    if style == 1:
        vals[0] = np.inf
    elif style == 2:
        vals[-1] = np.inf
    elif style == 3:
        vals[0] = np.inf
        vals[-1] = np.inf
    return ScalarPath.from_breakpoints(PiecewiseLinear(knots, vals),
                                       np.linspace(0, 1, 9))


def test_mean_value_witness_on_random_lsc_paths():
    rng = np.random.default_rng(5)
    for _ in range(100):
        path = make_lsc_piecewise(rng)
        for side in ("forward", "backward"):
            t, residual = diewert_witness(path, side)
            assert residual >= -1e-9 or residual == -np.inf


def _brute_pseudo(t, v, d_plus, d_minus, tau):
    """Naive all-pairs reference for the pseudo-class scans."""
    rank = {Verdict.HOLDS: 0, Verdict.UNDETERMINED: 1, Verdict.FAILS: 2}
    cvx = ccv = Verdict.HOLDS
    n = v.size
    for b in range(n):
        if not v[b] < np.inf:
            continue
        for a in range(n):
            if a == b or not v[a] < np.inf:
                continue
            d = d_plus[b] if t[a] > t[b] else d_minus[b]
            dist = abs(t[a] - t[b])
            scaled = d * dist if np.isfinite(d) else d
            if v[a] < v[b] - tau:
                if scaled >= tau:
                    cvx = Verdict.FAILS
                elif scaled > -tau and rank[cvx] < 1:
                    cvx = Verdict.UNDETERMINED
            if v[a] > v[b] + tau:
                if scaled <= -tau:
                    ccv = Verdict.FAILS
                elif scaled < tau and rank[ccv] < 1:
                    ccv = Verdict.UNDETERMINED
    return cvx, ccv


def _brute_ssqc(t, v, tau):
    n = v.size
    verdict = Verdict.HOLDS
    for i in range(n):
        for k in range(i + 2, n):
            if not (v[i] < np.inf and v[k] < np.inf):
                continue
            if abs(v[i] - v[k]) <= tau:
                continue
            m = max(v[i], v[k])
            for j in range(i + 1, k):
                if v[j] - m >= tau:
                    return Verdict.FAILS
                if v[j] > m - tau and verdict is Verdict.HOLDS:
                    verdict = Verdict.UNDETERMINED
    return verdict


def test_pair_scans_match_brute_force_reference():
    # every column of one matrix call against the naive scans of that column
    from setvi.analysis import _pseudo_scan, _ssqc_scan

    rng = np.random.default_rng(97)
    tau = 1e-9
    for trial in range(150):
        n = int(rng.integers(4, 12))
        W = int(rng.integers(1, 6))
        t = np.sort(rng.uniform(0, 1, size=n))
        t[0], t[-1] = 0.0, 1.0
        if np.any(np.diff(t) <= 0):
            continue
        V = np.round(rng.uniform(-2, 2, size=(n, W)), 2)  # exact-tie opportunities
        if trial % 3 == 0:
            V[rng.integers(0, n, size=W), np.arange(W)] = np.inf
        D_plus = rng.choice([-np.inf, -1.5, -2e-9, -1e-12, 0.0, 1e-12, 2e-9, 2.0, np.inf],
                            size=(n, W))
        D_minus = rng.choice([-np.inf, -0.5, -2e-9, 0.0, 2e-9, 3.0, np.inf], size=(n, W))
        cvx, ccv, _ = _pseudo_scan(t, V, D_plus, D_minus, tau)
        ssqc = _ssqc_scan(t, V, tau)
        for w in range(W):
            want = _brute_pseudo(t, V[:, w], D_plus[:, w], D_minus[:, w], tau)
            assert cvx[w][0] is want[0], f"trial {trial} column {w}: pseudoconvex"
            assert ccv[w][0] is want[1], f"trial {trial} column {w}: pseudoconcave"
            assert ssqc[w][0] is _brute_ssqc(t, V[:, w], tau), f"trial {trial} column {w}: ssqc"


def test_ascent_band_partner_stays_in_the_domain():
    # the nearest sample clearly above phi(0) = 0 is the +inf one at t = 0.25,
    # outside the domain; the band partner must be t = 0.5, where the scaled
    # derivative 3e-9 * 0.5 clears the band, so pseudoconcavity holds
    from setvi.analysis import _pseudo_scan

    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    v = np.array([0.0, np.inf, 5.0, 5.0, 5.0])
    d_plus = np.array([3e-9, 0.0, 0.0, 0.0, np.inf])
    d_minus = np.array([np.inf, 0.0, 0.0, 0.0, 0.0])
    _, ((ccv, witness),), _ = _pseudo_scan(t, v[:, None], d_plus[:, None],
                                           d_minus[:, None], 1e-9)
    assert (ccv, witness) == (Verdict.HOLDS, None)
    assert _brute_pseudo(t, v, d_plus, d_minus, 1e-9)[1] is Verdict.HOLDS
