import numpy as np
import pytest

from setvi.analysis import (
    DiniConfig,
    c_convexity_check,
    classify_path,
    convexity_pairs,
    diewert_witness,
    dini_lower,
)
from setvi.cone import dual_base, make_cone
from setvi.errors import InternalCheckError, NoWitnessFound, StepOutsideDomain
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
        assert abs(d.value - 0.0) <= 1e-5

    def test_piecewise_linear_exact_forward(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 0.5])
        assert dini_lower(path, 0.5, +1).value == 1.0
        assert dini_lower(path, 0.5, -1).value == 1.0

    def test_asymmetric_kink_backward(self):
        # slopes -1 then +2: walking backward from the kink climbs at rate 1
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0])
        assert dini_lower(path, 0.5, -1).value == 1.0
        assert dini_lower(path, 0.5, +1).value == 2.0

    def test_interior_of_segment_uses_local_slope(self):
        path = pl_path([0, 0.5, 1], [0.0, 1.0, 0.5])
        assert dini_lower(path, 0.25, +1).value == 2.0
        assert dini_lower(path, 0.75, +1).value == -1.0
        assert dini_lower(path, 0.75, -1).value == 1.0

    def test_outside_interval_rejected(self):
        path = pl_path([0, 1], [0, 1])
        with pytest.raises(StepOutsideDomain):
            dini_lower(path, 1.5, +1)

    def test_boundary_forward_reads_plus_infinity(self):
        path = pl_path([0, 1], [0.0, 1.0])
        assert dini_lower(path, 1.0, +1).value == np.inf

    def test_base_at_plus_infinity_with_infinite_ray(self):
        # a ray that never re-enters the domain carries no descent information
        values = np.full(5, np.inf)
        values[0] = 0.0
        path = ScalarPath(np.linspace(0, 1, 5), values)
        d = dini_lower(path, 0.5, +1, DiniConfig(t_max=0.05))
        assert d.value == np.inf

    def test_finite_base_with_empty_ray_is_plus_infinity(self):
        values = np.array([0.0, np.inf, np.inf, np.inf, np.inf])
        path = ScalarPath(np.linspace(0, 1, 5), values)
        assert dini_lower(path, 0.0, +1).value == np.inf

    def test_numeric_matches_exact_below_first_breakpoint(self):
        # dyadic knots and values keep the interpolation arithmetic exact, so
        # the probe quotients reproduce the closed-form slope bit for bit
        knots = [0, 0.25, 1]
        vals = [1.0, 0.5, 0.75]
        exact = pl_path(knots, vals, grid_size=9)
        numeric = ScalarPath.from_function(exact.eval_many, np.linspace(0, 1, 9))
        cfg = DiniConfig(t_max=0.125, ratio=0.5, steps=12)  # below the kink
        for t, direction in ((0.0, +1), (0.125, +1), (0.125, -1)):
            assert dini_lower(numeric, t, direction, cfg).value == \
                dini_lower(exact, t, direction).value

    def test_value_scaling_scales_derivative_exactly(self):
        knots = [0, 0.25, 0.75, 1]
        vals = np.array([0.75, 0.125, 0.5, 1.25])
        lam = 4.0
        base = pl_path(knots, vals)
        scaled = pl_path(knots, lam * vals)
        for t in (0.0, 0.25, 0.5, 0.75):
            assert dini_lower(scaled, t, +1).value == \
                lam * dini_lower(base, t, +1).value


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

    def test_staircase_values_abort_with_diagnostics(self):
        # a two-point staircase value breaks the agreement between the
        # containment test and the sampled scalar test: the notch between
        # the points is invisible to every weight
        m = builtin_map("constant_cloud", {"points": [[2, 0], [0, 2]]})
        with pytest.raises(InternalCheckError):
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


class TestDiewertWitness:
    def test_linear_path_any_point(self):
        path = pl_path([0, 1], [0.0, 1.0], grid_size=5)
        t, residual = diewert_witness(path, "forward")
        assert residual.value >= -1e-9

    def test_v_shape_finds_steep_side(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0], grid_size=5)
        t, residual = diewert_witness(path, "forward")
        assert 0.5 <= t < 1.0
        assert residual.value == pytest.approx(1.5)

    def test_plus_infinity_start_witnessed_at_zero(self):
        values = np.array([np.inf, 1.0, 0.5, 0.2, 0.1])
        path = ScalarPath(np.linspace(0, 1, 5), values)
        t, residual = diewert_witness(path, "forward")
        assert t == 0.0

    def test_backward_form(self):
        path = pl_path([0, 0.5, 1], [0.5, 0.0, 1.0], grid_size=5)
        s, residual = diewert_witness(path, "backward")
        assert 0.0 < s <= 1.0
        assert residual.value >= -1e-9

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
            assert residual.value >= -1e-9 or residual.value == -np.inf


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
    from setvi.analysis import _pseudo_scan, _ssqc_scan

    rng = np.random.default_rng(97)
    tau = 1e-9
    for trial in range(150):
        n = int(rng.integers(4, 12))
        t = np.sort(rng.uniform(0, 1, size=n))
        t[0], t[-1] = 0.0, 1.0
        if np.any(np.diff(t) <= 0):
            continue
        v = np.round(rng.uniform(-2, 2, size=n), 2)  # exact-tie opportunities
        if trial % 3 == 0:
            v[rng.integers(0, n)] = np.inf
        d_plus = rng.choice([-np.inf, -1.5, -1e-12, 0.0, 1e-12, 2.0, np.inf], size=n)
        d_minus = rng.choice([-np.inf, -0.5, 0.0, 3.0, np.inf], size=n)
        got = _pseudo_scan(t, v, d_plus, d_minus, tau)
        want = _brute_pseudo(t, v, d_plus, d_minus, tau)
        assert got[0][0] is want[0], f"trial {trial}: pseudoconvex {got[0][0]} != {want[0]}"
        assert got[1][0] is want[1], f"trial {trial}: pseudoconcave {got[1][0]} != {want[1]}"
        sv, _ = _ssqc_scan(t, v, tau)
        assert sv is _brute_ssqc(t, v, tau), f"trial {trial}: ssqc"
