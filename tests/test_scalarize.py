import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setvi.cone import TAU_STRICT, dual_base, make_cone
from setvi.config import RunSettings
from setvi.scalarize import (
    PiecewiseLinear,
    ScalarPath,
    _PRUNE_MIN_POINTS,
    _excess,
    _excess_rows,
    hausdorff_check_radial,
    radial_excesses,
    scalar_path,
    scalarize_batch,
    scalarize_many,
    scalarize_values,
)
from setvi.setmap import (RayValues, SetValue, builtin_map, evaluate, load_problem, radial_rays,
                          stack_values)
from setvi.verdicts import Verdict
from setvi.vi import theorem_chain

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])
WS = dual_base(ORTHANT, 5)
DIGEST_PROBLEMS = Path(__file__).resolve().parent.parent / "scripts" / "digest_problems"


class TestScalarize:
    def test_min_of_first_coordinates(self):
        value = SetValue.make([[1, 2], [3, 0]])
        assert scalarize_many(value, [[1, 0]]).tolist() == [1.0]

    def test_empty_value_is_plus_infinity(self):
        out = scalarize_many(SetValue.make([], dim=2), WS.weights)
        assert out.tolist() == [np.inf] * len(WS)

    def test_whole_space_is_minus_infinity(self):
        out = scalarize_many(SetValue.make([], whole_space=True, dim=2), WS.weights)
        assert out.tolist() == [-np.inf] * len(WS)

    def test_mixed_weight(self):
        value = SetValue.make([[1, 2], [3, 0]])
        assert scalarize_many(value, [[0.5, 0.5]]).tolist() == [1.5]

    @given(st.floats(min_value=0.01, max_value=100))
    def test_positive_homogeneity(self, lam):
        value = SetValue.make([[1.5, -2.0], [0.25, 4.0]])
        w = np.array([[0.3, 0.7]])
        assert scalarize_many(value, lam * w)[0] == pytest.approx(
            lam * scalarize_many(value, w)[0], rel=1e-12)

    def test_domain_agreement_with_map(self):
        doc = {
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0], "points": [[1, 2]]},
                {"x": [1], "points": []},
            ]},
        }
        problem = load_problem(doc)
        inside = scalarize_many(evaluate(problem.map, [0]), WS.weights)
        outside = scalarize_many(evaluate(problem.map, [1]), WS.weights)
        assert np.all(inside < np.inf) and np.all(outside == np.inf)


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

    def test_grid_values_have_the_evaluator_bits(self):
        # one kernel per path: on every generator digest problem the grid
        # values and the off-grid evaluator scalarize alike, so a Dini
        # quotient never subtracts values of two roundings
        paths = 0
        for file in sorted(DIGEST_PROBLEMS.glob("*.json")):
            problem = load_problem(str(file))
            if problem.map.kind != "generator":
                continue
            t = np.linspace(0.0, 1.0, RunSettings.from_dict(problem.settings).ray_steps)
            for x0 in problem.base_points:
                for x in problem.map.domain:
                    for w in dual_base(problem.cone, 9).weights:
                        path = scalar_path(problem.map, x0, x, w, t)
                        got = path.evaluator(path.t_grid)
                        assert got.tobytes() == path.values.tobytes(), (file.name, x0, x, w)
                        paths += 1
        assert paths > 10000

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


def _radial(rays, eps_list, tau=TAU_STRICT):
    return hausdorff_check_radial(rays, radial_excesses(rays), eps_list, tau=tau)


def _count_calls(monkeypatch, name):
    """Count calls of ``setvi.scalarize.<name>`` through every setvi module
    that binds it."""
    module = sys.modules["setvi.scalarize"]  # setvi.scalarize is the function
    func = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("setvi.") and getattr(mod, name, None) is func:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture()
def excess_calls(monkeypatch):
    return _count_calls(monkeypatch, "_excess")


@pytest.fixture()
def radial_calls(monkeypatch):
    return _count_calls(monkeypatch, "radial_excesses")


@pytest.fixture()
def excess_row_calls(monkeypatch):
    return _count_calls(monkeypatch, "_excess_rows")


def _reference_radial(rays, eps_list, tau):
    """Brute force: every anchor against every sample at 0 < |dt| <= 1.5 step,
    each eps judged on the worst of them, the first worst anchor reported."""
    eps_list = [float(e) for e in eps_list]
    rank = {Verdict.HOLDS: 0, Verdict.UNDETERMINED: 1, Verdict.FAILS: 2}
    found = []
    for ray in rays:
        t = ray.t_grid
        if t.size < 2:
            continue
        step = float(np.min(np.diff(t)))
        for a in range(t.size):
            if ray.values[a].is_empty:
                continue
            entries = [(_excess(ray.values[b], ray.values[a]), b) for b in range(t.size)
                       if 0.0 < abs(t[b] - t[a]) <= 1.5 * step]
            bad = max(entries, key=lambda e: e[0], default=None)
            worst_excess = 0.0 if bad is None else bad[0]
            verdicts = [Verdict.FAILS if not worst_excess <= eps + tau else
                        Verdict.UNDETERMINED if worst_excess > eps - tau else Verdict.HOLDS
                        for eps in eps_list]
            verdict = max(verdicts, key=rank.get) if verdicts else Verdict.UNDETERMINED
            witness = None
            if verdict is Verdict.FAILS and bad is not None:
                witness = {"tag": {"x": ray.x.tolist(), "t0": float(t[a]),
                                   "t": float(t[bad[1]])}, "excess": bad[0]}
            anchor = {"eps_list": eps_list, "t_radii": [1.5 * step, 3.0 * step],
                      "tau_strict": tau, "ray_to": ray.x.tolist(), "anchor_t": float(t[a])}
            found.append((verdict, witness, anchor))
    if not found:
        return Verdict.HOLDS, None, {"eps_list": eps_list, "rays": 0}, {}
    overall = max((f[0] for f in found), key=rank.get)
    verdict, witness, anchor = next(f for f in found if f[0] is overall)
    return (verdict, witness, {"eps_list": eps_list, "rays": len(rays), "tau_strict": tau},
            {"worst_anchor": anchor})


class TestHausdorff:
    def test_moving_point_holds_on_fine_grid(self):
        m = builtin_map("segment_shift", {"segment": [[0, 0]], "linear": [[1], [1]]},
                        domain=np.linspace(0, 1, 21).reshape(-1, 1))
        res = _radial(radial_rays(m, [0.5], np.linspace(0, 1, 21)), eps_list=[0.2])
        assert res.verdict is Verdict.HOLDS

    def test_jump_fails_below_jump(self):
        # the values jump by sqrt(2) between t = 0.5 and t = 0.6 on the ray to 1
        rays = radial_rays(_jump_problem(), [0.0], np.linspace(0, 1, 11))
        assert _radial(rays, eps_list=[1.0]).verdict is Verdict.FAILS
        assert _radial(rays, eps_list=[2.0]).verdict is Verdict.HOLDS

    def test_single_sample_domain_holds_vacuously(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0]]},
                        domain=np.array([[0.0]]))
        res = _radial(radial_rays(m, [0.0], np.array([0.0])), eps_list=[0.1])
        assert res.verdict is Verdict.HOLDS
        assert res.resolution["rays"] == 0 and not res.details

    def test_radial_variant_detects_jump(self):
        rays = radial_rays(_jump_problem(), [0.0], np.linspace(0, 1, 11))
        res = _radial(rays, eps_list=[0.5])
        assert res.verdict is Verdict.FAILS

    def test_radial_variant_constant_holds(self):
        m = builtin_map("constant_cloud", {"points": [[0, 0], [1, 1]]},
                        domain=np.linspace(0, 1, 5).reshape(-1, 1))
        res = _radial(radial_rays(m, [0.0], np.linspace(0, 1, 5)), eps_list=[0.1])
        assert res.verdict is Verdict.HOLDS

    def test_radial_check_matches_brute_force_reference(self):
        # only neighbours whose gap fits within 1.5 steps can lie that close,
        # so reading the adjacent excesses loses no sample the scan would see;
        # the reference reads each ray's values one by one, the check reads
        # their stacks, each ray stacked at its own width
        rng = np.random.default_rng(11)
        pool = [SetValue.make([], dim=2), SetValue.make([], whole_space=True, dim=2),
                *(SetValue.make(rng.normal(size=(int(rng.integers(1, 4)), 2)))
                  for _ in range(4))]
        rank = {Verdict.HOLDS: 0, Verdict.UNDETERMINED: 1, Verdict.FAILS: 2}
        seen = {"widths differ": 0, "worst after an undetermined ray": 0, "no eps": 0}
        for _ in range(1500):
            rays, stacked = [], []
            for _ in range(int(rng.integers(1, 4))):
                T = int(rng.integers(1, 7))
                t = (np.linspace(0, 1, T) if rng.random() < 0.3 else
                     np.unique(np.round(rng.uniform(0, 1, size=T), int(rng.integers(1, 4)))))
                # a constant ray has zero excesses: UNDETERMINED at eps 0
                picks = rng.integers(0, len(pool), size=1 if rng.random() < 0.5 else t.size)
                values = tuple(pool[int(i)] for i in np.resize(picks, t.size))
                x = rng.normal(size=2)
                rays.append(RayValues(x0=np.zeros(2), x=x, t_grid=t, values=values))
                stacked.append(RayValues(x0=np.zeros(2), x=x, t_grid=t,
                                         values=stack_values(values)))
            eps = rng.choice([-1.0, 0.0, 1e-9, 0.2, 1e6, np.inf],
                             size=int(rng.integers(0, 4))).tolist()
            tau = float(rng.choice([1e-9, 1e-3]))
            res = _radial(stacked, eps, tau=tau)
            want = _reference_radial(rays, eps, tau)
            assert (res.verdict, res.witness, res.resolution, res.details) == want
            per_ray = [rank[_reference_radial([ray], eps, tau)[0]] for ray in rays]
            first_worst = per_ray.index(rank[want[0]])
            seen["widths differ"] += len({ray.values[0].shape[1] for ray in stacked}) > 1
            seen["worst after an undetermined ray"] += 1 in per_ray[:first_worst]
            seen["no eps"] += not eps
        assert min(seen.values()) >= 50, seen

    def test_radial_scan_compares_only_neighbours(self, excess_calls):
        # uniform clouds take one array pass per ray, and the check itself
        # reads the excesses instead of computing any
        T = 9
        m = builtin_map("quadratic_vector", {"targets": [0, 1]},
                        domain=np.linspace(-1, 2, 7).reshape(-1, 1))
        rays = radial_rays(m, [0.5], np.linspace(0, 1, T))
        excesses = radial_excesses(rays)
        assert [e.shape for e in excesses] == [(T - 1, 2)] * len(rays)
        assert len(excess_calls) == 0
        hausdorff_check_radial(rays, excesses, eps_list=[0.5])
        assert len(excess_calls) == 0

    def test_ragged_ray_compares_each_adjacent_pair_once(self, excess_calls,
                                                         excess_row_calls):
        # clouds of several sizes are padded into one stack: one array pass
        # per direction fills the (T - 1, 2) table, with no pair loop
        problem = load_problem({
            "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
            "map": {"tabulated": [
                {"x": [0.0], "points": [[0, 0]]},
                {"x": [0.25], "points": [[0, 1], [1, 0]]},
                {"x": [0.5], "points": [[1, 1]]},
                {"x": [0.75], "points": [[2, 1], [1, 2], [0, 3]]},
                {"x": [1.0], "points": [[2, 2], [3, 0]]},
            ]},
        })
        ray = radial_rays(problem.map, [0.0], np.linspace(0, 1, 9))[-1]
        T = ray.t_grid.size
        assert T == 5
        ex = radial_excesses([ray])[0]
        assert len(excess_calls) == 0 and len(excess_row_calls) == 2
        assert ex.shape == (T - 1, 2)

    def test_chain_computes_each_adjacent_excess_once(self, excess_calls, radial_calls,
                                                      excess_row_calls):
        # the default eps and the radial check share one table per ray, all
        # read by one call, and the uniform clouds of every ray fill them in
        # one array pass per direction
        m = builtin_map("quadratic_vector", {"targets": [0, 1]},
                        domain=np.linspace(-1, 2, 7).reshape(-1, 1))
        theorem_chain(m, [0.5], ORTHANT, WS, ray_grid_size=9)
        assert len(radial_calls) == 1
        assert len(excess_row_calls) == 2
        assert len(excess_calls) == 0

    @pytest.mark.parametrize("block", [None, 1, 300])
    def test_array_pass_matches_the_pair_loop_bit_for_bit(self, monkeypatch, block):
        # seeded rays of every kind against the pair loop of _excess:
        # uniform clouds, ragged, empty and whole-space values (padded into
        # one stack) and one-sample rays, whole or in blocks of rows
        if block is not None:
            monkeypatch.setattr(sys.modules["setvi.setmap"], "_POINTS_BLOCK", block)
        rng = np.random.default_rng(41)
        kinds = {"uniform": 0, "other": 0}
        for _ in range(400):
            T = int(rng.integers(1, 12))
            m = int(rng.integers(1, 11))
            p = int(rng.integers(1, 9))
            style = rng.choice(["uniform", "ragged", "empty", "whole"], p=[0.5, 0.2, 0.15, 0.15])
            values = []
            for _ in range(T):
                n = p if style == "uniform" else int(rng.integers(1, 5))
                scale = rng.choice([1e-3, 1.0, 1e3])
                values.append(SetValue.make(rng.normal(size=(n, m)) * scale))
            if style in ("empty", "whole") and T:
                k = int(rng.integers(0, T))
                values[k] = SetValue.make([], whole_space=style == "whole", dim=m)
            ray = RayValues(x0=np.zeros(1), x=np.ones(1), t_grid=np.linspace(0, 1, T),
                            values=stack_values(values))
            want = np.array([(_excess(values[k + 1], values[k]),
                              _excess(values[k], values[k + 1]))
                             for k in range(T - 1)]).reshape(-1, 2)
            got = radial_excesses([ray])[0]
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            uniform = T > 1 and len({v.points.shape for v in values}) == 1 and not any(
                v.whole_space or v.is_empty for v in values)
            kinds["uniform" if uniform else "other"] += 1
        assert min(kinds.values()) > 100


def test_continuity_bridge_scales_with_weight_norms():
    # a value within excess e of its neighbour keeps every scalarization
    # from dropping by more than e times the weight norm
    m = builtin_map("segment_shift", {"segment": [[0, 0], [0.5, 0.5]],
                                      "linear": [[1], [-1]]},
                    domain=np.linspace(0, 1, 21).reshape(-1, 1))
    norms = np.linalg.norm(WS.weights, axis=1)
    for ray in radial_rays(m, [0.5], np.linspace(0, 1, 9)):
        phis = scalarize_values(ray.values, WS.weights)
        ex = radial_excesses([ray])[0]
        assert ex.shape == (ray.t_grid.size - 1, 2) and np.all(ex >= 0.0)
        assert np.all(phis[1:] >= phis[:-1] - ex[:, :1] * norms - 1e-12)
        assert np.all(phis[:-1] >= phis[1:] - ex[:, 1:] * norms - 1e-12)


class TestSupportProfile:
    # w -> inf w . y is a minimum of linear functions of the weight
    def test_two_point_value_profile_is_min_of_linear(self):
        value = SetValue.make([[1, 0], [0, 1]])
        segment = np.linspace([1, 0], [0, 1], 9)
        profile = scalarize_many(value, segment)
        np.testing.assert_allclose(profile, np.minimum(segment[:, 0], segment[:, 1]))

    def test_singleton_profile_linear(self):
        value = SetValue.make([[2, -1]])
        segment = np.linspace([1, 0], [0, 1], 7)
        np.testing.assert_allclose(scalarize_many(value, segment),
                                   segment @ np.array([2.0, -1.0]))

    def test_randomized_values_always_concave(self):
        rng = np.random.default_rng(3)
        segment = np.linspace([1, 0], [0, 1], 17)
        for _ in range(100):
            value = SetValue.make(rng.normal(size=(rng.integers(1, 8), 2)))
            profile = scalarize_many(value, segment)
            assert np.all(profile[1:-1] >= 0.5 * (profile[:-2] + profile[2:]) - 1e-9)


def test_scalarize_many_matches_scalar():
    # one weight row at a time gives the bits of its column in a call with
    # many weights, on random clouds where most products round; scalar_path
    # relies on it
    rng = np.random.default_rng(20240811)
    for case in range(500):
        m = int(rng.integers(1, 6))
        value = SetValue.make(rng.normal(size=(int(rng.integers(1, 65)), m)))
        weights = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 20)), m))
        many = scalarize_many(value, weights).view(np.int64)
        one = [scalarize_many(value, w[None, :]).view(np.int64)[0] for w in weights]
        assert one == many.tolist(), f"case {case}"


def _ref_scalarize_batch(clouds, weights):
    # the unpruned kernel, verbatim
    return np.einsum("tpm,nm->tpn", clouds, weights).min(axis=1)


def _stack(rng, shape=None):
    """A seeded (T, p, m) stack of clouds and (n, m) weights: chains (with
    repeated points), antichains, coarse rounding with signed zeros, rows
    that keep or break the first row's order, and now and then a weight
    with a negative entry.  ``shape`` fixes (p, m)."""
    T = 1 if rng.random() < 0.2 else int(rng.integers(1, 40))
    p = int(rng.integers(1, _PRUNE_MIN_POINTS)) if rng.random() < 0.2 else int(rng.integers(1, 80))
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 90))
    if shape is not None:
        p, m = shape
    scale = float(rng.choice([1e-300, 1e-3, 1.0, 1e3, 1e306]))
    style = rng.choice(["chain", "antichain", "rounded", "normal"])
    if style == "chain":
        steps = rng.uniform(0, 1, size=(p, m)) * (rng.random((p, 1)) < 0.8)
        cloud = np.cumsum(steps, axis=0)[rng.permutation(p)] - rng.uniform(0, 1, size=m)
    elif style == "antichain":
        s = rng.uniform(-1, 1, size=p)
        cloud = np.column_stack([s, -s] + [rng.normal(size=p) for _ in range(m - 2)])[:, :m]
    elif style == "rounded":
        cloud = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(p, m))
    else:
        cloud = rng.normal(size=(p, m))
    cloud = cloud * scale
    shift = rng.choice([0.0, 1.0]) * rng.normal(size=(T, 1, m)) * scale
    noise = (rng.random((T, p, m)) < rng.choice([0.0, 0.01, 0.3])) * rng.normal(size=(T, p, m))
    clouds = cloud[None] + shift + noise * scale
    if style == "rounded":
        clouds = np.where(rng.random(clouds.shape) < 0.5, -0.0, 0.0) + np.round(clouds)
    weights = rng.uniform(0, 1, size=(n, m))
    weights[rng.random((n, m)) < 0.3] = rng.choice([0.0, -0.0])
    if rng.random() < 0.1:
        weights[rng.integers(0, n), rng.integers(0, m)] = -0.25
    return clouds, weights


def test_scalarize_batch_matches_the_unpruned_kernel_bit_for_bit(monkeypatch):
    module = sys.modules["setvi.scalarize"]
    calls = []
    kernel = module._products_min
    monkeypatch.setattr(module, "_products_min",
                        lambda c, w: calls.append(c.shape[:2]) or kernel(c, w))
    rng = np.random.default_rng(20240811)
    counts = {"negative": 0, "least element": 0, "least only in row 0": 0,
              "least element, zero rows": 0}
    for case in range(2500):
        clouds, weights = _stack(rng)
        want = _ref_scalarize_batch(clouds, weights)
        calls.clear()
        got = scalarize_batch(clouds, weights)
        assert got.shape == want.shape, f"case {case}"
        assert (got.view(np.int64) == want.view(np.int64)).all(), f"case {case}"
        T, p = clouds.shape[:2]
        least = calls[0][1] < p
        c0 = clouds[0]
        first = (c0 == c0.min(axis=0)).all(axis=1)
        eligible = p >= _PRUNE_MIN_POINTS and (weights >= 0).all()
        counts["negative"] += not (weights >= 0).all()
        counts["least element"] += least
        # row 0 has a least point, but some later row breaks it: every point's products are taken
        counts["least only in row 0"] += bool(
            eligible and first.any() and not (clouds[:, [first.argmax()]] <= clouds).all()
            and calls == [(T, p)])
        counts["least element, zero rows"] += least and len(calls) == 2
    assert min(counts.values()) > 100, counts


def test_scalarize_batch_rows_keep_their_bits_in_any_stack():
    # ray_scalarizations reads its points in blocks, so a row must have the
    # same bits in a cut of its stack and joined with another stack
    rng = np.random.default_rng(20240812)
    for case in range(1500):
        clouds, weights = _stack(rng)
        want = scalarize_batch(clouds, weights).view(np.int64)
        T = clouds.shape[0]
        a, b = sorted(rng.integers(0, T + 1, size=2).tolist())
        if a < b:
            got = scalarize_batch(clouds[a:b], weights).view(np.int64)
            assert (got == want[a:b]).all(), f"case {case} rows {a}:{b}"
        other, _ = _stack(rng, shape=clouds.shape[1:])
        first = rng.random() < 0.5
        joined = np.concatenate([clouds, other] if first else [other, clouds])
        got = scalarize_batch(joined, weights).view(np.int64)
        got = got[:T] if first else got[len(other):]
        assert (got == want).all(), f"case {case} joined"


def _ragged(rng, clouds):
    """The clouds cut to random point counts, with now and then an empty or
    a whole-space value in place of one."""
    values = []
    for c in clouds:
        u = rng.random()
        if u < 0.1:
            values.append(SetValue.make([], whole_space=u < 0.05, dim=c.shape[1]))
        else:
            values.append(SetValue(np.ascontiguousarray(c[:int(rng.integers(1, len(c) + 1))])))
    return values


def _ref_scalarize(value, weights):
    # the unpruned kernel on the cloud at its own width, with the sentinels
    if value.whole_space or value.is_empty:
        return np.full(len(weights), -np.inf if value.whole_space else np.inf)
    return _ref_scalarize_batch(value.points[None], weights)[0]


@pytest.mark.parametrize("block", [None, 1, 3000])
def test_scalarize_values_matches_the_unpruned_kernel_at_each_width(monkeypatch, block):
    # scalarize_values gives every cloud of a stack the bits of the unpruned
    # einsum at its own width, zero signs and overflows included, whole or
    # in blocks of clouds; so it does on ragged lists with empty and
    # whole-space values, which the padded stack of stack_values holds
    if block is not None:
        monkeypatch.setattr(sys.modules["setvi.setmap"], "_POINTS_BLOCK", block)
    rng = np.random.default_rng(11)
    kinds = {"ragged": 0, "one weight": 0, "empty or whole-space": 0}
    for case in range(2000 if block is None else 300):
        clouds, weights = _stack(rng)
        values = _ragged(rng, clouds)
        if rng.random() < 0.2:
            weights = weights[:1]
        with np.errstate(over="ignore", invalid="ignore"):
            got = scalarize_values(stack_values([SetValue(c) for c in clouds]), weights)
            want = np.stack([_ref_scalarize(SetValue(c), weights) for c in clouds])
            got_values = scalarize_values(stack_values(values), weights)
            want_values = np.stack([_ref_scalarize(v, weights) for v in values])
        assert (got.view(np.int64) == want.view(np.int64)).all(), f"case {case}"
        assert got_values.shape == want_values.shape
        assert (got_values.view(np.int64) == want_values.view(np.int64)).all(), f"case {case}"
        kinds["ragged"] += len({len(v.points) for v in values}) > 1
        kinds["one weight"] += len(weights) == 1
        kinds["empty or whole-space"] += any(len(v.points) == 0 for v in values)
    assert min(kinds.values()) >= 30, kinds


def test_scalarize_batch_keeps_the_nan_of_a_dominated_point():
    # w . a overflows to -inf on the minimal point, but to inf - inf on the
    # points it dominates: the unpruned minimum is NaN, so nothing may be
    # dropped when a product can overflow
    cloud = np.array([[0.0, 0.0, -1e308]] + [[1e308, 1e308, -1e308]] * 7)
    weights = np.array([[2.0, 2.0, 2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = _ref_scalarize_batch(cloud[None], weights)
        got = scalarize_batch(cloud[None], weights)
    assert np.isnan(want).all()
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _excess_cases(rng, count):
    """Seeded (inner, outer) stacks for ``_excess_rows``: ordered clouds that
    move a little from one row to the next, the same shuffled, clustered
    clouds, duplicate points and exact ties on a coarse grid, with p and q
    on both sides of ``_PRUNE_MIN_POINTS`` and m from 1 to 10."""
    for case in range(count):
        m, K = case % 10 + 1, int(rng.integers(1, 7))
        p = int(rng.integers(1, 40))
        q = p if rng.random() < 0.5 else int(rng.integers(1, 40))
        style = ("ordered", "shuffled", "clustered", "ties")[case // 10 % 4]
        chain = np.cumsum(rng.uniform(0.0, 1.0, size=(max(p, q), m)), axis=0)
        inner = chain[:p] + rng.normal(size=(K, 1, m)) * 0.1
        outer = chain[:q] + rng.normal(size=(K, 1, m)) * 0.1
        if style == "shuffled":
            inner = inner[:, rng.permutation(p)]
        elif style == "clustered":
            centres = rng.normal(size=(3, m)) * 5.0
            inner = centres[rng.integers(0, 3, size=(K, p))] + rng.normal(size=(K, p, m)) * 0.01
            outer = centres[rng.integers(0, 3, size=(K, q))] + rng.normal(size=(K, q, m)) * 0.01
        elif style == "ties":
            inner = np.round(rng.normal(size=(K, p, m)))
            outer = np.round(rng.normal(size=(K, q, m)))
            inner[:, rng.random(p) < 0.3] = inner[:, :1]
            outer[:, rng.random(q) < 0.3] = outer[:, :1]
        scale = float(rng.choice([1e-150, 1.0, 1e150]))
        yield case, inner * scale, outer * scale


def _excess_mismatches(kernel, monkeypatch, count=2000):
    """Cases of ``_excess_cases`` where kernel differs in bits from the
    square-root formula, and the cases that reached the pruned scan."""
    module = sys.modules["setvi.scalarize"]
    pruned = []
    scan = module._row_minima
    monkeypatch.setattr(module, "_row_minima", lambda *a: pruned.append(1) or scan(*a))
    rng = np.random.default_rng(5)
    bad, reached = [], 0
    for case, inner, outer in _excess_cases(rng, count):
        pruned.clear()
        d = inner[:, :, None, :] - outer[:, None, :, :]
        want = np.sqrt(np.sum(d * d, axis=3)).min(axis=2).max(axis=1)
        if kernel(inner, outer).tobytes() != want.tobytes():
            bad.append(case)
        reached += bool(pruned)
    return bad, reached


@pytest.mark.parametrize("block", [None, 1, 500])
def test_excess_rows_match_the_square_root_formula(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(sys.modules["setvi.setmap"], "_POINTS_BLOCK", block)
    bad, reached = _excess_mismatches(_excess_rows, monkeypatch)
    assert bad == []
    assert reached >= 500


def test_excess_parity_catches_a_skipped_scan_of_the_argmax_row(monkeypatch):
    # the mutant takes the largest guess as the excess: it never scans the
    # row with the largest guess, so that row's own minimum is not found
    module = sys.modules["setvi.scalarize"]
    source = textwrap.dedent(inspect.getsource(module._excess_rows))
    scan = "out = _row_minima(inner[np.arange(K), guess.argmax(axis=1)], outer)"
    assert scan in source
    namespace = dict(vars(module))
    exec(source.replace(scan, "out = guess.max(axis=1)"), namespace)
    bad, _ = _excess_mismatches(namespace["_excess_rows"], monkeypatch)
    assert len(bad) >= 100
