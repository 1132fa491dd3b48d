"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime against the pinned budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import time

import numpy as np
import pytest

from setvi.analysis import DiniConfig, classify_path, diewert_witness, dini_lower
from setvi.cone import dual_base, ext_margins, make_cone
from setvi.order import dominance_margin, relation_ll, relation_lt, vector_weak_efficient
from setvi.report import render_json
from setvi.scalarize import PiecewiseLinear, ScalarPath
from setvi.setmap import SetValue, builtin_map, evaluate
from setvi.suite import SUITE_DEFAULTS, run_suite
from setvi.verdicts import Verdict
from setvi.vi import replay_derivative, vi_check

TAU = 1e-9
ORTHANT2 = make_cone([[1, 0], [0, 1]], [1, 1])

SUITE_SEED = 20240811
SUITE_INSTANCES = 200
GOLDEN_BYTES = 678_041
GOLDEN_SHA256 = "f78a59386f8fb9543db185f53850e317417d39800c1cce868f7b5b82333ad75c"
GOLDEN_STATUSES = {"CONFIRMED": 2215, "VIOLATED": 0, "NOT_APPLICABLE": 120}


def _stamp(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS  {name}: {elapsed:.2f}s < {budget:.0f}s{suffix}", flush=True)
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def _random_cone(rng, m):
    while True:
        gens = rng.uniform(-0.3, 1.0, size=(rng.integers(2, m + 2), m))
        if np.any(np.linalg.norm(gens, axis=1) < 1e-6):
            continue
        e = np.abs(rng.uniform(0.5, 1.5, size=m))
        if np.all(gens @ e > 0.1):
            return make_cone(gens, e)


def test_criterion_01_extended_membership_ball_oracle():
    """Positive-margin points keep a half-margin ball inside the extended
    set; negative-margin points are themselves outside.  1000 trials."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    dirs_cache = {}
    checked = 0
    for trial in range(1000):
        m = 2 if trial % 2 == 0 else 3
        cone = _random_cone(rng, m)
        pts = rng.normal(size=(rng.integers(1, 6), m))
        y = rng.normal(scale=2.0, size=m)
        margin = ext_margins(pts, cone, y[None, :])[0][0]
        if abs(margin) <= TAU:
            continue
        checked += 1
        if margin > TAU:
            if m not in dirs_cache:
                d = rng.normal(size=(200, m))
                dirs_cache[m] = d / np.linalg.norm(d, axis=1)[:, None]
            ball = y[None, :] + 0.5 * margin * dirs_cache[m]
            margins, _ = ext_margins(pts, cone, ball)
            assert np.all(margins > 0.0), f"trial {trial}: ball point escaped"
        else:
            assert margin < 0.0
    _stamp("criterion 1 (interior-sum ball oracle)", started, 5.0,
           f"{checked} decisive trials")


def test_criterion_02_uniform_and_lower_relations_agree_on_clouds():
    """On finite clouds the two order relations coincide outside the band,
    and the uniform relation implies the lower one unconditionally."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    outside_band = 0
    for trial in range(1000):
        m = 2 if trial % 2 == 0 else 3
        cone = _random_cone(rng, m)
        A = SetValue.make(rng.normal(size=(rng.integers(1, 6), m)))
        B = SetValue.make(rng.normal(size=(rng.integers(1, 6), m)))
        lt = relation_lt(A, B, cone, TAU)
        holds, margin = relation_ll(A, B, cone, TAU)
        if holds:
            assert lt, f"trial {trial}: uniform relation without lower relation"
        if abs(margin) > 10 * TAU:
            outside_band += 1
            assert lt == holds, f"trial {trial}: relations disagree at {margin}"
    _stamp("criterion 2 (relations on compact clouds)", started, 5.0,
           f"{outside_band} outside the band")


def test_criterion_03_hyperbola_truncation_margins():
    """The truncated hyperbola stays lower-dominated while its uniform
    margin is exactly the reciprocal truncation scale, vanishing with T."""
    started = time.perf_counter()
    A = SetValue.make([[0, 0]])
    previous = np.inf
    for T in (10, 100, 1000):
        m = builtin_map("hyperbola_truncation", {"T": T, "samples": 33})
        B = evaluate(m, [0])
        assert relation_lt(A, B, ORTHANT2, TAU)
        holds, margin = relation_ll(A, B, ORTHANT2, TAU)
        assert holds
        assert abs(margin - 1.0 / T) <= 1e-12
        assert margin < previous
        previous = margin
    _stamp("criterion 3 (hyperbola truncation margins)", started, 1.0)


def test_criterion_04_dini_accuracy():
    """Numeric lower derivatives of quadratics stay within 1e-5 of the
    analytic one-sided derivative; breakpoint mode is exact on kinks."""
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    cfg = DiniConfig(t_max=5e-7, ratio=0.5, steps=8)
    grid = np.linspace(0, 1, 11)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-10, 10)
        beta = rng.uniform(-10, 10)
        t = float(rng.uniform(0.05, 0.95))
        path = ScalarPath.from_function(lambda s: alpha * s * s + beta * s, grid)
        fwd = dini_lower(path, t, +1, cfg)
        bwd = dini_lower(path, t, -1, cfg)
        analytic = 2 * alpha * t + beta
        worst = max(worst, abs(fwd - analytic), abs(bwd - (-analytic)))
        assert abs(fwd - analytic) <= 1e-5
        assert abs(bwd + analytic) <= 1e-5
    for _ in range(50):
        kink = rng.uniform(0.2, 0.8)
        left, right = rng.uniform(-5, 5, size=2)
        knots = np.array([0.0, kink, 1.0])
        vals = np.array([-left * kink, 0.0, right * (1 - kink)])
        pl = PiecewiseLinear(knots, vals)
        path = ScalarPath.from_breakpoints(pl, knots)
        # zero error against the hand-computed slopes of the stored path
        slope_right = (vals[2] - vals[1]) / (knots[2] - knots[1])
        slope_left = (vals[1] - vals[0]) / (knots[1] - knots[0])
        assert dini_lower(path, kink, +1) == slope_right
        assert dini_lower(path, kink, -1) == -slope_left
    _stamp("criterion 4 (derivative accuracy)", started, 1.0,
           f"worst numeric error {worst:.2e}")


def _random_lsc_path(rng):
    k = int(rng.integers(2, 6))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
    vals = rng.uniform(-2.0, 2.0, size=knots.size)
    style = rng.integers(0, 4)
    if style in (1, 3):
        vals[0] = np.inf
    if style in (2, 3):
        vals[-1] = np.inf
    return ScalarPath.from_breakpoints(PiecewiseLinear(knots, vals),
                                       np.linspace(0, 1, 9))


def test_criterion_05_mean_value_witnesses():
    """Both mean-value forms find a witness on 500 random lower-
    semicontinuous piecewise-linear paths, including infinite endpoints."""
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    for i in range(500):
        path = _random_lsc_path(rng)
        for side in ("forward", "backward"):
            t, residual = diewert_witness(path, side)  # NoWitnessFound would raise
            assert 0.0 <= t <= 1.0
    _stamp("criterion 5 (mean-value witnesses)", started, 2.0)


def test_criterion_06_monotone_structure_recovery():
    """Decreasing/constant/increasing splices are recovered within one grid
    step on a 1e-3 grid, 200 random cut points."""
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    grid = np.arange(1001) / 1000.0
    step = 1e-3
    for _ in range(200):
        s0, t0 = np.sort(rng.uniform(0.05, 0.95, size=2))
        down, up = rng.uniform(0.5, 4.0, size=2)
        pl = PiecewiseLinear(np.array([0.0, s0, t0, 1.0]),
                             np.array([down * s0, 0.0, 0.0, up * (1 - t0)]))
        rep = classify_path(ScalarPath.from_breakpoints(pl, grid))
        assert abs(rep.s0 - s0) <= step + 1e-12
        assert abs(rep.t0 - t0) <= step + 1e-12
        assert rep.semistrictly_quasiconvex.verdict is Verdict.HOLDS
    _stamp("criterion 6 (monotone structure recovery)", started, 5.0)


def test_criterion_07_pseudoconvex_paths_are_semistrictly_quasiconvex():
    """500 radially pseudoconvex lower-semicontinuous constructions never
    fail the semistrict quasiconvexity classifier."""
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    grid = np.linspace(0, 1, 101)
    for i in range(500):
        lo = rng.uniform(0.1, 0.45)
        hi = rng.uniform(lo + 0.05, 0.95)
        down, up = rng.uniform(0.3, 3.0, size=2)
        if i % 2 == 0:
            knots = np.array([0.0, lo, hi, 1.0])
            vals = np.array([down * lo, 0.0, 0.0, up * (1 - hi)])
        else:  # strict V without a plateau
            knots = np.array([0.0, lo, 1.0])
            vals = np.array([down * lo, 0.0, up * (1 - lo)])
        rep = classify_path(ScalarPath.from_breakpoints(PiecewiseLinear(knots, vals),
                                                        grid))
        assert rep.pseudoconvex.verdict is Verdict.HOLDS
        assert rep.semistrictly_quasiconvex.verdict is Verdict.HOLDS
    _stamp("criterion 7 (pseudoconvex implies semistrict quasiconvexity)",
           started, 5.0)


@pytest.fixture(scope="module")
def suite_single():
    started = time.perf_counter()
    report = run_suite(seed=SUITE_SEED, instances=SUITE_INSTANCES,
                       settings=SUITE_DEFAULTS)
    return report, time.perf_counter() - started


def test_criterion_08_theorem_chain_suite(suite_single):
    """200 randomized convex instances, zero violated implications, every
    recorded witness replays bit-identically, and the rendered report is
    the pinned golden one byte for byte."""
    started = time.perf_counter()
    report, build_time = suite_single
    summary = report["summary"]
    assert summary["violated"] == []
    assert summary["replay_failures"] == []
    statuses = summary["implication_statuses"]
    assert statuses == GOLDEN_STATUSES
    text = render_json(report).encode("utf-8")
    assert len(text) == GOLDEN_BYTES
    assert hashlib.sha256(text).hexdigest() == GOLDEN_SHA256
    elapsed = build_time + (time.perf_counter() - started)
    print(f"PASS  criterion 8 (theorem-chain suite): {elapsed:.2f}s < 60s "
          f"[{statuses}]", flush=True)
    assert elapsed < 60.0


def test_criterion_09_vector_specialization():
    """The Stampacchia-derived weakly efficient set of the two-objective
    quadratic instance equals the dominance scan exactly, with the balanced
    weight certifying the center at derivative zero."""
    started = time.perf_counter()
    tau = 1e-6
    cfg = DiniConfig(t_max=1e-4, ratio=0.5, steps=12)
    grid = np.linspace(-1, 2, 13).reshape(-1, 1)
    m = builtin_map("quadratic_vector", {"targets": [0, 1]}, domain=grid)
    wstar = dual_base(ORTHANT2, 9)
    svi_set = [float(x[0]) for x in grid
               if vi_check(m, x, ORTHANT2, wstar, cfg, "svi", tau).verdict
               is Verdict.HOLDS]
    brute = [float(x[0]) for x in grid if vector_weak_efficient(m, x, ORTHANT2, tau)]
    assert svi_set == brute == [0.0, 0.25, 0.5, 0.75, 1.0]
    widx = next(i for i, w in enumerate(wstar.weights)
                if np.array_equal(w, [0.5, 0.5]))
    derivative = replay_derivative(m, np.array([0.5]), wstar, cfg, "svi",
                                   np.array([2.0]), widx)
    assert abs(derivative) <= tau
    assert derivative >= -tau  # the witness predicate itself
    _stamp("criterion 9 (vector specialization)", started, 1.0,
           f"balanced-weight derivative {derivative:.2e}")


def test_criterion_10_prefix_run_renders_identically(suite_single):
    """A 40-instance run renders the same instance bytes as the first 40
    instances of the 200-instance run: each instance depends on its
    (seed, index) alone."""
    report_full, _ = suite_single
    started = time.perf_counter()
    prefix = 40
    report_short = run_suite(seed=SUITE_SEED, instances=prefix)
    short = render_json(report_short["instances"])
    assert short == render_json(report_full["instances"][:prefix])
    print(f"PASS  criterion 10 (byte-identical prefix run): "
          f"{time.perf_counter() - started:.2f}s [{len(short)} bytes]", flush=True)
