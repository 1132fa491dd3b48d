import numpy as np
import pytest

from setvi.analysis import CONVEXITY_T_SAMPLES, _kept_ends
from setvi.cone import (
    _PRUNE_MIN_POINTS,
    cone_margin,
    dominated_probes,
    dual_base,
    ext_margins,
    make_cone,
)
from setvi.errors import DimensionMismatch, InteriorWitnessInvalid, ZeroGenerator
from setvi.order import _least_margins

ORTHANT = make_cone([[1, 0], [0, 1]], [1, 1])


def random_cone(rng, m):
    """A validated cone with generators biased toward the positive orthant."""
    while True:
        gens = rng.uniform(-0.3, 1.0, size=(rng.integers(2, 4), m))
        norms = np.linalg.norm(gens, axis=1)
        if np.any(norms < 1e-6):
            continue
        e = np.abs(rng.uniform(0.5, 1.5, size=m))
        if np.all(gens @ e > 0.1):
            return make_cone(gens, e)


class TestMakeCone:
    def test_orthant_is_valid(self):
        assert ORTHANT.dim == 2
        assert ORTHANT.normalized_normals.shape == (2, 2)

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            make_cone([[1, 0], [0, 0]], [1, 1])

    def test_interior_witness_checked(self):
        # opposing half planes leave no interior for any witness
        with pytest.raises(InteriorWitnessInvalid):
            make_cone([[1, 0], [-1, 0]], [0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_cone([[1, 0], [0, 1]], [1, 1, 1])

    def test_tilted_quadrant(self):
        cone = make_cone([[1, -1], [0, 1]], [2, 1])
        assert (cone.dual_generators @ cone.interior_point).tolist() == [1.0, 1.0]


class TestConeMargin:
    def test_interior_with_coordinate_margin(self):
        assert cone_margin(ORTHANT, [3, 4]) == 3.0

    def test_boundary(self):
        assert cone_margin(ORTHANT, [0, 5]) == 0.0

    def test_outside(self):
        assert cone_margin(ORTHANT, [-1, 2]) == -1.0

    def test_scale_invariance_of_verdicts(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cone = random_cone(rng, int(rng.integers(2, 4)))
            scaled = make_cone(
                cone.dual_generators * rng.uniform(0.1, 10, size=(cone.dual_generators.shape[0], 1)),
                cone.interior_point,
            )
            y = rng.normal(size=cone.dim)
            assert np.sign(cone_margin(cone, y)) == np.sign(cone_margin(scaled, y))


class TestDualBase:
    def test_density_three_on_orthant(self):
        ws = dual_base(ORTHANT, 3)
        assert sorted(ws.weights.tolist()) == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_density_one_is_normalized_generators(self):
        ws = dual_base(ORTHANT, 1)
        assert sorted(ws.weights.tolist()) == [[0.0, 1.0], [1.0, 0.0]]

    def test_tilted_quadrant_normalization(self):
        cone = make_cone([[1, -1], [0, 1]], [2, 1])
        ws = dual_base(cone, 1)
        assert sorted(ws.weights.tolist()) == [[0.0, 1.0], [1.0, -1.0]]

    def test_every_weight_normalized_against_e(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cone = random_cone(rng, 3)
            ws = dual_base(cone, 4)
            np.testing.assert_allclose(ws.weights @ cone.interior_point, 1.0,
                                       atol=1e-12)

    def test_uniform_ball_bound_is_negative_and_exact(self):
        # the infimum of w . u over the eps ball is -eps * |w|; its sup over
        # the sample is therefore -eps * min |w|, always strictly negative
        ws = dual_base(ORTHANT, 5)
        eps = 0.25
        norms = np.linalg.norm(ws.weights, axis=1)
        bound = max(-eps * n for n in norms)
        assert bound == -eps * ws.min_norm()
        assert bound < 0


def ext_margin(points, cone, y):
    """Margin and witness of the single point y against points + C."""
    margins, witnesses = ext_margins(points, cone, np.asarray(y, dtype=float)[None, :])
    return margins[0], witnesses[0]


class TestExtendedMembership:
    def test_single_anchor(self):
        assert ext_margin([[0, 0]], ORTHANT, [1, 1]) == (1.0, 0)

    def test_witness_selection(self):
        assert ext_margin([[0, 0], [2, -2]], ORTHANT, [2.5, -1.5]) == (0.5, 1)

    def test_outside(self):
        margin, _ = ext_margin([[0, 0]], ORTHANT, [-0.1, 3])
        assert margin < -1e-9 and margin == pytest.approx(-0.1)


def ball_oracle_agrees(rng, cone, points, y, directions=64):
    """Sample a |margin|/2 ball: inside-margin points must stay inside the
    extended set, and a negative-margin center must itself be outside."""
    margin, _ = ext_margin(points, cone, y)
    if abs(margin) <= 1e-9 or not np.isfinite(margin):
        return True
    if margin > 0:
        dirs = rng.normal(size=(directions, cone.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for d in dirs:
            if ext_margin(points, cone, y + 0.5 * margin * d)[0] < 0:
                return False
        return True
    return margin < 0


def test_extended_membership_agrees_with_ball_oracle():
    rng = np.random.default_rng(42)
    for _ in range(150):
        m = int(rng.integers(2, 4))
        cone = random_cone(rng, m)
        pts = rng.normal(size=(rng.integers(1, 6), m))
        y = rng.normal(scale=2.0, size=m)
        assert ball_oracle_agrees(rng, cone, pts, y)


def reference_ext_margins(points, cone, ys):
    """The facet-last kernel over every anchor: the reference ext_margins
    must match bit for bit, witnesses included."""
    diff = ys[:, None, :] - points[None, :, :]
    dists = np.einsum("yak,jk->yaj", diff, cone.normalized_normals)
    per_anchor = dists.min(axis=2)
    witnesses = per_anchor.argmax(axis=1)
    return per_anchor[np.arange(ys.shape[0]), witnesses], witnesses


def parity_cone(rng, m):
    """k in 1..m+2 facets, one-generator cones included, with interior point e."""
    k = int(rng.integers(1, m + 3))
    while True:
        gens = rng.uniform(-0.3, 1.0, size=(k, m))
        e = rng.uniform(0.5, 1.5, size=m)
        if np.all(np.linalg.norm(gens, axis=1) > 1e-3) and np.all(gens @ e > 0.05):
            return make_cone(gens, e)


def parity_cloud(rng, cone, n_a):
    """Random, near-tie, duplicated or strictly ordered anchors at unit scale."""
    m = cone.dim
    kind = rng.integers(0, 4)
    if kind == 0:
        return rng.normal(size=(n_a, m))
    if kind == 1:
        # chains along e whose steps (down to 1e-17) sit near the rounding bound
        steps = 10.0 ** rng.uniform(-17, -12, size=(n_a - 1, 1)) * rng.uniform(size=(n_a - 1, m))
        return rng.normal(size=m) + np.cumsum(np.vstack([np.zeros(m), steps]), axis=0)
    if kind == 2:
        pts = rng.normal(size=(n_a, m))
        pts[rng.integers(0, n_a, size=n_a)] = pts[0]
        return pts
    steps = rng.uniform(size=(n_a - 1, m)) * cone.interior_point
    return rng.normal(size=m) + np.cumsum(np.vstack([np.zeros(m), steps]), axis=0)


def test_ext_margins_matches_the_unpruned_kernel():
    rng = np.random.default_rng(20240811)
    dense_probes = 0
    for _ in range(3000):
        m = int(rng.integers(1, 6))
        cone = parity_cone(rng, m)
        scale = 10.0 ** rng.uniform(-6, 6)
        n_a = int(rng.integers(1, 10))
        n_y = int(rng.integers(1, 8 * n_a + 8))  # both sides of 4 n_a < n_y
        pts = parity_cloud(rng, cone, n_a) * scale
        ys = rng.normal(size=(n_y, m)) * scale
        near = n_y // 2
        ys[:near] = pts[rng.integers(0, n_a, size=near)] + rng.normal(size=(near, m)) * scale * 1e-15
        margins, witnesses = ext_margins(pts, cone, ys)
        ref_margins, ref_witnesses = reference_ext_margins(pts, cone, ys)
        assert margins.tobytes() == ref_margins.tobytes()
        assert witnesses.tolist() == ref_witnesses.tolist()
        dense_probes += 1 < n_a and 4 * n_a < n_y
    assert dense_probes > 1000


def test_stacked_ext_margins_match_separate_calls():
    # K anchor clouds of one size against K probe clouds or one shared one:
    # each entry of a stacked call has the bits of the 2-D call on its own
    # clouds, with probe clouds over four times the anchor cloud and below
    rng = np.random.default_rng(7)
    regimes = {"many probes": 0, "few probes": 0, "shared probes": 0}
    for _ in range(1500):
        m = int(rng.integers(1, 6))
        cone = parity_cone(rng, m)
        scale = 10.0 ** rng.uniform(-6, 6)
        K, n_a = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        n_y = int(rng.integers(1, 8 * n_a + 8))
        pts = np.stack([parity_cloud(rng, cone, n_a) for _ in range(K)]) * scale
        ys = rng.normal(size=(K, n_y, m)) * scale
        near = n_y // 2
        ys[:, :near] = (pts[:, rng.integers(0, n_a, size=near)]
                        + rng.normal(size=(K, near, m)) * scale * 1e-15)
        shared = rng.random() < 0.3
        if shared:
            ys = ys[0]
        margins, witnesses = ext_margins(pts, cone, ys)
        assert margins.shape == witnesses.shape == (K, n_y)
        for k in range(K):
            one_margins, one_witnesses = ext_margins(pts[k], cone, ys if shared else ys[k])
            assert margins[k].tobytes() == one_margins.tobytes()
            assert witnesses[k].tolist() == one_witnesses.tolist()
        regimes["many probes" if 1 < n_a and 4 * n_a < n_y else "few probes"] += 1
        regimes["shared probes"] += shared
    assert min(regimes.values()) > 300, regimes


def test_ordered_cloud_keeps_one_anchor():
    # a cloud totally ordered by the orthant has one C-minimal point, the
    # first, and it is every probe's witness; the 4096 probes are its
    # pairwise midpoints, a probe cloud 64 times the anchor cloud
    rng = np.random.default_rng(3)
    cone = make_cone(np.eye(4), np.ones(4))
    cloud = rng.uniform(-1, 1, size=4) + np.cumsum(
        np.vstack([np.zeros(4), rng.uniform(0.1, 1.0, size=(63, 4))]), axis=0)
    probes = (0.5 * cloud[:, None, :] + 0.5 * cloud[None, :, :]).reshape(-1, 4)
    margins, witnesses = ext_margins(cloud, cone, probes)
    ref_margins, ref_witnesses = reference_ext_margins(cloud, cone, probes)
    assert margins.tobytes() == ref_margins.tobytes()
    assert witnesses.tolist() == ref_witnesses.tolist() == [0] * len(probes)


def probe_cloud(rng, cone, n, pts):
    """parity_cloud probes at the anchors' scale, half of the time with
    some near-copies of the anchors (1e-15 relative: zero and near-zero
    facet differences) and some repeats of earlier probes."""
    scale = float(np.abs(pts).max()) or 1.0
    ys = parity_cloud(rng, cone, n) * scale
    if rng.random() < 0.5:
        return ys
    near = rng.random(n) < 0.3
    ys[near] = (pts[rng.integers(0, len(pts), size=near.sum())]
                + rng.normal(size=(near.sum(), cone.dim)) * scale * 1e-15 * rng.integers(0, 2))
    again = rng.random(n) < 0.2
    ys[again] = ys[rng.integers(0, n, size=again.sum())]
    return ys


def test_probe_pruning_keeps_the_least_margin():
    # min over the probes of the unpruned kernel, its first index and the
    # margins at the kept probes against the pruned rule of _least_margins
    rng = np.random.default_rng(1407)
    gated = dropped = 0
    for _ in range(2000):
        m = int(rng.integers(1, 6))
        cone = parity_cone(rng, m)
        n_a = int(rng.integers(1, 10))
        n_y = int(rng.integers(1, 3 * _PRUNE_MIN_POINTS))  # both sides of the gate
        pts = parity_cloud(rng, cone, n_a) * 10.0 ** rng.uniform(-6, 6)
        ys = probe_cloud(rng, cone, n_y, pts)
        ref_margins, _ = reference_ext_margins(pts, cone, ys)
        least = _least_margins(pts[None], cone, ys)
        assert least.shape == (1,)
        assert least[0:1].tobytes() == ref_margins.min(keepdims=True).tobytes()
        scale = np.abs(pts).sum(axis=1).max() + np.abs(ys).sum(axis=1).max()
        kept = np.flatnonzero(~dominated_probes(ys, cone, scale))
        margins, _ = ext_margins(pts, cone, ys[kept])
        assert margins.tobytes() == ref_margins[kept].tobytes()
        assert kept[np.argmin(margins)] == np.argmin(ref_margins)
        if n_y >= _PRUNE_MIN_POINTS:
            gated += 1
            dropped += len(kept) < n_y
        else:
            assert len(kept) == n_y
    assert gated > 1000 and dropped > gated / 2, (gated, dropped)


def test_combination_pruning_keeps_the_least_margin():
    # the combinations t P1 + (1-t) P2 of a convexity check, formed in full
    # as the unpruned check formed them, against those of the points of P1
    # and P2 that _kept_ends keeps: the first worst combination, its point
    # and its margin keep their bits
    rng = np.random.default_rng(4292)
    gated = dropped = 0
    for _ in range(2000):
        m = int(rng.integers(1, 6))
        cone = parity_cone(rng, m)
        p = int(rng.integers(1, 2 * _PRUNE_MIN_POINTS))  # both sides of the gate
        scale = 10.0 ** rng.uniform(-6, 6)
        P1, Pt = parity_cloud(rng, cone, p) * scale, parity_cloud(rng, cone, p) * scale
        P2 = probe_cloud(rng, cone, p, P1) if rng.random() < 0.5 else \
            parity_cloud(rng, cone, p) * scale
        stack = np.stack([P1, P2, Pt])
        kept = _kept_ends(stack, cone, np.array([0, 1]), CONVEXITY_T_SAMPLES)
        for t in CONVEXITY_T_SAMPLES:
            combo = (t * P1[:, None, :] + (1.0 - t) * P2[None, :, :]).reshape(-1, m)
            ref_margins, _ = reference_ext_margins(Pt, cone, combo)
            worst = int(np.argmin(ref_margins))
            K1, K2 = (np.arange(p), np.arange(p)) if kept is None else (kept[0], kept[1])
            pruned = (t * P1[K1][:, None, :] + (1.0 - t) * P2[K2][None, :, :]).reshape(-1, m)
            margins, _ = ext_margins(Pt, cone, pruned)
            k = int(np.argmin(margins))
            assert (K1[k // len(K2)], K2[k % len(K2)]) == divmod(worst, p)
            assert pruned[k].tobytes() == combo[worst].tobytes()
            assert margins[k:k + 1].tobytes() == ref_margins[worst:worst + 1].tobytes()
        if p >= _PRUNE_MIN_POINTS:
            gated += 1
            dropped += kept is not None
        else:
            assert kept is None
    assert gated > 1000 and dropped > gated / 2, (gated, dropped)
