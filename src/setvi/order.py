"""Set order relations and the three weak-minimality classifiers.

The lower relation ``A < B`` holds when B sits inside A + Int C; the
uniform relation ``A << B`` additionally asks for a whole ball around B to
stay inside A + C.  On finite clouds both are driven by one closed-form
margin, min over b of max over a of the facet distances of b - a, which is
exactly the largest admissible ball radius.  The relations therefore agree
whenever that margin clears the strictness band, and the margin itself is
reported as a conditioning diagnostic.

Minimality of a base point is classified three ways: no value lower-
dominates the base value, no value uniformly dominates it, and every point
admits a sampled weight whose scalarization does not improve past the base
point.  The first two are equivalent on finite clouds and are enforced to
agree; the scalar notion quantifies over a weight continuum, so its FAILS
verdicts mean "no witness at the sampled resolution" and a disagreement
with the other two is recorded rather than raised unless the domination
margin is far outside the tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import Cone, TAU_STRICT, WStarSample, cone_margin, dominated_probes, ext_margins
from .errors import EmptySet, InternalCheckError, NonSingletonValue
from .scalarize import scalarize_many, scalarize_values
from .setmap import SetMap, SetValue, base_value, blocks, evaluate
from .verdicts import CheckResult, Verdict


def dominance_margin(A: SetValue, B: SetValue, cone: Cone) -> float:
    """min over b in B of max over a in A of min_j ghat_j . (b - a).

    Positive: every point of B is interior to A + C with at least this
    ball radius, so both order relations hold.  +inf / -inf encode the
    whole-space degeneracies.
    """
    if A.whole_space:
        return np.inf
    if B.whole_space:
        return -np.inf
    if A.is_empty or B.is_empty:
        raise EmptySet("order relations need nonempty set values")
    return float(_least_margins(A.points[None], cone, B.points)[0])


def _least_margins(anchors: np.ndarray, cone: Cone, probes: np.ndarray) -> np.ndarray:
    """min over the probes of the ``ext_margins`` against each anchor cloud
    of a (K, n_a, m) stack -> (K,).

    The minimum skips the probes ``dominated_probes`` marks, whose margins
    sit strictly above another probe's, so it keeps its value.  A zero
    minimum is taken again over every probe: which of +0.0 and -0.0 the
    reduction returns depends on where the zeros sit.
    """
    scale = np.abs(anchors).sum(axis=-1).max() + np.abs(probes).sum(axis=-1).max()
    keep = ~dominated_probes(probes, cone, scale)
    if keep.all():
        return _min_margins(anchors, cone, probes)
    out = _min_margins(anchors, cone, probes[keep])
    zero = np.flatnonzero(out == 0.0)
    out[zero] = _min_margins(anchors[zero], cone, probes)
    return out


def _min_margins(anchors: np.ndarray, cone: Cone, probes: np.ndarray) -> np.ndarray:
    """min over the probes of the ``ext_margins`` against each anchor cloud,
    in blocks of at most ``_POINTS_BLOCK`` entries."""
    out = np.empty(len(anchors))
    # a cloud's pairs hold their differences and facet distances at once
    entries = anchors.shape[1] * len(probes) * sum(cone.normalized_normals.shape)
    for rows in blocks(len(anchors), entries):
        out[rows] = ext_margins(anchors[rows], cone, probes)[0].min(axis=1)
    return out


def relation_lt(A: SetValue, B: SetValue, cone: Cone, tau: float = TAU_STRICT) -> bool:
    """A < B: every point of B is strictly inside A + C."""
    return dominance_margin(A, B, cone) > tau


def relation_ll(A: SetValue, B: SetValue, cone: Cone, tau: float = TAU_STRICT):
    """A << B with its exact ball-radius margin.

    The margin is the largest epsilon such that B plus the epsilon ball
    stays inside A + C; the relation holds when it clears the band.
    """
    margin = dominance_margin(A, B, cone)
    return margin > tau, margin


def scalar_strict_separation(A: SetValue, B: SetValue, wstar: WStarSample,
                             tau: float = TAU_STRICT) -> CheckResult:
    """Strict gap of the scalarizations: inf over A below inf over B, per weight.

    HOLDS when every sampled weight separates clearly (or its infimum over
    A is -inf); FAILS on a clear reversal; UNDETERMINED when the worst gap
    sits inside the band.
    """
    if A.is_empty or B.is_empty:
        raise EmptySet("separation needs nonempty set values")
    a = scalarize_many(A, wstar.weights)
    b = scalarize_many(B, wstar.weights)
    gaps = np.where(a == -np.inf, np.inf, b - a)  # want > 0 everywhere
    j = int(np.argmin(gaps))
    resolution = {"wstar_size": len(wstar), "tau_strict": tau}
    if gaps[j] > tau:
        return CheckResult(Verdict.HOLDS, resolution=resolution,
                           details={"worst_gap": float(gaps[j])})
    witness = {"w": wstar.weights[j].tolist(), "gap": float(gaps[j])}
    if gaps[j] < -tau:
        return CheckResult(Verdict.FAILS, witness=witness, resolution=resolution)
    return CheckResult(Verdict.UNDETERMINED, witness=witness, resolution=resolution)


@dataclass(eq=False)
class MinimalityVerdict:
    w_l_min: CheckResult
    w_sc_min: CheckResult
    w_min: CheckResult
    degenerate_whole_space: bool
    consistent: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "w_l_min": self.w_l_min.to_dict(),
            "w_sc_min": self.w_sc_min.to_dict(),
            "w_min": self.w_min.to_dict(),
            "degenerate_whole_space": self.degenerate_whole_space,
            "consistent": self.consistent,
            "note": self.note,
        }


def classify_weak_min(map: SetMap, x0, cone: Cone, wstar: WStarSample,
                      tau: float = TAU_STRICT, v0: SetValue | None = None) -> MinimalityVerdict:
    """Classify x0 under all three weak-minimality notions by exhaustive scan.

    The scan covers every sample of the domain; a whole-space value at the
    base point short-circuits all three notions to HOLDS.  The values are
    read as the map's one stack (``SetMap.stacked``) and take their margins and
    scalarizations in stacked passes of at most ``_POINTS_BLOCK`` entries,
    with ``dominance_margin``'s conventions for whole-space values and NaN
    for empty ones.  A margin is the smallest over the points of
    the base value, so only its C-minimal points are probed (see
    ``dominated_probes``).  Witnesses follow domain order: the
    first sample of the largest dominating margin, the first border
    margin and the first sample without a sampled weight.  A caller that
    already read the base value with ``base_value`` passes it as ``v0``.
    """
    if v0 is None:
        x0, v0 = base_value(map, x0)
    resolution = {"domain_size": int(map.domain.shape[0]),
                  "wstar_size": len(wstar), "tau_strict": tau}
    if v0.whole_space:
        hold = CheckResult(Verdict.HOLDS, resolution=resolution)
        return MinimalityVerdict(hold, hold, hold, degenerate_whole_space=True)

    weights = wstar.weights
    phi0 = scalarize_many(v0, weights)
    stack, counts, whole = stacked = map.stacked
    nonempty = (counts > 0) | whole
    # a whole-space value dominates every cloud; empty values never dominate
    # and any weight works for them: NaN margins are skipped below
    margins = np.where(whole, np.inf,
                       np.where(nonempty, _least_margins(stack, cone, v0.points), np.nan))
    phix = scalarize_values(stacked, weights)

    # the largest margin, NaN skipped, and the first of equal ones: the
    # running maximum of a scan in domain order
    top = int(np.argmax(np.where(np.isnan(margins), -np.inf, margins)))
    worst_margin = max(-np.inf, margins[top])
    # an exact zero margin is a cleanly false relation (identical anchor
    # points); only inexact values near zero are ambiguous
    border = np.flatnonzero((margins != 0.0) & (np.abs(margins) <= tau))
    valid = phix > -np.inf
    gaps = np.where(valid, phi0 - phix, np.inf)
    best = gaps.argmin(axis=1)
    best_gap = gaps[np.arange(len(gaps)), best]
    weighted = nonempty & (best_gap <= tau)
    per_x_weights = [j if ok else None for j, ok in zip(best.tolist(), weighted.tolist())]
    unweighted = np.flatnonzero(nonempty & ~weighted)

    if worst_margin > tau:
        # clear domination: both order notions fail at the largest margin
        order_verdict = Verdict.FAILS
        order_witness = {"x": map.domain[top].tolist(), "margin": float(margins[top])}
    elif border.size:
        order_verdict = Verdict.UNDETERMINED
        i = int(border[0])
        order_witness = {"x": map.domain[i].tolist(), "margin": float(margins[i])}
    else:
        order_verdict = Verdict.HOLDS
        order_witness = None

    # the lower and uniform notions coincide on finite clouds: one result serves both
    order_result = CheckResult(order_verdict, witness=order_witness, resolution=resolution,
                               details={"worst_margin": float(worst_margin)})
    if unweighted.size == 0:
        w_sc = CheckResult(Verdict.HOLDS, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})
    else:
        i = int(unweighted[0])
        j = int(best[i])
        sc_witness = {"x": map.domain[i].tolist(), "best_gap": float(best_gap[i]),
                      "w": weights[j].tolist() if valid[i, j] else None}
        w_sc = CheckResult(Verdict.FAILS, witness=sc_witness, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})

    verdict = MinimalityVerdict(order_result, w_sc, order_result,
                                degenerate_whole_space=False)
    _enforce_consistency(verdict, worst_margin, wstar, tau)
    return verdict


def _enforce_consistency(verdict: MinimalityVerdict, worst_margin: float,
                         wstar: WStarSample, tau: float) -> None:
    """The two order notions must agree on finite clouds; the scalar notion
    may lag the sample.

    A scalar witness that coexists with a clear, well-conditioned uniform
    domination is impossible (uniform domination forces every weight to
    improve), so that combination raises; the reverse gap is recorded as a
    resolution caveat instead.
    """
    sc = verdict.w_sc_min.verdict
    om = verdict.w_min.verdict
    scale = 10.0 * max(1.0, 1.0 / max(wstar.min_norm(), 1e-12))
    if sc is Verdict.HOLDS and om is Verdict.FAILS and worst_margin > scale * tau:
        raise InternalCheckError(
            "scalar minimality holds while a value dominates the base value "
            f"with margin {worst_margin:g}; uniform domination must defeat "
            "every weight"
        )
    if sc is Verdict.FAILS and om is Verdict.HOLDS:
        verdict.consistent = False
        verdict.note = (
            "no scalar witness at the sampled weight resolution; the order "
            "notions hold, which is possible when some extended value is not "
            "convex or the weight sample is too coarse"
        )


def vector_weak_efficient(map: SetMap, x0, cone: Cone,
                          tau: float = TAU_STRICT) -> bool:
    """Weak efficiency for singleton-valued maps by dominance scan.

    True when no sampled value lands clearly inside the base value minus
    the cone interior.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f0 = _singleton(evaluate(map, x0))
    return all(not cone_margin(cone, f0 - _singleton(value)) > tau for value in map.values)


def _singleton(value: SetValue) -> np.ndarray:
    if value.whole_space or value.points.shape[0] != 1:
        raise NonSingletonValue("this operation needs singleton set values")
    return value.points[0]
