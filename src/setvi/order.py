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

from .cone import Cone, TAU_STRICT, WStarSample, cone_margin, ext_margins
from .errors import EmptySet, InternalCheckError, NonSingletonValue
from .scalarize import scalarize_many
from .setmap import SetMap, SetValue, base_value, evaluate
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
    margins, _ = ext_margins(A.points, cone, B.points)
    return float(margins.min())


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
                      tau: float = TAU_STRICT) -> MinimalityVerdict:
    """Classify x0 under all three weak-minimality notions by exhaustive scan.

    The scan covers every sample of the domain; a whole-space value at the
    base point short-circuits all three notions to HOLDS.
    """
    x0, v0 = base_value(map, x0)
    resolution = {"domain_size": int(map.domain.shape[0]),
                  "wstar_size": len(wstar), "tau_strict": tau}
    if v0.whole_space:
        hold = CheckResult(Verdict.HOLDS, resolution=resolution)
        return MinimalityVerdict(hold, hold, hold, degenerate_whole_space=True)

    phi0 = scalarize_many(v0, wstar.weights)
    dom_witness = None       # clear domination: both order notions fail
    dom_border = None
    sc_witness = None        # some x admits no sampled weight
    per_x_weights: list[int | None] = []
    worst_margin = -np.inf

    for i in range(map.domain.shape[0]):
        x = map.domain[i]
        vx = evaluate(map, x)
        if vx.is_empty:
            per_x_weights.append(None)  # empty values never dominate; any w works
            continue
        margin = dominance_margin(vx, v0, cone)
        if margin > tau and margin > worst_margin:
            # keep the largest-margin dominator as the witness
            dom_witness = {"x": x.tolist(), "margin": float(margin)}
        elif margin != 0.0 and abs(margin) <= tau and dom_border is None:
            # an exact zero margin is a cleanly false relation (identical
            # anchor points); only inexact values near zero are ambiguous
            dom_border = {"x": x.tolist(), "margin": float(margin)}
        worst_margin = max(worst_margin, margin)
        phix = scalarize_many(vx, wstar.weights)
        valid = phix > -np.inf
        gaps = np.where(valid, phi0 - phix, np.inf)
        j = int(np.argmin(gaps))
        if gaps[j] <= tau:
            per_x_weights.append(j)
        else:
            per_x_weights.append(None)
            if sc_witness is None:
                sc_witness = {"x": x.tolist(), "best_gap": float(gaps[j]),
                              "w": wstar.weights[j].tolist() if valid[j] else None}

    if dom_witness is not None:
        order_verdict = Verdict.FAILS
        order_witness = dom_witness
    elif dom_border is not None:
        order_verdict = Verdict.UNDETERMINED
        order_witness = dom_border
    else:
        order_verdict = Verdict.HOLDS
        order_witness = None

    w_l = CheckResult(order_verdict, witness=order_witness, resolution=resolution,
                      details={"worst_margin": float(worst_margin)})
    w_m = CheckResult(order_verdict, witness=order_witness, resolution=resolution,
                      details={"worst_margin": float(worst_margin)})
    if sc_witness is None:
        w_sc = CheckResult(Verdict.HOLDS, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})
    else:
        w_sc = CheckResult(Verdict.FAILS, witness=sc_witness, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})

    verdict = MinimalityVerdict(w_l, w_sc, w_m, degenerate_whole_space=False)
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
    for i in range(map.domain.shape[0]):
        fx = _singleton(evaluate(map, map.domain[i]))
        if cone_margin(cone, f0 - fx) > tau:
            return False
    return True


def _singleton(value: SetValue) -> np.ndarray:
    if value.whole_space or value.points.shape[0] != 1:
        raise NonSingletonValue("this operation needs singleton set values")
    return value.points[0]
