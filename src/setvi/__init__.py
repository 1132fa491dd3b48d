"""Order relations, scalarizations, and variational-inequality checks for
set-valued problems on finite sample domains."""

from .analysis import (
    ConvexityReport,
    DiniConfig,
    c_convexity_check,
    classify_path,
    diewert_witness,
    dini_lower,
)
from .cone import (
    Cone,
    TAU_STRICT,
    WStarSample,
    dual_base,
    make_cone,
)
from .config import RunSettings
from .order import (
    MinimalityVerdict,
    classify_weak_min,
    relation_ll,
    relation_lt,
    scalar_strict_separation,
    vector_weak_efficient,
)
from .report import render_json
from .scalarize import (
    PiecewiseLinear,
    ScalarPath,
    hausdorff_check_radial,
    radial_excesses,
    scalar_path,
)
from .setmap import (
    Problem,
    RayValues,
    SetMap,
    SetValue,
    builtin_map,
    evaluate,
    load_problem,
    radial_rays,
    ray_restriction,
)
from .suite import run_suite
from .verdicts import CheckResult, Verdict
from .vi import (
    ChainReport,
    ChainStatus,
    VIVerdict,
    replay_derivative,
    theorem_chain,
    theorem_chains,
    vi_check,
    vi_checks,
)

__version__ = "0.1.0"
