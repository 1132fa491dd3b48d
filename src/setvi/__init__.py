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
    Membership,
    Region,
    TAU_STRICT,
    WStarSample,
    cone_extended_member,
    dual_base,
    make_cone,
    membership,
)
from .config import RunSettings
from .extreal import NEG_INF, POS_INF, ExtReal, ext_add, inf_residual
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
    equicontinuity_check,
    hausdorff_check,
    hausdorff_check_radial,
    scalar_path,
    scalarize,
    support_profile,
)
from .setmap import (
    Problem,
    RayValues,
    SetMap,
    SetValue,
    builtin_map,
    evaluate,
    load_problem,
    map_extended_member,
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
    vi_check,
)

__version__ = "0.1.0"
