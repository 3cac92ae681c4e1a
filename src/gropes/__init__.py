"""Symbolic calculus of capped gropes.

Build gropes as labeled trees of surface stages, track cap intersections
with free-group labels, split caps and stages until every cap carries one
label value, and contract pieces into families of identity-labeled sphere
pairs.  Word arithmetic and lower-central-series depth live in
gropes.words; the rewriting moves in gropes.splitting and gropes.moves;
the end-to-end surgery in gropes.pipeline.
"""

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    PendingPushoff,
    SphereRecord,
    SphereRef,
    is_pi1_null,
    label_keys,
    validate_capped,
    value_keys_by_cap,
)
from .commutators import (
    Comm,
    Gen,
    Inv,
    Prod,
    evaluate,
    parse_expression,
    parse_word,
    push_inverses,
    weight,
)
from .errors import (
    GropeError,
    GrowthLimitError,
    HypothesisError,
    LabelMismatchError,
    MoveError,
    NotDyadicError,
    ParseError,
    PigeonholeFailure,
    RewriteError,
    SplitFirstError,
    ValidationError,
)
from .grope import (
    SIDE_NAMES,
    Grope,
    Stage,
    Tip,
    boundary_word,
    class_of,
    default_assignment,
    grope_from_expression,
    iter_stages,
    path_doc,
    stage_at,
    tips,
    validate_grope,
)
from .moves import contract, effective_value, find_duplicate_pair, piece_caps, pushoff
from .pipeline import (
    HypothesisReport,
    SurgeryKernel,
    SurgeryResult,
    check_hypotheses,
    generate_kernel,
    random_grope,
    replay_trace,
    run_surgery,
    validate_kernel,
)
from .render import render_dot
from .serialize import (
    canonical_dumps,
    capped_from_doc,
    document_kind,
    dumps_capped,
    dumps_kernel,
    dumps_result,
    grope_from_doc,
    kernel_from_doc,
    loads_document,
    result_from_doc,
)
from .splitting import SplitLimits, full_split, split_cap, split_stage
from .words import (
    DEFAULT_CUTOFF,
    IDENTITY,
    Depth,
    GroupWord,
    commutator,
    generator,
    lcs_depth,
    unoriented_key,
)

__version__ = "0.1.0"
