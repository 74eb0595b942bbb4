"""Exact computations in Stallings' group and the Bieri--Stallings kernel.

The package works with the direct product of two free groups F(a,b) x F(c,d),
the kernel K of the map sending every generator to 1 in the integers, and the
HNN extension S of the product whose stable letter centralizes K.  Everything
is exact: group elements are normal forms, complexes are explored by finite
breadth-first search, and every homotopy claim is backed by a replayable
certificate.
"""

from .complexes import (
    COMPLEXES,
    DEFAULT_BUDGET,
    ComplexSpec,
    ForbiddenRegion,
    SearchBudgetExceeded,
    ball,
    ball_to_dot,
    find_generator_path,
    get_complex,
    neighborhood,
    sphere_complement_components,
    sphere_sizes,
)
from .diagrams import (
    Band,
    BandDecomposition,
    ConjugateFactor,
    Diagram,
    DiagramError,
    band_invariants,
    build_diagram,
    expression_word,
    extract_bands,
    random_expression,
)
from .elements import (
    S_IDENTITY,
    SElement,
    g_to_s,
    gen_to_token,
    in_base_group,
    in_kernel_subgroup,
    parse_gens,
    s_from_json,
    s_from_word,
    s_invert,
    s_multiply,
    s_to_g,
    s_to_json,
    scan,
    step,
    token_to_gen,
)
from .homotopy import (
    Certificate,
    CertificateError,
    PathEditor,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from .pipeline import (
    PipelineReport,
    emit,
    run_ends_experiment,
    run_main_pipeline,
    run_pipeline_batch,
    run_reduce_batch,
    run_reduce_demo,
)
from .rewrite import (
    RewriteReport,
    rewrite_to_kernel_path,
    run_rewrite_suite,
    transversal_bases,
    zero_sum_words,
)
from .words import (
    EGEN_COUNT,
    EGEN_VALUES,
    EGEN_WORDS,
    GElement,
    egen_id,
    egen_index,
    egen_table,
    exponent_sum,
    g_from_word,
    in_kernel,
    kernel_identity_report,
    one_ended_reduction_report,
    reduce_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
