"""Exact computations in Stallings' group and the Bieri--Stallings kernel.

The package works with the direct product of two free groups F(a,b) x F(c,d),
the kernel K of the map sending every generator to 1 in the integers, and the
HNN extension S of the product whose stable letter centralizes K.  Everything
is exact: group elements are normal forms, complexes are explored by finite
breadth-first search, and every homotopy claim is backed by a replayable
certificate.

The package surface is the names imported below: the ones README documents,
the ones the benchmark in `perfbench/` reads, and the exceptions a caller
catches.  Everything else is imported from its module, for example
`from stallings.elements import step`.
"""

from .complexes import (
    ComplexSpec,
    ForbiddenRegion,
    SearchBudgetExceeded,
    ball,
    find_generator_path,
    get_complex,
    neighborhood,
)
from .diagrams import ConjugateFactor, DiagramError, build_diagram, extract_bands
from .elements import S_IDENTITY, s_from_word, s_multiply, scan
from .homotopy import Certificate, CertificateError, certificate_from_json, verify_certificate
from .pipeline import emit, run_ends_experiment, run_main_pipeline, run_reduce_demo
from .rewrite import rewrite_to_kernel_path, run_rewrite_suite, transversal_bases

__all__ = [name for name in dir() if not name.startswith("_")]
