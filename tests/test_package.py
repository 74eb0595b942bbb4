"""The package surface: the names README documents, the names the benchmark
in `perfbench/` reads, the exceptions a caller catches, the modules an import
loads, and the records' immutability."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stallings
from stallings.elements import S_IDENTITY, s_from_word
from stallings.homotopy import verify_certificate
from stallings.pipeline import run_main_pipeline
from stallings.rewrite import rewrite_to_kernel_path

ROOT = Path(__file__).resolve().parents[1]

SURFACE = {
    # README's Library block
    "s_from_word", "s_multiply", "ball", "get_complex", "rewrite_to_kernel_path",
    "build_diagram", "extract_bands", "run_main_pipeline", "verify_certificate",
    # README's prose
    "Certificate", "ComplexSpec", "ForbiddenRegion", "find_generator_path", "neighborhood",
    # read by perfbench as st.X
    "S_IDENTITY", "scan", "transversal_bases", "run_rewrite_suite", "run_ends_experiment",
    "run_reduce_demo", "ConjugateFactor", "emit", "certificate_from_json",
    # exceptions a caller catches
    "SearchBudgetExceeded", "CertificateError", "DiagramError",
}


def _is_module(name):
    return isinstance(getattr(stallings, name, None), types.ModuleType)


def _library_block():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)


def test_package_exports_exactly_its_surface():
    assert len(SURFACE) == 26
    assert {name for name in stallings.__all__ if not _is_module(name)} == SURFACE


def test_readme_library_block_imports_from_the_surface_and_runs():
    block = _library_block()
    imports = re.search(r"from stallings import \((.*?)\)", block, re.S).group(1)
    names = {
        name.strip()
        for line in imports.splitlines()
        for name in line.split("#")[0].split(",")
        if name.strip()
    }
    assert len(names) == 9 and names <= SURFACE
    exec(block, {})


def test_perfbench_reads_only_the_surface():
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= set(re.findall(r"\b(?:st|stallings)\.([A-Za-z_]\w*)", path.read_text()))
    assert {"run_rewrite_suite", "run_ends_experiment", "run_reduce_demo"} <= read
    assert {name for name in read if not _is_module(name)} <= SURFACE


def test_import_leaves_dataclasses_unloaded():
    # a fresh interpreter, as every CLI call and benchmark child starts one
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, stallings; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_records_refuse_attribute_assignment():
    rewrite = rewrite_to_kernel_path(s_from_word("aaa"), (1, 3, -1, -3))
    pipeline = run_main_pipeline(s_from_word("aaa"), (1, 3, -1, -3))
    result = verify_certificate(rewrite.certificate)
    assert rewrite.verified and pipeline.verified and result.ok
    for record, field in ((rewrite.certificate, "start"), (result, "ok"),
                          (rewrite, "verified"), (pipeline, "verified")):
        with pytest.raises(AttributeError):
            setattr(record, field, S_IDENTITY)
