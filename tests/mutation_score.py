"""Mutation score of the certificate verifier, the step memo and the diagram sweep.

    python tests/mutation_score.py

Each row of `MUTANTS` is (name, file, old text, new text, pytest selection):
a one-line edit that switches off or weakens one check.  The script copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory and checks
that the unmutated selections pass.  Then, for each row, it checks that the
old text occurs exactly once in the file, applies the edit, runs
`python -m pytest -q -x -p no:cacheprovider <selection>` and restores the
file.  A nonzero exit (or a run past `TIMEOUT`) kills the mutant.  It prints
one line per row and `killed k/n`, and exits 1 if any row survives.

Stdlib only.  pytest does not collect this file: its name does not start
with `test_`.  A row is added for each check the verifier gains; a row that
survives is a gap in the tests, not a row to delete.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest run

HOMOTOPY = "src/stallings/homotopy.py"
ELEMENTS = "src/stallings/elements.py"
DIAGRAMS = "src/stallings/diagrams.py"

T_HOMOTOPY = "tests/test_homotopy.py"
MALFORMED = f"{T_HOMOTOPY}::test_verify_rejects_malformed_certificates"
OUTSIDE = f"{T_HOMOTOPY}::test_certificate_outside_its_complex_is_rejected"

MUTANTS = [
    ("_apply_move: closure check off", HOMOTOPY,
     "        if walked[-1] != verts[pos + split]:\n",
     "        if False:\n",
     (f"{T_HOMOTOPY}::test_cell_that_does_not_close_is_rejected",)),
    ("_apply_move: split range < becomes <=", HOMOTOPY,
     "if not 0 <= split < len(sides):",
     "if not 0 <= split <= len(sides):",
     (MALFORMED,)),
    ("_apply_move: the delete's label test dropped", HOMOTOPY,
     "if labels[pos + 1] != -labels[pos] or verts[pos + 2] != verts[pos]:",
     "if verts[pos + 2] != verts[pos]:",
     (f"{T_HOMOTOPY}::test_delete_needs_inverse_labels",)),
    ("_apply_move: the insert's generator check dropped", HOMOTOPY,
     "        if abs(gen) not in spec.gens:\n            raise CertificateError(f\"generator",
     "        if False:\n            raise CertificateError(f\"generator",
     (MALFORMED,)),
    ("_apply_move: the int-field check dropped", HOMOTOPY,
     "            or not type(move[1]) is type(move[-1]) is int):",
     "            ):",
     (MALFORMED,)),
    ("verify_certificate: created-vertex forbidden test off", HOMOTOPY,
     "        if any(v in forbidden for v in created):",
     "        if False:",
     (f"{T_HOMOTOPY}::test_every_swept_vertex_is_guarded",)),
    ("verify_certificate: initial-path forbidden test off", HOMOTOPY,
     "    if any(v in forbidden for v in verts):",
     "    if False:",
     (f"{T_HOMOTOPY}::test_every_swept_vertex_is_guarded",)),
    ("verify_certificate: result comparison off", HOMOTOPY,
     "    if tuple(labels) != cert.result or not all(type(g) is int for g in cert.result):",
     "    if False:",
     (MALFORMED,)),
    ("verify_certificate: result labels' exact-int test off", HOMOTOPY,
     "    if tuple(labels) != cert.result or not all(type(g) is int for g in cert.result):",
     "    if tuple(labels) != cert.result:",
     (MALFORMED,)),
    ("verify_certificate: _is_normal_form(start) off", HOMOTOPY,
     "            and _is_normal_form(start) and spec.member(start)):",
     "            and spec.member(start)):",
     (OUTSIDE,)),
    ("verify_certificate: spec.member(start) off", HOMOTOPY,
     "            and _is_normal_form(start) and spec.member(start)):",
     "            and _is_normal_form(start)):",
     (OUTSIDE,)),
    ("verify_certificate: path labels' exact-int test off", HOMOTOPY,
     "        if type(gen) is not int or abs(gen) not in spec.gens:\n            return",
     "        if abs(gen) not in spec.gens:\n            return",
     (MALFORMED,)),
    ("PathEditor: labels' exact-int test off", HOMOTOPY,
     "            if type(gen) is not int or abs(gen) not in spec.gens:\n                token",
     "            if abs(gen) not in spec.gens:\n                token",
     ("tests/test_rewrite.py::test_rewriter_refuses_labels_that_are_not_letters",)),
    ("_move_from_json: bool accepted", HOMOTOPY,
     "isinstance(x, t) and not isinstance(x, bool) for",
     "isinstance(x, t) for",
     ("tests/test_cli.py::test_bad_input_exits_2_without_traceback[cert-bool-move-field]",)),
    ("step: memo keyed by (x, abs(gen))", ELEMENTS,
     "    y = _step_memo.get((x, gen))",
     "    y = _step_memo.get((x, abs(gen)))",
     ("tests/test_elements.py::test_step_memo_agrees_with_oracle_across_a_clear",)),
    ("_fold_boundary: the bigon sweep dropped", DIAGRAMS,
     "                    self._sweep_spheres()\n",
     "                    pass\n",
     ("tests/test_diagrams.py::test_mirror_pair_collapses",)),
]


def run_pytest(workdir: Path, selection) -> tuple[bool, str]:
    """(passed, note) for one pytest run in the copy at workdir."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT} s"
    return proc.returncode == 0, f"pytest exit {proc.returncode}"


def main() -> int:
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutation-score-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        selections = list(dict.fromkeys(t for row in MUTANTS for t in row[4]))
        passed, note = run_pytest(workdir, selections)
        if not passed:
            print(f"the unmutated selections fail ({note}); no score")
            return 2
        killed = 0
        for name, file, old, new, selection in MUTANTS:
            path = workdir / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}")
                return 2
            path.write_text(text.replace(old, new))
            try:
                passed, note = run_pytest(workdir, selection)
            finally:
                path.write_text(text)
            killed += not passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {name}  ({note})", flush=True)
    print(f"killed {killed}/{len(MUTANTS)} in {time.monotonic() - t0:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
