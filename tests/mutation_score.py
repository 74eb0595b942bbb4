"""Mutation score of the certificate verifier, its cell table and its JSON
reader, the step memo, the diagram sweep, validation and band extraction, the
searches' neighbour kernel and its rows, the forbidden region, the shell
merge, the pipeline's guards, composed replay and combing radius, the report
encoder and its json fallback, and the rewriter's guards.

    python tests/mutation_score.py

Each row of `MUTANTS` is (name, file, old text, new text, pytest selection):
a one-line edit that switches off or weakens one check.  The script checks
that each row's old text occurs exactly once in its file, copies `src/`,
`tests/` and `pyproject.toml` into `WORKERS` temporary directories and
checks that the unmutated selections pass in one of them.  Then `WORKERS`
threads take the rows in turn, each with a copy of its own: a thread applies
the edit, runs `python -m pytest -q -x -p no:cacheprovider <selection>` and
restores the file.  A nonzero exit (or a run past `TIMEOUT`) kills the
mutant.  It prints one line per row, in table order, and `killed k/n`, and
exits 1 if any row survives.

Stdlib only.  pytest does not collect this file: its name does not start
with `test_`.  A row is added for each check the verifier gains; a row that
survives is a gap in the tests, not a row to delete.  Besides switching off
its checks, the verifier's rows leave a created vertex out of the swept set
and drop the start's length test or its third field's str test.  The
rewriter's case counts have two rows: the suite's total replaced by one
word's counts, and each case counted at most once per rewrite.  The search
kernel's rows mix up its three projections, write a row's products out of
value order, multiply a part once per value that has it, or let
`neighborhood` keep the expander's plain tuples.  The shell merge's rows drop the one
attach of a root to another, let layer R+1 insert vertices, or let it expand
outer vertices after one component is left.  The region's rows let its
attributes be assigned or build `dilated` no wider than the region; the
others count off-base vertices in `base_exclusion_radius`, drop the
rewriter's away-from-identity test or syllable-count check, drop
`run_reduce_demo`'s band-count check, or let `contract_product_loop` take an
open segment.  The encoder's rows break its fast path for lists of rows,
write a dict with keys other than str item by item, or swap the empty list's
and dict's texts, and the combing row reads an off-base pair's distance from
the projections.  Five pipeline rows turn a guard's `raise` into `pass`:
a path left after a contraction or after band elimination, a band endpoint
in the dilated region, no detour, and no stable pair that pinches.  The
replay row checks the composed certificate without the region; stage 1 has
no replay of its own there, so a rewriting that sweeps into the region passes.
The cell-table row reads each split's path from the inverse form at `rot`
instead of `-rot % n`.  Five diagram rows turn a `Diagram.validate` guard's
`raise` into `pass`: the dart partition, the boundary's basepoint, the face
chaining, the Euler count and connectivity, each reached by its own tampering
of a built diagram.  Three do the same to the builder's guards: a spur whose
tip holds a second edge, a face whose edges were deleted (swept while its
twins stay), and a boundary left unfolded.  Seven more do the same to the
guards of `extract_bands`, each reached by a tampering of a two-band diagram:
a square retagged as a triangle, a second band pointed at the first band's
square, a square with five darts, a flipped side edge, a square left by the
dart it was entered by, a flipped stable boundary edge and two bands made to
cross.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest run
WORKERS = 2  # pytest runs at a time, each in its own copy

HOMOTOPY = "src/stallings/homotopy.py"
ELEMENTS = "src/stallings/elements.py"
DIAGRAMS = "src/stallings/diagrams.py"
COMPLEXES = "src/stallings/complexes.py"
PIPELINE = "src/stallings/pipeline.py"
REWRITE = "src/stallings/rewrite.py"

T_HOMOTOPY = "tests/test_homotopy.py"
T_COMPLEXES = "tests/test_complexes.py"
T_DIAGRAMS = "tests/test_diagrams.py"
TAMPERED = f"{T_DIAGRAMS}::test_validate_names_each_tampering"
BANDS = f"{T_DIAGRAMS}::test_extract_bands_names_each_tampering"
EXPANDER = f"{T_COMPLEXES}::test_expander_multiplies_by_each_step_value_in_order"
MALFORMED = f"{T_HOMOTOPY}::test_verify_rejects_malformed_certificates"
OUTSIDE = f"{T_HOMOTOPY}::test_certificate_outside_its_complex_is_rejected"
EXACT_INTS = f"{T_HOMOTOPY}::test_certificate_from_json_wants_exact_ints_in_move_fields"
T_PIPELINE = "tests/test_pipeline.py"
ENCODER = f"{T_PIPELINE}::test_emit_flat_lists_and_rows_match_json_dumps"
EMIT = f"{T_PIPELINE}::test_emit_matches_json_dumps"

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
     "        for v in created:\n            if v in forbidden:",
     "        for v in created:\n            if False:",
     (f"{T_HOMOTOPY}::test_every_swept_vertex_is_guarded",)),
    ("verify_certificate: initial-path forbidden test off", HOMOTOPY,
     "    for v in verts:\n        if v in forbidden:",
     "    for v in verts:\n        if False:",
     (f"{T_HOMOTOPY}::test_every_swept_vertex_is_guarded",)),
    ("verify_certificate: created vertices left out of swept", HOMOTOPY,
     "            swept.add(v)\n",
     "",
     (f"{T_HOMOTOPY}::test_inserted_vertex_is_swept_and_guarded",)),
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
    ("verify_certificate: the start's third-field str test dropped", HOMOTOPY,
     "type(start[0]) is type(start[1]) is type(start[2]) is str",
     "type(start[0]) is type(start[1]) is str",
     (MALFORMED,)),
    ("verify_certificate: the start's length test dropped", HOMOTOPY,
     "type(start) is SElement and len(start) == 3\n",
     "type(start) is SElement\n",
     (MALFORMED,)),
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
     "    elif set(map(type, data[1:])) == {int}:",
     "    elif set(map(type, data[1:])) <= {int, bool}:",
     ("tests/test_cli.py::test_bad_input_exits_2_without_traceback[cert-bool-move-field]",
      f"{EXACT_INTS}[true]")),
    ("_move_from_json: an insert's position may be a bool", HOMOTOPY,
     "        if type(data[1]) is int and type(data[2]) is str:",
     "        if isinstance(data[1], int) and type(data[2]) is str:",
     (f"{EXACT_INTS}[true]",)),
    ("CELL_SPLITS: the inverse form read at rot, not -rot % n", HOMOTOPY,
     "-rot % len(form)",
     "rot",
     (f"{T_HOMOTOPY}::test_cell_splits_read_each_form",)),
    ("step: memo keyed by (x, abs(gen))", ELEMENTS,
     "    y = _step_memo.get((x, gen))",
     "    y = _step_memo.get((x, abs(gen)))",
     ("tests/test_elements.py::test_step_memo_agrees_with_oracle_across_a_clear",)),
    ("_fold_boundary: the bigon sweep dropped", DIAGRAMS,
     "                    self._sweep_spheres()\n",
     "                    pass\n",
     (f"{T_DIAGRAMS}::test_mirror_pair_collapses",)),
    ("_fold_boundary: the spur-tip check off", DIAGRAMS,
     'raise DiagramError("spur tip is not a leaf")',
     "pass",
     (f"{T_DIAGRAMS}::test_fold_refuses_a_spur_whose_tip_is_not_a_leaf",)),
    ("_sweep_spheres: the shared-edge check off", DIAGRAMS,
     'raise DiagramError("sphere shares an edge with the disk")',
     "pass",
     (f"{T_DIAGRAMS}::test_sweep_refuses_a_sphere_that_shares_an_edge_with_the_disk",)),
    ("build_diagram: the boundary-word check off", DIAGRAMS,
     'raise DiagramError("boundary does not spell the reduced expression")',
     "pass",
     (f"{T_DIAGRAMS}::test_unfolded_boundary_does_not_spell_the_reduced_expression",)),
    ("Diagram.validate: the dart-partition check off", DIAGRAMS,
     'raise DiagramError("darts are not partitioned by the faces")',
     "pass",
     (f"{TAMPERED}[dropped-dart]",)),
    ("Diagram.validate: the basepoint check off", DIAGRAMS,
     'raise DiagramError("boundary does not start at the basepoint")',
     "pass",
     (f"{TAMPERED}[moved-basepoint]",)),
    ("Diagram.validate: the chaining check off", DIAGRAMS,
     'raise DiagramError("face darts do not chain")',
     "pass",
     (f"{TAMPERED}[swapped-darts]",)),
    ("Diagram.validate: the Euler check off", DIAGRAMS,
     'raise DiagramError("diagram is not spherical")',
     "pass",
     (f"{TAMPERED}[merged-vertices]",)),
    ("Diagram.validate: the connectivity check off", DIAGRAMS,
     'raise DiagramError("diagram is not connected")',
     "pass",
     (f"{TAMPERED}[torus]",)),
    ("extract_bands: the non-square check off", DIAGRAMS,
     'raise DiagramError("stable edge borders a non-square face")',
     "pass",
     (f"{BANDS}[triangle]",)),
    ("extract_bands: the shared-square check off", DIAGRAMS,
     'raise DiagramError("square shared between bands")',
     "pass",
     (f"{BANDS}[shared-square]",)),
    ("extract_bands: the square-shape check off", DIAGRAMS,
     'raise DiagramError("square face is malformed")',
     "pass",
     (f"{BANDS}[five-darts]",)),
    ("extract_bands: the sides check off", DIAGRAMS,
     'raise DiagramError("band sides disagree")',
     "pass",
     (f"{BANDS}[flipped-side]",)),
    ("extract_bands: the pairing check off", DIAGRAMS,
     'raise DiagramError("inconsistent band pairing")',
     "pass",
     (f"{BANDS}[repeated-entry]",)),
    ("extract_bands: the orientation check off", DIAGRAMS,
     'raise DiagramError("band endpoints have equal orientation")',
     "pass",
     (f"{BANDS}[flipped-endpoint]",)),
    ("extract_bands: the crossing check off", DIAGRAMS,
     'raise DiagramError("bands cross")',
     "pass",
     (f"{BANDS}[crossed]",)),
    ("expander: cd rows read from the ab cache", COMPLEXES,
     "ab_rows[p_ab], cd_rows[cd], tail_rows[tail]",
     "ab_rows[p_ab], ab_rows[cd], tail_rows[tail]",
     (EXPANDER,)),
    ("_Rows: products written out in reversed value order", COMPLEXES,
     "[products[part] for part in self.parts]",
     "[products[part] for part in self.parts[::-1]]",
     (EXPANDER,)),
    ("_Rows: one product per step value, not per distinct part", COMPLEXES,
     "for part in dict.fromkeys(self.parts)}",
     "for part in self.parts}",
     (f"{T_COMPLEXES}::test_expander_multiplies_each_distinct_part_once",)),
    ("sphere_complement_components: the attach dropped", COMPLEXES,
     "\n                        parent[j] = root\n",
     "\n                        pass\n",
     (f"{T_COMPLEXES}::test_shell_components_agree_with_oracle",)),
    ("sphere_complement_components: layer R+1 inserts vertices", COMPLEXES,
     "unseen = None if layer <= R else 0",
     "unseen = None",
     (f"{T_COMPLEXES}::test_shell_components_agree_with_oracle",)),
    ("neighborhood: the expander's plain tuple inserted", COMPLEXES,
     "                    w = _new_s(SElement, w)\n",
     "",
     (f"{T_COMPLEXES}::test_searches_return_and_keep_selements",)),
    ("sphere_complement_components: layer R+1's stop weakened", COMPLEXES,
     "if layer > R and len(parent) - merges <= 1:",
     "if layer > R and len(parent) - merges <= 0:",
     (f"{T_COMPLEXES}::test_one_ended_shell_expands_no_outer_vertex",)),
    ("ForbiddenRegion: attribute assignment allowed", COMPLEXES,
     "    __setattr__ = __delattr__ = _refuse\n",
     "",
     (f"{T_COMPLEXES}::test_forbidden_region_refuses_mutation",)),
    ("ForbiddenRegion: dilated built at the region's own radius", COMPLEXES,
     "ForbiddenRegion(self.spec, self.centers, self.radius + 1)",
     "ForbiddenRegion(self.spec, self.centers, self.radius)",
     (f"{T_COMPLEXES}::test_dilated_region_is_built_once",)),
    ("base_exclusion_radius: off-base vertices counted", PIPELINE,
     "for v in region if in_base_group(v))",
     "for v in region)",
     (f"{T_PIPELINE}::test_base_exclusion_radius_skips_vertices_off_the_base_group",)),
    ("rewrite_to_kernel_path: away-from-identity test off", REWRITE,
     "verified = res.ok and min_swept >= min_original",
     "verified = res.ok",
     ("tests/test_rewrite.py::test_rewrite_that_sweeps_toward_the_identity_is_not_verified",)),
    ("contract_product_loop: closed-loop check off", HOMOTOPY,
     "    if editor.vertex(pos) != editor.vertex(pos + length):\n",
     "    if False:\n",
     (f"{T_HOMOTOPY}::test_contract_rejects_open_paths",)),
    ("run_rewrite_suite: a word's case counts replace the total", REWRITE,
     "cases[case] = cases.get(case, 0) + count",
     "cases[case] = count",
     ("tests/test_rewrite.py::test_suite_cases_are_the_sum_of_its_rewrites_cases",)),
    ("Rewriter: each case counted at most once per rewrite", REWRITE,
     "cases[case] = cases.get(case, 0) + 1",
     "cases[case] = 1",
     ("tests/test_rewrite.py::test_frozen_small_rewrites",)),
    ("rewriter: the syllable-count check off", REWRITE,
     "            if len(trace) >= 2 and trace[-1] >= trace[-2]:\n",
     "            if False:\n",
     ("tests/test_rewrite.py::test_rewrite_whose_syllable_count_stalls_is_refused",)),
    ("run_reduce_demo: the band-count check off", PIPELINE,
     "    if len(detour_lengths) != invariants[\"bands\"]:\n",
     "    if False:\n",
     (f"{T_PIPELINE}::test_reduce_demo_checks_its_eliminations_against_the_bands",)),
    ("_encode: the rows' outer separators left unindented", PIPELINE,
     "rows.replace(\"],\" + deeper + \"[\", inner + \"],\" + inner + \"[\" + deeper)",
     "rows",
     (ENCODER,)),
    ("_encode: the non-empty-row guard dropped", PIPELINE,
     "if kinds == {list} and all(o) and set(",
     "if kinds == {list} and set(",
     (ENCODER,)),
    ("_encode: a dict with keys other than str written item by item", PIPELINE,
     "if type(o) is dict and all(type(k) is str for k in o):",
     "if type(o) is dict:",
     (EMIT,)),
    ("_encode: the empty list's and dict's texts swapped", PIPELINE,
     '_EMPTY_TEXT = {list: "[]", dict: "{}"}',
     '_EMPTY_TEXT = {list: "{}", dict: "[]"}',
     (EMIT,)),
    ("combing_radius: every pair read from the projections", PIPELINE,
     "            if on_base and v_on_base:\n",
     "            if True:\n",
     (f"{T_PIPELINE}::test_combing_radius_is_the_exact_max_min",)),
    ("run_reduce_demo: the band-endpoint check off", PIPELINE,
     'raise CertificateError("a band endpoint lies inside the dilated region")',
     "pass",
     (f"{T_PIPELINE}::test_band_endpoint_inside_the_dilated_region_is_refused",
      "tests/test_cli.py::test_bad_input_exits_2_without_traceback"
      "[reduce-demo-band-endpoint-in-region]")),
    ("_innermost_stable_pair: the no-pinch check off", PIPELINE,
     'raise CertificateError("no adjacent stable pair pinches over the kernel")',
     "pass",
     (f"{T_PIPELINE}::test_stable_pair_whose_interior_leaves_the_kernel_is_refused",)),
    ("run_main_pipeline: the left-path check off", PIPELINE,
     'raise CertificateError(f"contraction at stable level {p} left a path")',
     "pass",
     (f"{T_PIPELINE}::test_main_pipeline_contraction_that_leaves_a_path_is_refused",)),
    ("run_reduce_demo: the left-path check off", PIPELINE,
     'raise CertificateError("band elimination left a path")',
     "pass",
     (f"{T_PIPELINE}::test_band_elimination_that_leaves_a_path_is_refused",)),
    ("run_reduce_demo: the missing-detour check off", PIPELINE,
     'raise CertificateError("the dilated region separates the band endpoints")',
     "pass",
     (f"{T_PIPELINE}::test_band_elimination_without_a_detour_is_refused",)),
    ("run_main_pipeline: the composed replay ignores the region", PIPELINE,
     "res = verify_certificate(composed, region)",
     "res = verify_certificate(composed)",
     (f"{T_PIPELINE}::test_stage_1_is_checked_by_the_composed_replay",)),
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


def copy_tree(workdir: Path) -> Path:
    """A copy of `src/`, `tests/` and `pyproject.toml` at workdir."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    return workdir


def run_mutant(copies: queue.SimpleQueue, row) -> tuple[bool, str]:
    """Apply one row's edit in a free copy, run its selection and restore the file."""
    _, file, old, new, selection = row
    workdir = copies.get()
    try:
        path = workdir / file
        text = path.read_text()
        path.write_text(text.replace(old, new))
        try:
            return run_pytest(workdir, selection)
        finally:
            path.write_text(text)
    finally:
        copies.put(workdir)


def main() -> int:
    t0 = time.monotonic()
    for name, file, old, _, _ in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {file}")
            return 2
    with tempfile.TemporaryDirectory(prefix="mutation-score-") as tmp:
        copies: queue.SimpleQueue = queue.SimpleQueue()
        for i in range(WORKERS):
            copies.put(copy_tree(Path(tmp) / str(i)))
        selections = list(dict.fromkeys(t for row in MUTANTS for t in row[4]))
        passed, note = run_pytest(Path(tmp) / "0", selections)
        if not passed:
            print(f"the unmutated selections fail ({note}); no score")
            return 2
        killed = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            # map yields in table order, each result as soon as its row is done
            for (name, *_), (passed, note) in zip(
                MUTANTS, pool.map(lambda row: run_mutant(copies, row), MUTANTS)
            ):
                killed += not passed
                print(f"{'SURVIVED' if passed else 'killed  '}  {name}  ({note})", flush=True)
    print(f"killed {killed}/{len(MUTANTS)} in {time.monotonic() - t0:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
