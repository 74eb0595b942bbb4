"""End-to-end checks of the command-line interface.

Every test drives `main` in-process and parses what it printed, so the
exit-code contract (0 iff all verifications pass) is pinned alongside the
report shapes.
"""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stallings.cli import MODE_FLAGS, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

# a valid certificate: the path a c with no moves
VALID_CERT = {
    "schema": "homotopy-certificate/1",
    "complex": "gamma_1",
    "start": {"k": {"ab": "", "cd": ""}, "tail": ""},
    "path": ["a", "c"],
    "moves": [],
    "result": ["a", "c"],
    "description": "",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_verify_identities(capsys):
    code, data = run_json(capsys, "verify-identities")
    assert code == 0
    assert data["ok"]
    assert data["kernel_identities"]["conjugate_checks"] == 192
    assert data["one_ended_reduction"]["reduction_chain"][-1] == ["bA", "dC", "dA"]


def test_normalize(capsys):
    code, data = run_json(capsys, "normalize", "s a b A B S")
    assert code == 0
    assert data["element"] == {"k": {"ab": "abAB", "cd": ""}, "tail": ""}


def test_normalize_rejects_bad_letters(capsys):
    code = main(["normalize", "xyz"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_ball_json(capsys):
    code, data = run_json(capsys, "ball", "--complex", "gamma_1", "--radius", "3")
    assert code == 0
    assert data["sphere_sizes"] == [1, 8, 40, 168]
    assert data["size"] == 217


def test_ball_dot(capsys):
    code, out = run_cli(
        capsys, "ball", "--complex", "free_ab", "--radius", "1", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph {")
    assert out.count("--") == 4


def test_ball_budget_exhaustion_is_an_error(capsys):
    code = main(["ball", "--complex", "gamma_k", "--radius", "4", "--budget", "100"])
    assert code == 2
    assert "exceeded" in capsys.readouterr().err


def test_f2p_single_word(capsys):
    code, data = run_json(
        capsys, "f2p", "--base", "aaa", "--word", "acAC", "--m", "2"
    )
    assert code == 0
    assert data["verified"]
    assert data["case_trace"]
    labels = data["kpath"].split()
    assert len(labels) % 2 == 0
    cert = data["certificate"]
    assert cert["complex"] == "gamma_1"
    assert cert["result"] == labels


def test_f2p_suite_mode(capsys):
    code, data = run_json(capsys, "f2p", "--max-len", "2", "--m", "2")
    assert code == 0
    assert data["all_verified"]
    assert data["bases"] == 15
    assert data["ball_radius"] == 2


def test_dump_egen_table(capsys):
    code, data = run_json(capsys, "dump-egen-table")
    assert code == 0
    rows = data["generators"]
    assert len(rows) == 24
    assert rows[0]["word"] == "aB"
    assert {row["index"] for row in rows} == set(range(1, 25))


def test_diagram_bands_and_render(capsys):
    expr = json.dumps([["", 28, 1], ["s d", 33, 1]])
    code, data = run_json(capsys, "diagram", "bands", "--expr", expr)
    assert code == 0
    assert data["bands"] == 3
    assert data["boundary_length"] == 12

    code, out = run_cli(capsys, "diagram", "render", "--expr", expr)
    assert code == 0
    assert out.startswith("digraph diagram {")


def test_diagram_build_random_is_seeded(capsys):
    code, first = run_cli(capsys, "diagram", "build", "--seed", "7")
    assert code == 0
    code, second = run_cli(capsys, "diagram", "build", "--seed", "7")
    assert first == second
    data = json.loads(first)
    assert data["vertices"][0] == data["basepoint"]


def test_pipeline_single_run(capsys):
    code, data = run_json(
        capsys, "pipeline", "--base", "aaa", "--word", "acAC", "--radius", "1"
    )
    assert code == 0
    assert data["verified"]
    assert data["summary"]["stable_level"] == 0
    assert [stage["stage"] for stage in data["stages"]] == [
        "rewrite",
        "convert",
        "contract",
    ]


def test_pipeline_rejects_near_loop(capsys):
    code = main(["pipeline", "--base", "a", "--word", "acAC", "--radius", "1"])
    assert code == 2
    assert "outside radius" in capsys.readouterr().err


def test_pipeline_batch(capsys):
    code, data = run_json(capsys, "pipeline", "--count", "5", "--seed", "9")
    assert code == 0
    assert data["all_verified"]
    assert len(data["runs"]) == 5


def test_reduce_demo_single(capsys):
    expr = json.dumps([["", 28, 1]])
    code, data = run_json(capsys, "reduce-demo", "--expr", expr)
    assert code == 0
    assert data["verified"]
    assert data["summary"]["bands"] == 1


def test_reduce_demo_batch(capsys):
    code, data = run_json(capsys, "reduce-demo", "--count", "4", "--seed", "4")
    assert code == 0
    assert data["all_verified"]
    assert len(data["runs"]) == 4


def test_ends_experiment(capsys):
    code, data = run_json(
        capsys, "ends", "--r", "1", "--names", "free_ab,gamma_1",
        "--budget", "500000",
    )
    assert code == 0
    assert data["essential_components"]["free_ab"] == [12]
    assert data["essential_components"]["gamma_1"] == [1]
    assert data["one_ended_evidence"] == ["gamma_1"]


def test_verify_cert_round_trip(tmp_path, capsys):
    code, data = run_json(
        capsys, "f2p", "--base", "aaa", "--word", "acAC"
    )
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(data["certificate"]))

    code, report = run_json(capsys, "verify-cert", str(cert_file))
    assert code == 0
    assert report["ok"]
    assert report["end"] == {"k": {"ab": "", "cd": ""}, "tail": "aaa"}


def test_verify_cert_against_forbidden_ball(tmp_path, capsys):
    code, data = run_json(capsys, "f2p", "--base", "aaa", "--word", "acAC")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(data["certificate"]))

    safe = tmp_path / "safe.json"
    safe.write_text(json.dumps(
        {"complex": "gamma_1",
         "centers": [{"k": {"ab": "", "cd": ""}, "tail": ""}],
         "radius": 2}
    ))
    code, report = run_json(
        capsys, "verify-cert", str(cert_file), "--forbidden", str(safe)
    )
    assert code == 0 and report["ok"]

    poisoned = tmp_path / "poisoned.json"
    poisoned.write_text(json.dumps(
        {"vertices": [{"k": {"ab": "", "cd": ""}, "tail": "aaa"}]}
    ))
    code, report = run_json(
        capsys, "verify-cert", str(cert_file), "--forbidden", str(poisoned)
    )
    assert code == 1
    assert not report["ok"]
    assert report["reason"] == "initial path enters forbidden region"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["dump-egen-table", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["kind"] == "egen-table"


def test_reports_are_byte_stable(capsys):
    _, first = run_cli(capsys, "pipeline", "--count", "3", "--seed", "11")
    _, second = run_cli(capsys, "pipeline", "--count", "3", "--seed", "11")
    assert first == second


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_f2p_path_into_forbidden_ball_reports_failure(capsys):
    code, data = run_json(capsys, "f2p", "--base", "", "--word", "acAC", "--m", "2")
    assert code == 1
    assert data["verified"] is False
    assert data["min_swept_distance"] is None


def run_module(*argv, optimize=True):
    """Run the CLI in a fresh interpreter, with `python -O` by default."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "stallings", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_f2p_failure_is_the_same_under_optimize():
    proc = run_module("f2p", "--base", "", "--word", "acAC", "--m", "2")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["verified"] is False


def test_unread_flag_at_its_default_exits_2_under_optimize():
    for argv in (("pipeline", "--count", "2", "--max-level", "8"),
                 ("reduce-demo", "--expr", '[["", 28, 1]]', "--seed", "0"),
                 ("f2p", "--base", "aaa", "--word", "acAC", "--max-len", "6")):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert "is not read" in proc.stderr and "Traceback" not in proc.stderr


# the path a c pushed across one commutator cell, walked from s, outside gamma_1
OUTSIDE_CERT = {
    **VALID_CERT,
    "start": {"k": {"ab": "", "cd": ""}, "tail": "s"},
    "moves": [["cell", 0, 0, 0, 0, 2]],
    "result": ["c", "a"],
}


def test_verify_cert_is_the_same_under_optimize(tmp_path):
    # a wrapped rotation and a start outside the complex each fail an explicit
    # check of the verifier (exit 1); a negative forbidden radius is bad input
    # (exit 2)
    wrapped = {**VALID_CERT, "moves": [["cell", 0, 0, 0, 4, 2]], "result": ["c", "a"]}
    forbidden = tmp_path / "forbidden.json"
    forbidden.write_text(json.dumps({"radius": -1}))
    for i, (cert, extra, code, reason) in enumerate((
        (wrapped, (), 1, "move 0: 2-cell 0 has no form inv=0, rot=4"),
        (OUTSIDE_CERT, (), 1, "start is not a vertex of gamma_1"),
        (wrapped, ("--forbidden", str(forbidden)), 2, None),
    )):
        cert_file = tmp_path / f"cert{i}.json"
        cert_file.write_text(json.dumps(cert))
        argv = ("verify-cert", str(cert_file), *extra)
        plain, optimized = run_module(*argv, optimize=False), run_module(*argv)
        assert plain.returncode == optimized.returncode == code
        assert plain.stdout == optimized.stdout
        assert "Traceback" not in plain.stderr + optimized.stderr
        if code == 1:
            report = json.loads(optimized.stdout)
            assert (report["ok"], report["reason"]) == (False, reason)


def test_source_has_no_asserts():
    # correctness checks must survive python -O, so src/ raises explicitly
    for path in sorted((SRC / "stallings").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Name):
                assert node.id != "AssertionError", f"{path.name}:{node.lineno}"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("diagram", "bands", "--expr", "[1]"), "malformed factor",
                     id="diagram-malformed-factor"),
        pytest.param(("reduce-demo", "--expr", '{"a": 1}'),
                     "--expr must be a JSON list of factors", id="reduce-demo-expr-not-a-list"),
        pytest.param(("diagram", "build", "--expr", "5"),
                     "--expr must be a JSON list of factors", id="diagram-expr-not-a-list"),
        pytest.param(("reduce-demo", "--expr", "[1]"), "malformed factor",
                     id="reduce-demo-malformed-factor"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, true]]'), "malformed factor",
                     id="reduce-demo-bool-sign"),
        pytest.param(("diagram", "bands", "--expr", '[["", true, true]]'), "malformed factor",
                     id="diagram-bool-relator-id"),
        pytest.param(("reduce-demo", "--count", "2", "--max-factors", "0"),
                     "argument --max-factors: must be positive",
                     id="reduce-demo-zero-max-factors"),
        pytest.param(("diagram", "build", "--max-factors", "0"),
                     "argument --max-factors: must be positive", id="diagram-zero-max-factors"),
        pytest.param(("pipeline", "--count", "2", "--min-distance", "-3"),
                     "argument --min-distance: must be nonnegative",
                     id="pipeline-negative-min-distance"),
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--max-level", "-1"),
                     "must be nonnegative", id="pipeline-negative-max-level"),
        pytest.param(("reduce-demo", "--count", "-1"), "must be nonnegative",
                     id="reduce-demo-negative-count"),
        pytest.param(("ball", "--radius", "-1"), "must be nonnegative",
                     id="ball-negative-radius"),
        pytest.param(("ball", "--radius", "2", "--budget", "-3"),
                     "argument --budget: must be nonnegative", id="ball-negative-budget"),
        pytest.param(("diagram", "build", "--expr", "[" * 3000 + "]" * 3000),
                     "maximum recursion depth", id="diagram-deeply-nested-expr"),
        # only the canonical token of a generator parses
        pytest.param(("normalize", "e01"), "unknown generator token: 'e01'",
                     id="normalize-noncanonical-token"),
        pytest.param(("f2p", "--m", "-1"), "must be nonnegative", id="f2p-negative-m"),
        pytest.param(("f2p", "--max-len", "-2"), "must be nonnegative",
                     id="f2p-negative-max-len"),
        pytest.param(("f2p", "--base", "aaa", "--word", "acAC", "--format", "dot"),
                     "unrecognized arguments", id="f2p-format"),
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--budget", "1"),
                     "unrecognized arguments", id="pipeline-budget"),
        pytest.param(("ball", "--radius", "1", "--seed", "5"), "unrecognized arguments",
                     id="ball-seed"),
        pytest.param(("diagram", "bands", "--format", "dot"), "unrecognized arguments",
                     id="diagram-format"),
        pytest.param(("pipeline", "--count", "5", "--min-distance", "1"),
                     "min_distance must be at least 3", id="pipeline-min-distance-below-floor"),
        pytest.param(("pipeline", "--base", "s", "--word", "acAC"), "not in the base group",
                     id="pipeline-base-not-in-base-group"),
        pytest.param(("f2p", "--base", "s", "--word", "aC"), "not in the base group",
                     id="f2p-base-not-in-base-group"),
        # the message names the basepoint, not a vertex reached during the rewrite
        pytest.param(("f2p", "--base", "s", "--word", "acAC"),
                     "not in the base group: SElement(ab='', cd='', tail='s')",
                     id="f2p-base-not-in-base-group-named"),
        # the rewriter's editor refuses a label that is not a letter, by its token
        pytest.param(("f2p", "--base", "aaa", "--word", "e1 E1"),
                     "label e1 is not a generator of gamma_1", id="f2p-word-not-letters"),
        pytest.param(("pipeline", "--base", "aaaa", "--word", "s e1 S E1"),
                     "label s is not a generator of gamma_1", id="pipeline-word-not-letters"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]', "--start", "s a a a a a a"),
                     "not in the base group", id="reduce-demo-start-not-in-base-group"),
        # a square at the identity has its band endpoints inside the dilated region
        pytest.param(("reduce-demo", "--expr", '[["", 41, 1]]', "--start", "aA"),
                     "a band endpoint lies inside the dilated region",
                     id="reduce-demo-band-endpoint-in-region"),
        # a flag the selected mode never reads
        pytest.param(("f2p", "--word", "acAC", "--max-len", "3"),
                     "--max-len is not read with --word", id="f2p-word-max-len"),
        pytest.param(("f2p", "--base", "aaa"), "--base is not read without --word",
                     id="f2p-suite-base"),
        pytest.param(("diagram", "bands", "--expr", '[["", 28, 1]]', "--seed", "3"),
                     "--seed is not read with --expr", id="diagram-expr-seed"),
        pytest.param(("diagram", "bands", "--expr", '[["", 28, 1]]', "--max-factors", "2"),
                     "--max-factors is not read with --expr", id="diagram-expr-max-factors"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]', "--seed", "3"),
                     "--seed is not read with --expr", id="reduce-demo-expr-seed"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]', "--max-factors", "2"),
                     "--max-factors is not read with --expr", id="reduce-demo-expr-max-factors"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]', "--count", "2"),
                     "--count is not read with --expr", id="reduce-demo-expr-count"),
        pytest.param(("reduce-demo", "--count", "2", "--start", "aaaa"),
                     "--start is not read without --expr", id="reduce-demo-batch-start"),
        pytest.param(("reduce-demo", "--count", "2", "--budget", "1"),
                     "--budget is not read without --expr", id="reduce-demo-batch-budget"),
        pytest.param(("reduce-demo", "--count", "2", "--with-timing"),
                     "--with-timing is not read without --expr",
                     id="reduce-demo-batch-with-timing"),
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--seed", "3"),
                     "--seed is not read with --word", id="pipeline-word-seed"),
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--count", "2"),
                     "--count is not read with --word", id="pipeline-word-count"),
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--min-distance", "4"),
                     "--min-distance is not read with --word", id="pipeline-word-min-distance"),
        pytest.param(("pipeline", "--count", "2", "--base", "aaa"),
                     "--base is not read without --word", id="pipeline-batch-base"),
        pytest.param(("pipeline", "--count", "2", "--max-level", "0"),
                     "--max-level is not read without --word", id="pipeline-batch-max-level"),
        pytest.param(("pipeline", "--count", "2", "--with-timing"),
                     "--with-timing is not read without --word", id="pipeline-batch-with-timing"),
        # given at its default value, an unread flag is still refused
        pytest.param(("pipeline", "--count", "2", "--max-level", "8"),
                     "--max-level is not read without --word",
                     id="pipeline-batch-default-max-level"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]', "--seed", "0"),
                     "--seed is not read with --expr", id="reduce-demo-expr-default-seed"),
        pytest.param(("f2p", "--base", "aaa", "--word", "acAC", "--max-len", "6"),
                     "--max-len is not read with --word", id="f2p-word-default-max-len"),
        pytest.param(("ends", "--r", "1", "--names", "gamma_1,gamma_1"),
                     "repeated complex name", id="ends-repeated-name"),
        pytest.param(("ends", "--r", "1,1", "--names", "gamma_1"), "repeated radius",
                     id="ends-repeated-radius"),
        pytest.param(("ends", "--gap", "0"), "argument --gap: must be positive",
                     id="ends-zero-gap"),
        pytest.param(("ends", "--gap", "-1"), "argument --gap: must be positive",
                     id="ends-negative-gap"),
        pytest.param(("ends", "--r", "1,,2"), "argument --r: must be comma-separated",
                     id="ends-empty-radius"),
        pytest.param(("ends", "--r", "1,-2"), "argument --r: must be comma-separated",
                     id="ends-negative-radius"),
        # gamma_h at r=1, R=3 runs out inside the radius-2 ball, or past it
        pytest.param(("ends", "--r", "1", "--names", "gamma_h", "--budget", "100"),
                     "gamma_h: radius-2 search exceeded 100 vertices",
                     id="ends-budget-inside-the-inner-ball"),
        pytest.param(("ends", "--r", "1", "--names", "gamma_h", "--budget", "1000"),
                     "gamma_h: radius-3 search exceeded 1000 vertices",
                     id="ends-budget-past-the-inner-ball"),
        pytest.param(("verify-cert", {"path": 5}), "'path'", id="cert-path-not-a-list"),
        pytest.param(("verify-cert", {"description": ["x"]}), "'description'",
                     id="cert-description-not-a-string"),
        # reduced after conversion to the stored F(a,b) projection, but not canonical
        pytest.param(("verify-cert", {"start": {"k": {"ab": "baA", "cd": "C"}, "tail": "a"}}),
                     "bad ab part: 'baA'", id="cert-start-not-canonical"),
        pytest.param(("verify-cert", {"start": {"k": {"ab": "", "cd": "cC"}, "tail": ""}}),
                     "bad cd part: 'cC'", id="cert-start-not-reduced"),
        pytest.param(("verify-cert", {"start": {"k": {"ab": 1, "cd": ""}, "tail": ""}}),
                     "malformed normal form", id="cert-start-part-not-a-string"),
        pytest.param(("verify-cert", {"moves": [["ins", 0]]}), "malformed move",
                     id="cert-truncated-move"),
        pytest.param(("verify-cert", {"moves": [["cell", False, 0, False, False, 2]]}),
                     "malformed move", id="cert-bool-move-field"),
        pytest.param(("verify-cert", {}, "--forbidden", {"radius": "x"}), "'radius'",
                     id="forbidden-radius-not-an-int"),
        pytest.param(("verify-cert", {}, "--forbidden", {"radius": -1}), "'radius'",
                     id="forbidden-negative-radius"),
        pytest.param(("verify-cert", {}, "--forbidden", {"radius": True}), "'radius'",
                     id="forbidden-radius-is-a-bool"),
        pytest.param(("verify-cert", {}, "--forbidden", {"radius": 1, "centers": 3}),
                     "'centers'", id="forbidden-centers-not-a-list"),
        pytest.param(("verify-cert", {}, "--forbidden", {"vertices": 5}), "'vertices'",
                     id="forbidden-vertices-not-a-list"),
        pytest.param(("verify-cert", {}, "--forbidden", [1]), "JSON object",
                     id="forbidden-not-an-object"),
    ],
)
def test_bad_input_exits_2_without_traceback(argv, message, tmp_path, capsys):
    # JSON arguments become files: a certificate patch, or a forbidden set
    argv = list(argv)
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            data = arg if argv[i - 1] == "--forbidden" else {**VALID_CERT, **arg}
            argv[i] = str(tmp_path / f"arg{i}.json")
            Path(argv[i]).write_text(json.dumps(data))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value at parse time
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_deeply_nested_json_files_exit_2(tmp_path, capsys):
    # written as raw text, since json.dumps cannot build this nesting either
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(VALID_CERT))
    for argv in (["verify-cert", str(deep)],
                 ["verify-cert", str(cert), "--forbidden", str(deep)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "maximum recursion depth" in err
        assert "Traceback" not in err
    proc = run_module("verify-cert", str(deep))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


# every optional flag of every subcommand; the shared ones (--out, --budget,
# --seed, --with-timing, --format) appear only where the handler reads them
SUBCOMMAND_FLAGS = {
    "verify-identities": {"--out"},
    "ends": {"--out", "--budget", "--r", "--names", "--gap"},
    "ball": {"--out", "--budget", "--format", "--complex", "--radius", "--center"},
    "f2p": {"--out", "--base", "--word", "--m", "--max-len"},
    "diagram": {"--out", "--seed", "--expr", "--max-factors"},
    "reduce-demo": {"--out", "--budget", "--seed", "--with-timing", "--expr", "--start",
                    "--complex", "--center", "--radius", "--count", "--max-factors"},
    "pipeline": {"--out", "--seed", "--with-timing", "--base", "--word", "--complex",
                 "--center", "--radius", "--count", "--min-distance", "--max-level"},
    "dump-egen-table": {"--out"},
    "verify-cert": {"--out", "--forbidden"},
    "normalize": {"--out"},
}
SHARED_FLAGS = {"--out", "--budget", "--seed", "--with-timing", "--format"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS
    assert sum(len(f & SHARED_FLAGS) for f in flags.values()) == 19


def test_mode_flags_are_flags_of_their_subcommand():
    # the mode table cannot name a flag the parser does not have
    for command, (selector, unread_with, unread_without) in MODE_FLAGS.items():
        assert {selector, *unread_with, *unread_without} <= SUBCOMMAND_FLAGS[command]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("pipeline", "--base", "aaa", "--word", "acAC"), id="pipeline"),
        pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]'), id="reduce-demo"),
    ],
)
def test_with_timing_adds_only_the_seconds(argv, capsys):
    code, plain = run_json(capsys, *argv)
    timed_code, timed = run_json(capsys, *argv, "--with-timing")
    assert code == timed_code == 0
    assert plain.pop("timing_seconds") is None
    seconds = timed.pop("timing_seconds")
    assert type(seconds) is float and seconds >= 0
    assert timed == plain


# sha256 of stdout, taken before the simplifications that must keep reports
# byte-identical; a digest that moves means a report changed
REPORT_DIGESTS = [
    pytest.param(("verify-identities",), 0,
                 "0dee998024d908ba87c44eb0f55f77dff93c4614302bf262c58f33dd014fb677",
                 id="verify-identities"),
    pytest.param(("dump-egen-table",), 0,
                 "5086bf9b7b24568ee5bf000ec8d9d5a843fb79215d9f2ce3c49294f10affa0a9",
                 id="dump-egen-table"),
    pytest.param(("ball", "--complex", "gamma_1", "--radius", "4"), 0,
                 "fb03d49332f705808f148a1217cc0de62699cc51eadeae8deac5cf7dfb5e5388",
                 id="ball-gamma_1"),
    pytest.param(("ball", "--complex", "free_ab", "--radius", "3", "--format", "dot"), 0,
                 "19f8dc1e5446d3379b7742e141116aa05ef1043943c7323f11897a1e2f528d14",
                 id="ball-free_ab-dot"),
    pytest.param(("ball", "--complex", "gamma_2", "--radius", "2", "--format", "dot"), 0,
                 "b6fdd73326ecbd141de0225ae022ae33f720a6daa721a63a8fc95a8c43dd5785",
                 id="ball-gamma_2-dot"),
    pytest.param(("ball", "--complex", "x", "--radius", "2", "--format", "dot"), 0,
                 "b847466f34a35fb574758df500d89754959b27d2d4f77831c607478fe00e4055",
                 id="ball-x-dot"),
    pytest.param(("diagram", "bands", "--expr", '[["", 28, 1], ["s d", 33, 1]]'), 0,
                 "2202634c3d43e252d33b69eb4eb874d0d30a553be84ece5a3d21db63fbe998a4",
                 id="diagram-bands"),
    pytest.param(("diagram", "render", "--seed", "7"), 0,
                 "4c7a130ff54e1e65bf6bb512852c84eb182072aabb33c63d11deeb4586c1fde3",
                 id="diagram-render"),
    pytest.param(("diagram", "build", "--seed", "7"), 0,
                 "d38d4f3c9c5e28ffb98728ae376f5e16fb90e6f246da653e6373998545742a85",
                 id="diagram-build"),
    pytest.param(("reduce-demo", "--count", "50", "--seed", "4"), 0,
                 "a422d160b6c796eeb739b882659ebbbf499d4e9e57f24a8819ae31a95e947e06",
                 id="reduce-demo-batch"),
    pytest.param(("pipeline", "--count", "100", "--seed", "9"), 0,
                 "1e272bc475cb927637b3a551ee026950dc4b82be2c5e243f71cd1e6bd9e648f8",
                 id="pipeline-batch"),
    pytest.param(("pipeline", "--base", "aaa", "--word", "acAC", "--radius", "1"), 0,
                 "2895d953e937f1456a1538e9cc21ec52bab72ff8d0d59179d0c379674ea372f8",
                 id="pipeline-single"),
    pytest.param(("pipeline", "--base", "abacdc", "--word", "ABAbabCDCdcdBABabaDCDcdc"), 0,
                 "eae67ee73934b86c385dff381a9fa484ccaf53292a440467028479458afbbb71",
                 id="pipeline-level-1"),
    pytest.param(("pipeline", "--base", "abacdc", "--word", "ABAbabCDCdcdBABabaDCDcdc",
                  "--max-level", "0"), 1,
                 "17e2b9a0a6feaf91da82f41627ebe4c7b61572056875559d700a7719f5dfedf5",
                 id="pipeline-fails-verification"),
    pytest.param(("reduce-demo", "--expr", '[["", 28, 1]]'), 0,
                 "f956ad57f849086547578bb39caa4ab4adfd4984ee7f05ec859cd03baa12e345",
                 id="reduce-demo-one-band"),
    pytest.param(("reduce-demo", "--expr", '[["", 28, 1], ["s d", 33, 1]]'), 0,
                 "6277f4332991f9f9ca0130f9b8524a5bfc14bac027d8410ddc789bd48cf347e7",
                 id="reduce-demo-three-bands"),
    pytest.param(("f2p", "--base", "aaa", "--word", "acAC", "--m", "2"), 0,
                 "6edd4f04ed98cf9a2b95ab9f5ffed7af5329709d808c78c2bd4c2f808ff2fb18",
                 id="f2p-single"),
    pytest.param(("ends",), 0,
                 "39b3d2e5f52e3c3102a77b7d46200524135eb973e782230893b950f78b072f3f",
                 id="ends"),
    pytest.param(("ends", "--gap", "1"), 0,
                 "5e56a087a40e3e76d4e66bd596010859f8f0a954c9e85cee2ba2a9061d5fe769",
                 id="ends-gap-1"),
    pytest.param(("ends", "--r", "0,4", "--names", "gamma_1,free_ab"), 0,
                 "038dfee5f6ee49e580b53c4b3235fb77ca4896dcdc6dc209cd39ad366ab4fd25",
                 id="ends-r-0-4-gamma_1-free_ab"),
    # labels pass through two grown layers on one-ended complexes
    pytest.param(("ends", "--r", "1", "--gap", "3", "--names", "gamma_k,gamma_h"), 0,
                 "db59d205eedd0d504222fb44d3508e25b1f9ee42dc399a6a525066ce87c1df74",
                 id="ends-gap-3-gamma_k-gamma_h"),
    pytest.param(("f2p", "--max-len", "4", "--m", "2"), 0,
                 "3edb4384501bf6c11091ea2e3ff5bb74ba5fb941722584562d5619c90b4dab71",
                 id="f2p-suite"),
]


@pytest.mark.parametrize("argv, exit_code, digest", REPORT_DIGESTS)
def test_report_digests_are_pinned(argv, exit_code, digest, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
