"""Command-line front end.

Every subcommand prints one JSON (or DOT) report and exits 0 exactly when
all verifications it ran have passed.  Reports are deterministic for a
fixed seed so runs can be diffed byte for byte; timing is opt-in.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .complexes import (
    DEFAULT_BUDGET,
    ForbiddenRegion,
    SearchBudgetExceeded,
    ball,
    ball_to_dot,
    get_complex,
    sphere_sizes,
)
from .diagrams import ConjugateFactor, band_invariants, build_diagram, random_expression
from .elements import (
    S_IDENTITY,
    gen_to_token,
    parse_gens,
    s_from_json,
    s_from_word,
    s_to_json,
)
from .homotopy import certificate_from_json, certificate_to_json, verify_certificate
from .pipeline import (
    emit,
    run_ends_experiment,
    run_main_pipeline,
    run_pipeline_batch,
    run_reduce_batch,
    run_reduce_demo,
)
from .rewrite import rewrite_to_kernel_path, run_rewrite_suite
from .words import egen_table, kernel_identity_report, one_ended_reduction_report


def _nonnegative_int(text: str) -> int:
    """Argument type for sizes, radii, levels, distances and budgets: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_int(text: str) -> int:
    """Argument type for factor counts and the ends gap: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _radius_list(text: str) -> tuple[int, ...]:
    """Argument type for sphere radii: comma-separated nonnegative integers."""
    try:
        return tuple(_nonnegative_int(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated nonnegative integers, got {text!r}"
        ) from None


def _parse_region(args) -> ForbiddenRegion:
    spec = get_complex(args.complex)
    centers = tuple(s_from_word(w) for w in args.center) or (S_IDENTITY,)
    return ForbiddenRegion(spec, centers, args.radius)


def _load_forbidden(path: str):
    """Read a forbidden set: either a ball description or explicit vertices."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a forbidden-set file must be a JSON object")
    if "radius" not in data:
        if not isinstance(data.get("vertices"), list):
            raise ValueError("a forbidden-set file needs 'radius' or a list of 'vertices'")
        return frozenset(s_from_json(v) for v in data["vertices"])
    radius, centers = data["radius"], data.get("centers", [s_to_json(S_IDENTITY)])
    spec_name = data.get("complex", "x")
    if not (type(radius) is int and radius >= 0 and isinstance(centers, list)
            and isinstance(spec_name, str)):
        raise ValueError("a forbidden ball needs a nonnegative integer 'radius',"
                         " a list of 'centers' and a string 'complex'")
    return ForbiddenRegion(get_complex(spec_name), tuple(map(s_from_json, centers)), radius)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, ok)
# ---------------------------------------------------------------------------

def cmd_verify_identities(args):
    kernel = kernel_identity_report()
    reduction = one_ended_reduction_report()
    payload = {
        "kind": "verify-identities",
        "kernel_identities": kernel,
        "one_ended_reduction": reduction,
        "ok": bool(kernel["ok"] and reduction["ok"]),
    }
    return payload, payload["ok"]


def cmd_ends(args):
    names = tuple(args.names.split(","))
    report = run_ends_experiment(
        r_values=args.r, names=names, gap=args.gap, budget=args.budget
    )
    return report, True


def cmd_ball(args):
    spec = get_complex(args.complex)
    center = s_from_word(args.center)
    dist = ball(spec, args.radius, center, budget=args.budget)
    if args.format == "dot":
        return ball_to_dot(spec, dist), True
    payload = {
        "kind": "ball",
        "complex": spec.name,
        "center": s_to_json(center),
        "radius": args.radius,
        "size": len(dist),
        "sphere_sizes": sphere_sizes(dist),
    }
    return payload, True


def cmd_f2p(args):
    if args.word is None:
        report = run_rewrite_suite(max_len=args.max_len, m=args.m)
        return report, bool(report["all_verified"])
    base = s_from_word(args.base)
    region = frozenset()
    if args.m is not None:
        region = ForbiddenRegion(get_complex("gamma_1"), (S_IDENTITY,), args.m)
    report = rewrite_to_kernel_path(
        base, parse_gens(args.word), forbidden=region
    )
    payload = {
        "kind": "f2p",
        "base": s_to_json(base),
        "word": args.word,
        "ball_radius": args.m,
        "kpath": " ".join(gen_to_token(g) for g in report.certificate.result),
        "case_trace": report.cases,
        "pair_count": report.pair_count,
        "fallback_partner_used": report.fallback_partner_used,
        "min_original_distance": report.min_original_distance,
        "min_swept_distance": report.min_swept_distance,
        "verified": report.verified,
        "certificate": certificate_to_json(report.certificate),
    }
    return payload, report.verified


def _expression(args):
    """Factors from --expr, or a seeded random expression without it."""
    if args.expr is None:
        return random_expression(random.Random(args.seed), max_factors=args.max_factors)
    data = json.loads(args.expr)
    if not isinstance(data, list):
        raise ValueError("--expr must be a JSON list of factors")
    factors = []
    for item in data:
        if not (
            isinstance(item, list)
            and len(item) == 3
            and isinstance(item[0], str)
            # bool is a subclass of int, but JSON true/false is not an id or a sign
            and all(type(x) is int for x in item[1:])
        ):
            raise ValueError(f"malformed factor {item!r}: need [conjugator, relator_id, sign]")
        conj, rid, sign = item
        factors.append(ConjugateFactor(parse_gens(conj), rid, sign))
    return factors


def cmd_diagram(args):
    dia = build_diagram(_expression(args))
    if args.mode == "render":
        return dia.to_dot(), True
    if args.mode == "bands":
        return {"kind": "diagram-bands", **band_invariants(dia)}, True
    return dia.to_json(), True


def cmd_reduce_demo(args):
    region = _parse_region(args)
    if args.expr is None:
        report = run_reduce_batch(
            args.count, seed=args.seed, region=region, max_factors=args.max_factors
        )
        return report, bool(report["all_verified"])
    start = s_from_word(args.start) if args.start else None
    report = run_reduce_demo(
        _expression(args),
        start=start,
        region=region,
        budget=args.budget,
        with_timing=args.with_timing,
    )
    return report, report.verified


def cmd_pipeline(args):
    region = _parse_region(args)
    if args.word is None:
        report = run_pipeline_batch(
            args.count, seed=args.seed, region=region, min_distance=args.min_distance
        )
        return report, bool(report["all_verified"])
    start = s_from_word(args.base)
    report = run_main_pipeline(
        start,
        parse_gens(args.word),
        region=region,
        max_level=args.max_level,
        with_timing=args.with_timing,
    )
    return report, report.verified


def cmd_dump_egen_table(args):
    return {"kind": "egen-table", "generators": egen_table()}, True


def cmd_verify_cert(args):
    with open(args.file) as fh:
        cert = certificate_from_json(json.load(fh))
    forbidden = _load_forbidden(args.forbidden) if args.forbidden else frozenset()
    res = verify_certificate(cert, forbidden)
    payload = {
        "kind": "verify-cert",
        "complex": cert.complex_name,
        "ok": res.ok,
        "reason": res.reason,
        "moves_checked": res.moves_checked,
        "swept_vertices": len(res.swept),
        "end": s_to_json(res.end) if res.end is not None else None,
    }
    return payload, res.ok


def cmd_normalize(args):
    element = s_from_word(args.word)
    return {"kind": "normalize", "word": args.word, "element": s_to_json(element)}, True


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    out = _flag("--out", help="write the report to a file instead of stdout")
    budget = _flag("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
                   help="search budget in vertices")
    seed = _flag("--seed", type=int, default=0, help="random seed")
    timing = _flag("--with-timing", action="store_true",
                   help="include wall-clock timing (breaks byte-stability)")
    expression = _flag("--expr", help="JSON list of [conjugator, relator_id, sign]"
                       " factors; omit for seeded random ones")
    expression.add_argument("--max-factors", type=_positive_int, default=4,
                            help="random mode: maximum factor count")
    region = _flag("--complex", default="x", help="complex of the forbidden ball")
    region.add_argument("--center", action="append", default=[],
                        help="forbidden ball center (repeatable)")
    region.add_argument("--radius", type=_nonnegative_int, default=1,
                        help="forbidden ball radius")

    parser = argparse.ArgumentParser(
        prog="stallings",
        description="Exact computations in Stallings' group and its kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identities", parents=[out],
                       help="check the rewriting and reduction identities")
    p.set_defaults(handler=cmd_verify_identities)

    p = sub.add_parser("ends", parents=[out, budget],
                       help="sphere-complement component counts")
    p.add_argument("--r", type=_radius_list, default="1,2,3",
                   help="comma-separated sphere radii")
    p.add_argument("--names", default="gamma_k,gamma_1,gamma_h,free_ab")
    p.add_argument("--gap", type=_positive_int, default=2,
                   help="extra radius of the enclosing ball")
    p.set_defaults(handler=cmd_ends)

    p = sub.add_parser("ball", parents=[out, budget], help="BFS ball of a complex")
    p.add_argument("--complex", default="gamma_1")
    p.add_argument("--radius", type=_nonnegative_int, required=True)
    p.add_argument("--center", default="", help="center as a word (default identity)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=cmd_ball)

    p = sub.add_parser("f2p", parents=[out],
                       help="rewrite a zero-sum path to a kernel path")
    p.add_argument("--base", default="", help="basepoint as a word")
    p.add_argument("--word", help="edge labels; omit to run the whole suite")
    p.add_argument("--m", type=_nonnegative_int, default=None,
                   help="forbidden ball radius around the identity")
    p.add_argument("--max-len", type=_nonnegative_int, default=6,
                   help="suite mode: maximum word length")
    p.set_defaults(handler=cmd_f2p)

    p = sub.add_parser("diagram", parents=[out, seed, expression],
                       help="build a conjugated-relator diagram")
    p.add_argument("mode", choices=("build", "bands", "render"))
    p.set_defaults(handler=cmd_diagram)

    p = sub.add_parser("reduce-demo", parents=[out, budget, seed, timing, expression, region],
                       help="eliminate stable-letter bands from a diagram boundary")
    p.add_argument("--start", default="", help="basepoint as a word")
    p.add_argument("--count", type=_nonnegative_int, default=50, help="batch size")
    p.set_defaults(handler=cmd_reduce_demo)

    p = sub.add_parser("pipeline", parents=[out, seed, timing, region],
                       help="contract a far loop while avoiding a forbidden ball")
    p.add_argument("--base", default="", help="basepoint as a word")
    p.add_argument("--word", help="loop labels; omit to run a random batch")
    p.add_argument("--count", type=_nonnegative_int, default=100, help="batch size")
    p.add_argument("--min-distance", type=_nonnegative_int, help="batch mode: vertex"
                   " distance floor (default: one past the region's base exclusion radius)")
    p.add_argument("--max-level", type=_nonnegative_int, default=8,
                   help="largest stable-letter translation level to try")
    p.set_defaults(handler=cmd_pipeline)

    p = sub.add_parser("dump-egen-table", parents=[out],
                       help="the kernel generator table")
    p.set_defaults(handler=cmd_dump_egen_table)

    p = sub.add_parser("verify-cert", parents=[out],
                       help="replay a certificate file")
    p.add_argument("file", help="certificate JSON file")
    p.add_argument("--forbidden",
                   help="JSON file: ball {complex, centers, radius} or {vertices}")
    p.set_defaults(handler=cmd_verify_cert)

    p = sub.add_parser("normalize", parents=[out],
                       help="normal form of a word over a, b, c, d, s")
    p.add_argument("word")
    p.set_defaults(handler=cmd_normalize)

    parser.set_defaults(subcommands=sub.choices)
    return parser


# per subcommand with two modes: the flag that selects the mode, then the
# flags the mode never reads when that flag is given and when it is absent
MODE_FLAGS = {
    "f2p": ("--word", ("--max-len",), ("--base",)),
    "diagram": ("--expr", ("--seed", "--max-factors"), ()),
    "reduce-demo": ("--expr", ("--seed", "--max-factors", "--count"),
                    ("--start", "--budget", "--with-timing")),
    "pipeline": ("--word", ("--seed", "--count", "--min-distance"),
                 ("--base", "--max-level", "--with-timing")),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.command in MODE_FLAGS:
        selector, unread_with, unread_without = MODE_FLAGS[args.command]
        given = getattr(args, selector[2:]) is not None
        # a flag left out keeps its placeholder: argparse sets only missing defaults
        unread = {f[2:].replace("-", "_"): f for f in (unread_with if given else unread_without)}
        sub, unset = args.subcommands[args.command], object()
        explicit = sub.parse_args(argv[argv.index(args.command) + 1 :],
                                  argparse.Namespace(**dict.fromkeys(unread, unset)))
        for dest, flag in unread.items():
            if getattr(explicit, dest) is not unset:
                sub.error(f"{flag} is not read {'with' if given else 'without'} {selector}")
    try:
        payload, ok = args.handler(args)
    except (ValueError, KeyError, OSError, RecursionError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
