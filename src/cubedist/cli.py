"""Command-line entry point.

Subcommands: report (determinant invariants of a point-set file), tree
(tree determinant and inverse entries), negtype (supremal negative
type), search (conjecture scan), verify (exhaustive identity suites).
Structured output is JSON with rationals as strings, so exactness
survives serialization. Exit codes: 0 success, 1 search violations or
failed verification, 2 parse errors and files that cannot be read or
written, 3 domain errors, 4 budget refusals, 5 a failed internal
invariant.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import identities, negtype, search, trees, verify
from .cube import parse_point_set_file
from .errors import CubedistError, InvariantError
from .trees import parse_tree_file


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_report(args) -> int:
    s = parse_point_set_file(args.input)
    _emit(identities.full_report(s).to_json_dict(), args.output)
    return 0


def _cmd_tree(args) -> int:
    t = parse_tree_file(args.input)
    direct = trees.tree_det_direct(t)
    formula = trees.graham_pollak_det(t)
    if direct != formula:
        raise InvariantError(f"tree determinant {direct} != closed form {formula}")
    payload = {
        "vertex_count": t.vertex_count,
        "n": t.n,
        "det": str(direct),
        "dinv_ones": str(trees.tree_dinv_ones(t)),
        "inverse_entries": trees.graham_lovasz_inverse(t).to_strings(),
    }
    _emit(payload, args.output)
    return 0


def _cmd_negtype(args) -> int:
    s = parse_point_set_file(args.input)
    report = negtype.sanchez_wp(s, cap=args.cap, tol=args.tol, grid=args.grid)
    _emit(report.to_json_dict(), args.output)
    return 0


def _cmd_search(args) -> int:
    if args.mode == search.MODE_EXHAUSTIVE:
        result = search.min_dinv_ones(args.n, args.m, budget=args.budget, workers=args.workers)
    else:
        result = search.random_probe(args.n, args.m, args.trials, args.seed, budget=args.budget)
    _emit(result.to_json_dict(), args.output)
    return 1 if result.violations else 0


def _cmd_verify(args) -> int:
    reports = verify.run_default_verification(
        n_cap=args.n_cap,
        tree_cap=args.tree_cap,
        random_dims=tuple(args.random_dim or ()),
        random_samples=args.random_samples,
        seed=args.seed,
    )
    ok = True
    for report in reports:
        for line in report.lines():
            print(line)
        ok = ok and report.ok
    print("verification: " + ("all identities hold" if ok else "FAILURES DETECTED"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubedist",
        description="Exact distance-matrix invariants of finite subsets of the Hamming cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="determinant invariants of a point-set file")
    p.add_argument("input", help="point-set file: 'n count' header, then 0/1 rows")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("tree", help="tree determinant, inverse entries, <D^-1 1,1>")
    p.add_argument("input", help="tree file: vertex count, then 'u v' edge lines")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("negtype", help="supremal negative type of a point set")
    p.add_argument("input", help="point-set file")
    p.add_argument("--cap", type=float, default=negtype.DEFAULT_CAP, help="scan cap (default 16)")
    p.add_argument("--tol", type=float, default=negtype.DEFAULT_TOL, help="bisection/zero tolerance")
    p.add_argument("--grid", type=float, default=negtype.DEFAULT_GRID, help="scan step (default 1/8)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_negtype)

    p = sub.add_parser("search", help="min <D^-1 1,1> over subsets of H_n")
    p.add_argument("--n", type=int, required=True, help="cube dimension")
    p.add_argument("--m", type=int, required=True, help="points besides the origin")
    p.add_argument("--mode", choices=[search.MODE_EXHAUSTIVE, search.MODE_RANDOM],
                   default=search.MODE_EXHAUSTIVE)
    p.add_argument("--trials", type=int, default=10_000, help="samples in random mode")
    p.add_argument("--seed", type=int, default=0, help="RNG seed in random mode")
    p.add_argument("--workers", type=int, default=1, help="parallel workers in exhaustive mode")
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET,
                   help="refuse enumerations (or random trials) larger than this")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the exhaustive identity suites")
    p.add_argument("--n-cap", type=int, default=4, help="exhaustive identity sweep up to this n")
    p.add_argument("--tree-cap", type=int, default=8, help="tree sweep up to this many vertices")
    p.add_argument("--random-dim", type=int, action="append",
                   help="also run a seeded random identity sweep at this n (repeatable)")
    p.add_argument("--random-samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubedistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
