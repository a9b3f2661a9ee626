"""Command-line interface: exact plane-branch invariants as canonical JSON.

Five subcommands cover the library surface:

* ``semigroup``  — semigroup data from generators or from characteristic
  exponents (conductor, gaps, Puiseux pairs, genus).
* ``lambda``     — differential value sets of a branch, with witnesses
  for every value outside the semigroup.
* ``normalform`` — the reduced parametrization, the change log that
  produces it, and the stratum dimension bound.
* ``equiv``      — analytic-equivalence verdict for two branches.
* ``reproduce``  — one of the bundled classification suites.

Branch inputs are UTF-8 JSON files ({"v0": ..., "terms": [[e, "c"], ...]});
"-" reads stdin.  Output is canonical JSON on stdout (sorted keys, no
whitespace; ``--pretty`` indents instead), so equal inputs give equal
bytes.  Exit codes: 0 success, 1 reproduction mismatch, 2 invalid input,
3 internal error (a theory-backed check failed, so no result is printed).
Errors go to stderr as one JSON object, {"error": "..."}.  An internal
error in a reduction adds "repro": {"branch": ..., "changes": [...],
"k": ...}, the input branch, the changes applied so far and the order
whose step failed (null outside a step), so the failure can be replayed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .branch import BranchInputError, PuiseuxParam
from .catalog import EXAMPLE_IDS, load_samples, run_reproduction
from .normalform import decide_equivalence, to_normal_form
from .semigroup import char_data_from_exponents, char_exponents_from_generators
from .valuation import InternalError, lambda_set, zariski_invariant

_SET_KEYS = {
    "lambda": ("Lambda", "lambda_minus_gamma"),
    "lambda2": ("Lambda2", "lambda2_minus_gamma"),
    "lambda-prime": ("LambdaPrime", "lambda_prime_minus_gamma"),
}


def _emit(obj, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, sort_keys=True, indent=2)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _fail(message: str, code: int = 2, repro=None) -> int:
    err = {"error": message}
    if repro is not None:
        err["repro"] = repro
    sys.stderr.write(json.dumps(err, sort_keys=True, separators=(",", ":")) + "\n")
    return code


def _parse_ints(text: str, what: str):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BranchInputError(f"{what} must be comma-separated integers: {text!r}")
    return values


def _load_branch(path: str, extra: int) -> PuiseuxParam:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        raise BranchInputError(f"cannot read branch input {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise BranchInputError(f"branch input {path!r} is not valid JSON: {exc}")
    return PuiseuxParam.from_dict(data, extra=extra)


def cmd_semigroup(args) -> int:
    try:
        if args.generators is not None:
            beta = char_exponents_from_generators(_parse_ints(args.generators, "--generators"))
        else:
            beta = _parse_ints(args.beta, "--beta")
        cd = char_data_from_exponents(beta)
    except ValueError as exc:
        return _fail(str(exc))
    sg = cd.semigroup
    _emit(
        {
            "generators": list(sg.generators),
            "beta": list(cd.beta),
            "conductor": sg.conductor,
            "gaps": list(sg.gaps),
            "genus": cd.genus,
            "puiseux_pairs": [list(pair) for pair in cd.puiseux_pairs],
            "valid": True,
        },
        args.pretty,
    )
    return 0


def cmd_lambda(args) -> int:
    phi = _load_branch(args.branch, args.trunc_extra)
    kind, key = _SET_KEYS[args.set]
    vs = lambda_set(phi, kind)
    sg = phi.semigroup
    # finite_part lists the keys of the witness map, so each has a witness
    outside = [w for w in vs.finite_part if not sg.contains(w)]
    _emit(
        {
            "gamma": {"generators": list(sg.generators), "conductor": sg.conductor},
            key: outside,
            "zariski_lambda": zariski_invariant(phi),
            "witnesses": {str(w): vs.witness(w).to_dict() for w in outside},
        },
        args.pretty,
    )
    return 0


def cmd_normalform(args) -> int:
    phi = _load_branch(args.branch, args.trunc_extra)
    res = to_normal_form(phi)
    _emit(
        {
            "normal": res.normal.to_dict(),
            "lambda": res.lam,
            "free_exponents": list(res.free_exponents),
            "dimension_bound": res.dimension_bound,
            "changes": res.changes_as_dicts(),
        },
        args.pretty,
    )
    return 0


def cmd_equiv(args) -> int:
    phi1 = _load_branch(args.branch1, args.trunc_extra)
    phi2 = _load_branch(args.branch2, args.trunc_extra)
    verdict = decide_equivalence(phi1, phi2)
    _emit(verdict.to_dict(), args.pretty)
    return 0


def cmd_reproduce(args) -> int:
    samples = load_samples(args.seed_file)
    report = run_reproduction(args.example, samples)
    _emit(report, args.pretty)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="indented JSON output instead"
    )
    # only the subcommands that build a branch from a file take --trunc-extra
    branch_input = argparse.ArgumentParser(add_help=False, parents=[common])
    branch_input.add_argument(
        "--trunc-extra",
        type=int,
        default=0,
        metavar="N",
        help="extra working-precision head-room on top of conductor + 2 v0 + 1,"
        " at most that much again",
    )

    parser = argparse.ArgumentParser(
        prog="planebranch",
        description="Exact analytic invariants and normal forms of plane branches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "semigroup", parents=[common], help="semigroup data of an equisingularity class"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generators", help="comma-separated generators, e.g. 7,8")
    group.add_argument("--beta", help="comma-separated characteristic exponents")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser(
        "lambda", parents=[branch_input], help="differential value sets of a branch"
    )
    p.add_argument("branch", help="branch JSON file, or - for stdin")
    p.add_argument(
        "--set",
        choices=sorted(_SET_KEYS),
        default="lambda",
        help="which value class to report (default: lambda)",
    )
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser(
        "normalform", parents=[branch_input], help="reduce a branch to its normal form"
    )
    p.add_argument("branch", help="branch JSON file, or - for stdin")
    p.set_defaults(func=cmd_normalform)

    p = sub.add_parser(
        "equiv", parents=[branch_input], help="decide analytic equivalence of two branches"
    )
    p.add_argument("branch1", help="first branch JSON file")
    p.add_argument("branch2", help="second branch JSON file, or - for stdin")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser(
        "reproduce", parents=[common], help="run one bundled classification suite"
    )
    p.add_argument("example", choices=list(EXAMPLE_IDS), help="suite id")
    p.add_argument(
        "--seed-file",
        metavar="PATH",
        help="alternative sample-coefficient file (default: packaged copy)",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BranchInputError as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except InternalError as exc:
        return _fail(f"InternalError: {exc}", code=3, repro=exc.repro)


if __name__ == "__main__":
    raise SystemExit(main())
