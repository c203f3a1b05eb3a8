"""Command-line front end for the toolkit.

One executable, seven subcommands:

    classify      enumerate and classify quantum parameter matrices
    build-table   compute the 625 x 625 structure-constant table
    verify        check associativity of a stored table
    fiber         center/radical analysis of a specialized fiber algebra
    hilbert       Hilbert polynomial and sheaf cohomology of a twist multiset
    normal-form   rewrite a generator word to the standard monomial basis
    report        the full reproduction suite as one JSON document

All input and output is JSON.  Output is deterministic: payloads are
serialized with sorted keys and contain no timings or machine state, so
identical configuration (and seed, for sampled verification) gives
byte-identical bytes.  Failures produce a machine-readable error record on
stderr and a nonzero exit status: 2 for usage and parse errors, 3 for
precondition violations, 4 for an exceeded verification budget, 5 for a
failed internal consistency check (such as the two center computations
disagreeing), and 1 for a verification that ran but found violations; an
error's kind decides its status, in _EXIT_STATUS.  `--help` prints the usage
text to stdout and returns 0, and an input file that is not a valid matrix
or table document is a parse error that names the file.

main(argv, stdout, stderr) is the one entry point, for the console script
and for programmatic use: each subcommand's parser carries its handler, and
the handler reads the parsed options, so every option and its default is
declared once, in the parser.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import List, Optional, Tuple

from . import cohomology, fiber, indices, qmatrix, rewrite, structure
from .errors import PreconditionError, ToolkitError

__all__ = ["main"]

# exit status of each failure kind; 1 is a verification that found violations
_EXIT_STATUS = {"usage": 2, "parse": 2, "precondition": 3, "budget": 4, "internal": 5}


class _CliError(ToolkitError):
    """A usage or parse failure, with the input file and JSON position if any."""

    def __init__(self, kind: str, message: str, path: Optional[str] = None,
                 position: Optional[dict] = None):
        super().__init__(message)
        self.kind = kind
        self.path = path
        self.position = position


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load(path: str, build, what: str):
    """build(document) for the JSON in path; any failure is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError("parse", "cannot read %s: %s" % (path, exc.strerror or exc), path=path)
    except UnicodeDecodeError as exc:
        raise _CliError("parse", "%s is not UTF-8 text: %s" % (path, exc.reason), path=path)
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise _CliError("parse", "invalid JSON in %s: %s" % (path, exc.msg), path=path,
                        position={"line": exc.lineno, "col": exc.colno})
    except RecursionError:
        raise _CliError("parse", "JSON in %s is nested too deeply" % path, path=path)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError("parse", "not a %s in %s: %s" % (what, path, exc), path=path)


def _load_matrix(path: str) -> qmatrix.QMatrix:
    return _load(path, qmatrix.QMatrix, "5x5 integer matrix")


def _load_table(path: str) -> structure.StructureTable:
    return _load(path, structure.StructureTable.from_json, "structure table")


def _parse_actions(text: Optional[str]):
    if text is None:
        return set(qmatrix.ALL_ACTIONS)
    names = {tok.strip() for tok in text.split(",") if tok.strip()}
    bad = names - set(qmatrix.ALL_ACTIONS)
    if bad or not names:
        raise _CliError("usage", "actions must be a nonempty subset of %s"
                        % (",".join(qmatrix.ALL_ACTIONS),))
    return names


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the output path must not be empty")
    return text


def _parse_word(text: str) -> Tuple[int, ...]:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        word = tuple(int(tok) for tok in parts)
    except ValueError:
        raise _CliError("usage", "word must be comma-separated generator letters, got %r"
                        % (text,))
    return word


# ---------------------------------------------------------------------------
# command handlers: each reads the parsed options and returns
# (payload, exit_code, [(path, text), ...])


def _cmd_classify(args: argparse.Namespace):
    actions = _parse_actions(args.actions)
    report = qmatrix.classify()
    payload = report.to_json()
    artifacts = []
    if args.actions is not None and actions != set(qmatrix.ALL_ACTIONS):
        reps = qmatrix.orbit_representatives(actions)
        payload["selected_actions"] = sorted(actions)
        payload["orbit_count_selected_actions"] = len(reps)
        selected = [m.to_json() for m in reps]
    else:
        selected = payload["canonical_representatives"]
    if args.emit_matrices:
        artifacts.append((args.emit_matrices, _dumps(selected)))
    return payload, 0, artifacts


def _cmd_build_table(args: argparse.Namespace):
    matrix = _load_matrix(args.matrix)
    table = structure.build_table(matrix)
    text = json.dumps(table.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    payload = {
        "written": args.out,
        "source_matrix": matrix.to_json(),
        "entries": 625 * 625,
    }
    return payload, 0, [(args.out, text)]


def _cmd_verify(args: argparse.Namespace):
    table = _load_table(args.table)
    report = structure.verify_associativity(
        table, args.mode, seed=args.seed,
        budget_seconds=args.budget_seconds)
    return report.to_json(), 0 if report.ok else 1, []


def _cmd_fiber(args: argparse.Namespace):
    table = _load_table(args.table)
    point = fiber.FiberPoint.parse(args.point)
    algebra = fiber.specialize(table, point)
    radical_dim = fiber.radical_dim(algebra)
    payload = {
        "point": point.to_json(),
        "center_dim": fiber.center_dim(algebra),
        "radical_dim": radical_dim,
        "semisimple": radical_dim == 0,
    }
    return payload, 0, []


def _cmd_hilbert(args: argparse.Namespace):
    twists = cohomology.TwistMultiset.parse(args.twists)
    poly = cohomology.hilbert_polynomial(twists)
    payload = {
        "twists": twists.to_json(),
        "polynomial": poly.to_json(),
    }
    if args.at is not None:
        payload["at"] = args.at
        payload["value"] = str(poly(args.at))
    if args.cohomology:
        window = [args.at] if args.at is not None else list(range(-5, 6))
        payload["cohomology"] = [
            {"n": n, "h": list(cohomology.sheaf_cohomology(twists, n)),
             "euler": cohomology.euler_characteristic(twists, n)}
            for n in window]
    return payload, 0, []


def _cmd_normal_form(args: argparse.Namespace):
    matrix = _load_matrix(args.matrix)
    word = _parse_word(args.word)
    # t_0^(5k) has C(k+3, 3) standard terms; refuse over 10,000 (2 MB of JSON)
    terms = math.comb(word.count(0) // 5 + 3, 3)
    if terms > 10_000:
        raise PreconditionError("word expands into %d standard terms, more than 10000" % terms)
    try:
        element = rewrite.normal_form(word, matrix)
    except PreconditionError:
        raise
    except ValueError as exc:
        raise _CliError("usage", str(exc))
    payload = {
        "word": list(word),
        "terms": element.to_json(),
    }
    return payload, 0, []


def _cmd_report(args: argparse.Namespace):
    base = qmatrix.canonical_generic_representative()
    table = structure.build_table(base)
    # first, so that a refused seed stops the report before its other work
    sampled = None if args.seed is None else structure.verify_associativity(
        table, "sampled=100000", seed=args.seed)
    classification = qmatrix.classify()
    certificate = structure.cy_certificate(table)

    fifth_powers = [rewrite.normal_form((i,) * 5, base) for i in range(5)]
    relation_sum = fifth_powers[0]
    for el in fifth_powers[1:]:
        relation_sum = relation_sum + el
    centrality = {
        "fifth_power_central": [rewrite.is_central(el, base) for el in fifth_powers],
        "defining_relation_vanishes": not relation_sum,
        "generator_central": rewrite.is_central(rewrite.AlgElement.generator(0), base),
    }

    twists = cohomology.algebra_twist_multiset()
    poly = cohomology.hilbert_polynomial(twists)
    graded = [rewrite.graded_dimension(n) for n in range(11)]
    dims = {
        "graded_dimensions": graded,
        "hilbert_matches_graded": {
            str(n): poly(n) == rewrite.graded_dimension(5 * n)
            for n in range(1, 4)
        },
        "euler_at_zero": int(poly(0)),
        "dimension_at_zero": rewrite.graded_dimension(0),
    }
    h0 = cohomology.sheaf_cohomology(twists, 0)
    coh = {
        "hilbert_polynomial": poly.to_json(),
        "weight_histogram": list(indices.weight_histogram()),
        "h_at_zero": list(h0),
        "euler_matches_polynomial": all(
            cohomology.euler_characteristic(twists, n) == poly(n)
            for n in range(-5, 11)),
        "section_sum_matches_graded": all(
            cohomology.section_dimension_sum(twists, n) == rewrite.graded_dimension(5 * n)
            for n in range(0, 4)),
    }

    payload = {
        "classification": classification.to_json(),
        "cy_certificate": certificate.to_json(),
        "centrality": centrality,
        "dimensions": dims,
        "cohomology": coh,
    }
    if sampled is not None:
        payload["sampled_verification"] = sampled.to_json()
    return payload, 0, []


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage and exits; surface a typed error instead
    def error(self, message):
        raise _CliError("usage", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfermat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify quantum parameter matrices")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("--actions", default=None,
                   help="comma-separated subset of scale,permute,twist")
    p.add_argument("--emit-matrices", type=_out_path, default=None,
                   metavar="OUT.json", help="write canonical representatives here")

    p = sub.add_parser("build-table", help="build the structure-constant table")
    p.set_defaults(handler=_cmd_build_table)
    p.add_argument("--matrix", required=True, help="5x5 integer matrix JSON file")
    p.add_argument("--out", type=_out_path, required=True, help="destination table JSON file")

    p = sub.add_parser("verify", help="verify associativity of a stored table")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--table", required=True, help="table JSON file")
    p.add_argument("--mode", default="exact",
                   help="exact | full | sampled=N (default exact)")
    p.add_argument("--seed", type=int, default=None,
                   help="nonnegative seed, required for sampled mode")
    p.add_argument("--budget-seconds", type=float, default=600.0,
                   help="abort full or sampled mode after this many seconds; "
                        "a nonnegative number (default 600)")

    p = sub.add_parser("fiber", help="analyze the fiber algebra at a point")
    p.set_defaults(handler=_cmd_fiber)
    p.add_argument("--table", required=True, help="table JSON file")
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates summing to zero")

    p = sub.add_parser("hilbert", help="Hilbert polynomial of a twist multiset")
    p.set_defaults(handler=_cmd_hilbert)
    p.add_argument("--twists", required=True,
                   help='multiset like "0:1,-1:121,-2:381,-3:121,-4:1"')
    p.add_argument("--at", type=int, default=None, help="evaluate at this twist")
    p.add_argument("--cohomology", action="store_true",
                   help="include cohomology dimension tables")

    p = sub.add_parser("normal-form", help="rewrite a generator word")
    p.set_defaults(handler=_cmd_normal_form)
    p.add_argument("--matrix", required=True, help="5x5 integer matrix JSON file")
    p.add_argument("--word", required=True,
                   help="comma-separated generator letters like 1,0,3,3")

    p = sub.add_parser("report", help="run the full reproduction suite")
    p.set_defaults(handler=_cmd_report)
    p.add_argument("--seed", type=int, default=None,
                   help="also run seeded sampled verification")

    return parser


def main(argv: Optional[List[str]] = None, stdout=None, stderr=None) -> int:
    """Run one command line (default sys.argv[1:]) and return the exit status.

    The payload, or the usage text for --help, goes to stdout and an error
    record to stderr, sys.stdout and sys.stderr unless given."""
    out = stdout if stdout is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = _build_parser().parse_args(argv)
        payload, code, artifacts = args.handler(args)
        for path, text in artifacts:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _CliError("usage", "cannot write %s: %s" % (path, exc.strerror or exc))
    except SystemExit as exc:
        # argparse exits, status 0, after printing the --help text
        return exc.code
    except ToolkitError as exc:
        err = {"kind": exc.kind, "message": str(exc)}
        for key in ("path", "position"):
            if getattr(exc, key, None) is not None:
                err[key] = getattr(exc, key)
        (stderr if stderr is not None else sys.stderr).write(_dumps({"error": err}))
        return _EXIT_STATUS[exc.kind]
    out.write(_dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
