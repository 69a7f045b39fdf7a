"""Command-line front door.

Exit codes are uniform across subcommands: 0 the checked property holds or a
witness was found, 1 it fails or nothing was found, 2 malformed usage or
input, 3 a search budget or enumeration guard was exceeded, 4 an internal
inconsistency (a result contradicting a proven statement, i.e. a bug).
Input errors go to standard error with the offending token; results go to
standard output, as labeled ``key: value`` lines or as JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import IO, Callable

from .checks import pair_theorem_checks, pi_db_checks, shortest_checks, thue_checks
from .errors import DomainError, InconsistencyError, ParseError, ResourceError
from .explorer import (
    SCAN_TARGETS,
    _least_alphabet,
    check_enumeration,
    conjecture_scan,
    enumerate_canonical_patterns,
    search_1uniform,
    search_sigma_ij,
)
from .generators import (
    debruijn_patterns,
    debruijn_word,
    double_letters,
    enumerate_debruijn,
    exponent_pattern,
    shortest_non_fixed_point,
    squares_pattern,
    thue_word,
)
from .morphisms import Morphism
from .solver import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    FixedPoint,
    NoWitness,
    NotFixedPoint,
    Witness,
    fixed_point_verdict,
    is_ambiguous,
    is_fixed_point,
)
from .words import parse_pattern

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INCONSISTENT = 4


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _span(text: str) -> range:
    """Inclusive integer range: either a single number or ``A..B``."""
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    if first > last:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(first, last + 1)


def _open_output(path: str) -> IO[str]:
    # only the open is caught: a closed pipe on a later write is run()'s to handle
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args: argparse.Namespace, record: dict) -> None:
    """Print the record as JSON with ``--json``, else as ``key: value`` lines:
    a None value is left out, except that the first key reads ``none``, and
    a list prints space-separated."""
    if args.json:
        print(json.dumps(record))
        return
    for position, (key, value) in enumerate(record.items()):
        if value is None and position:
            continue
        if isinstance(value, list):
            value = " ".join(map(str, value))
        print(f"{key}: {'none' if value is None else value}")


# verdict name and exit code of each decision outcome
_OUTCOMES = {
    Witness: ("ambiguous", EXIT_FAILS),
    NoWitness: ("unambiguous", EXIT_HOLDS),
    FixedPoint: ("fixed-point", EXIT_HOLDS),
    NotFixedPoint: ("not-fixed-point", EXIT_FAILS),
    BudgetExhausted: ("budget-exhausted", EXIT_RESOURCE),
}


Verdict = Witness | NoWitness | FixedPoint | NotFixedPoint | BudgetExhausted


def _report(args: argparse.Namespace, verdict: Verdict, key: str, certificate: object) -> int:
    """Emit a decision's verdict, its certificate under ``key`` (absent when
    the budget ran out) and its node count; return the verdict's exit code."""
    name, code = _OUTCOMES[type(verdict)]
    record: dict = {"verdict": name}
    if not isinstance(verdict, BudgetExhausted):
        record[key] = None if certificate is None else str(certificate)
    record["nodes"] = verdict.nodes_explored
    _emit(args, record)
    return code


def _cmd_check_ambiguity(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.pattern)
    sigma = Morphism.parse(args.morphism)
    verdict = is_ambiguous(
        sigma, pattern, allow_erasing=not args.nonerasing_only, budget=args.budget
    )
    return _report(args, verdict, "witness", getattr(verdict, "tau", None))


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    verdict = is_fixed_point(parse_pattern(args.pattern), budget=args.budget)
    return _report(args, verdict, "morphism", getattr(verdict, "phi", None))


def _cmd_search_sigma_ij(args: argparse.Namespace) -> int:
    found = search_sigma_ij(parse_pattern(args.pattern), budget=args.budget)
    if found is None:
        _emit(args, {"pair": None, "morphism": None})
        return EXIT_FAILS
    i, j, sigma = found
    _emit(args, {"pair": [i, j], "morphism": str(sigma)})
    return EXIT_HOLDS


def _cmd_search_uniform(args: argparse.Namespace) -> int:
    sigma = search_1uniform(parse_pattern(args.pattern), args.alphabet_size, budget=args.budget)
    _emit(args, {"morphism": None if sigma is None else str(sigma)})
    return EXIT_FAILS if sigma is None else EXIT_HOLDS


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "thue":
        print(thue_word(args.length))
    elif args.family == "doubled":
        print(double_letters(thue_word(args.length)))
    elif args.family == "alpha-m":
        print(squares_pattern(args.m))
    elif args.family == "exponent":
        try:
            exponents = [int(tok) for tok in args.beta.replace(".", " ").split()]
        except ValueError:
            raise ParseError(f"exponent list must be integers, got {args.beta!r}") from None
        print(exponent_pattern(exponents))
    elif args.family == "shortest":
        pattern, sigma = shortest_non_fixed_point(args.n)
        print(pattern)
        print(sigma)
    elif args.family == "debruijn":
        if args.enumerate:
            for word in enumerate_debruijn(args.k, args.n):
                print(word)
        else:
            print(debruijn_word(args.k, args.n))
    else:
        for item in debruijn_patterns(args.k):
            print(
                json.dumps(
                    {
                        "pattern": str(item.pattern),
                        "morphism": str(item.natural_morphism),
                        "word": item.source_word,
                    }
                )
            )
    return EXIT_HOLDS


def _cmd_scan(args: argparse.Namespace) -> int:
    records = findings = budget_hits = 0
    # the scan checks its arguments here, before the output file is truncated
    scan = conjecture_scan(args.max_len, args.target, budget=args.budget, workers=args.workers)
    with _open_output(args.out) as sink:
        for record in scan:
            sink.write(record.to_json() + "\n")
            records += 1
            findings += record.finding
            budget_hits += record.budget_hit
    print(f"records: {records}")
    print(f"findings: {findings}")
    print(f"budget-hits: {budget_hits}")
    if budget_hits:
        return EXIT_RESOURCE
    return EXIT_FAILS if findings else EXIT_HOLDS


def _cmd_census(args: argparse.Namespace) -> int:
    census: Counter[tuple[int, int]] = Counter()
    fixed_points = 0
    tight = []
    # check the length here, before the output file is truncated
    check_enumeration(args.length)
    with _open_output(args.jsonl or os.devnull) as sink:
        for pattern in enumerate_canonical_patterns(args.length, min_vars=args.min_vars):
            # a budget-exhausted check counts as "not a fixed point", as in least_uniform_alphabet
            if fixed_point_verdict(pattern, budget=args.budget):
                fixed_points += 1
                continue
            n = len(pattern.variables)
            k = _least_alphabet(pattern.symbols, n, args.budget)
            if k is None:
                raise InconsistencyError(f"renaming must be unambiguous off fixed points: {pattern}")
            census[n, k] += 1
            if k == n and n >= 4:
                tight.append(pattern)
            sink.write(json.dumps({"pattern": str(pattern), "vars": n, "least_k": k}) + "\n")
    print(f"length {args.length}: {fixed_points} fixed points (no unambiguous 1-uniform morphism)")
    print(f"{'vars':>4} {'least_k':>7} {'patterns':>8}")
    for (n, k), count in sorted(census.items()):
        print(f"{n:>4} {k:>7} {count:>8}")
    for pattern in tight:
        print(f"ATTENTION: needs the full alphabet despite >= 4 variables: {pattern}")
    return EXIT_FAILS if tight else EXIT_HOLDS


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.bundle == "thue":
        checks = thue_checks(args.m)
    elif args.bundle == "shortest":
        checks = shortest_checks(args.n)
    elif args.bundle == "pi-db":
        checks = pi_db_checks(args.k)
    else:
        checks = pair_theorem_checks(args.max_len)
    failed = 0
    for ok, description in checks:
        print(f"{'ok' if ok else 'FAIL'}: {description}")
        failed += not ok
    return EXIT_FAILS if failed else EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unambig",
        description="Decide ambiguity of morphisms with respect to patterns, "
        "detect fixed points, generate pattern families, and scan pattern space.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def decision(name: str, summary: str, handler: Callable, *options: tuple[str, dict]) -> None:
        # every decision takes --pattern first and ends with --json and --budget
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--pattern", required=True)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.add_argument("--json", action="store_true")
        sub.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
        sub.set_defaults(handler=handler)

    decision(
        "check-ambiguity",
        "decide whether a morphism is ambiguous w.r.t. a pattern",
        _cmd_check_ambiguity,
        ("--morphism", {"required": True}),
        (
            "--nonerasing-only",
            {"action": "store_true", "help": "only nonerasing competitors count (weak unambiguity)"},
        ),
    )
    decision(
        "fixed-point",
        "decide whether a pattern is a fixed point of a nontrivial morphism",
        _cmd_fixed_point,
    )
    decision("search-sigma-ij", "find an unambiguous pair-merging morphism", _cmd_search_sigma_ij)
    decision(
        "search-uniform",
        "find an unambiguous 1-uniform morphism over at most K letters",
        _cmd_search_uniform,
        ("--alphabet-size", {"type": _positive, "required": True}),
    )

    generate = commands.add_parser("generate", help="print a pattern or word family")
    families = generate.add_subparsers(dest="family", required=True)
    thue = families.add_parser("thue", help="prefix of the ternary square-free word")
    thue.add_argument("--length", type=_positive, required=True)
    doubled = families.add_parser("doubled", help="square-free prefix with every letter doubled")
    doubled.add_argument("--length", type=_positive, required=True)
    alpha = families.add_parser("alpha-m", help="pattern 1 1 2 2 ... m m")
    alpha.add_argument("--m", type=_positive, required=True)
    exponent = families.add_parser(
        "exponent", help="pattern with blockwise exponents over a square-free frame"
    )
    exponent.add_argument("--beta", required=True, metavar='"r1 r2 ..."')
    shortest = families.add_parser(
        "shortest", help="shortest n-variable non-fixed-point pattern and its binary morphism"
    )
    shortest.add_argument("--n", type=_positive, required=True)
    debruijn = families.add_parser("debruijn", help="non-cyclic de Bruijn sequence B'(k, n)")
    debruijn.add_argument("--k", type=_positive, required=True)
    debruijn.add_argument("--n", type=_positive, required=True)
    debruijn.add_argument("--enumerate", action="store_true", help="print every B'(k, n) word")
    pidb = families.add_parser(
        "pi-db", help="patterns with morphisms mapping onto de Bruijn words B'(k, 2)"
    )
    pidb.add_argument("--k", type=_positive, required=True)
    generate.set_defaults(handler=_cmd_generate)

    scan = commands.add_parser("scan", help="sweep canonical patterns and record verdicts")
    scan.add_argument("--target", required=True, choices=SCAN_TARGETS)
    scan.add_argument("--max-len", type=_positive, required=True)
    scan.add_argument("--workers", type=_positive, default=1)
    scan.add_argument("--out", required=True, metavar="FILE.jsonl")
    scan.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    scan.set_defaults(handler=_cmd_scan)

    census = commands.add_parser("census", help="least unambiguous 1-uniform alphabet, per pattern")
    census.add_argument("--length", type=int, required=True)
    census.add_argument("--min-vars", type=_positive, default=1)
    census.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    census.add_argument("--jsonl", metavar="FILE", help="also write one record per non-fixed-point pattern")
    census.set_defaults(handler=_cmd_census)

    verify = commands.add_parser("verify", help="run a named bundle of exact checks")
    bundles = verify.add_subparsers(dest="bundle", required=True)
    vthue = bundles.add_parser("thue", help="square-free word family checks")
    vthue.add_argument("--m", type=_span, default=range(4, 7), metavar="A..B")
    vshort = bundles.add_parser("shortest", help="shortest non-fixed-point pattern checks")
    vshort.add_argument("--n", type=_span, default=range(2, 9), metavar="A..B")
    vpidb = bundles.add_parser("pi-db", help="de Bruijn pattern family checks")
    vpidb.add_argument("--k", type=_positive, default=3)
    vpair = bundles.add_parser("pair-theorem", help="pair condition soundness sweep")
    vpair.add_argument("--max-len", type=_positive, default=10)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the consumer closed the pipe; suppress the traceback on interpreter
        # shutdown and report failure the way a SIGPIPE'd tool would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILS
    raise SystemExit(code)
