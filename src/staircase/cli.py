"""Command-line interface.

Exit codes: 0 success, 1 a verified inequality failed (a counterexample
document is printed, which signals an implementation bug), 2 usage or input
errors (including inputs over a resource budget), 3 an unexpected error such
as running out of memory (one line on stderr).  All reports are deterministic
for a fixed invocation and seed.

A call whose first argument names a command builds the top parser over that
command's subparser alone, with only the flag groups the command reads; any
other call (no arguments, -h, --version, an unknown command) builds the whole
tree.  Both trees parse through the same top parser, so every help text, usage
line and error message is the one the whole tree gives, byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, NamedTuple

from . import __version__
from .degeneration import least_certified_mu, mu_upper_bound_details, tangent_cone
from .errors import ConsistencyError, NotZeroDimensionalError, StaircaseError
from .groebner import initial_ideal
from .ideal_io import corpus_to_document, ideal_to_document, parse_ideal_file
from .ideals import MonomialIdeal, colength, integral_closure, is_power_of_maximal
from .invariants import (
    _mix,
    codim2_corpus,
    multiplicity,
    multiplicity_limit_estimate,
    random_ideal,
    verify_codim2,
    verify_zero_dim,
    zero_dim_corpus,
)
from .macaulay import DEFAULT_BUDGET
from .polynomials import PolyIdeal, default_order
from .polytope import build_polytope, compute_mu
from .reports import (
    _gens_compact,
    codim2_report_dict,
    make_document,
    render_json,
    render_tsv,
    zero_dim_report_dict,
)


def _int_at_least(low: int):
    """An argparse type for ints >= low, named int so that a non-integer reads "invalid int value"."""

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    parse.__name__ = "int"
    return parse


_NONNEGATIVE, _POSITIVE, _BUDGET = _int_at_least(0), _int_at_least(1), _int_at_least(2)  # a --budget N search starts at N = 2


# Shared flags, one group each: a command lists the groups it reads, and a
# group's parent parser is built only for a tree that holds such a command.
_FLAG_GROUPS = {
    "io": (
        ("--input", {"help": "path to an ideal or corpus document"}),
        ("--format", {"choices": ("json", "tsv"), "default": "json"}),
    ),
    "seed": (("--seed", {"type": int, "default": 0}),),
    "count": (("--count", {"type": _NONNEGATIVE, "default": 100}),),
    "dim": (("--dim", {"type": _POSITIVE, "default": 2}),),
    "shape": (("--max-exp", {"type": _POSITIVE, "default": 10}), ("--max-gens", {"type": _POSITIVE, "default": 8})),
}
_BUDGET_FLAG = ("--budget", {"type": _BUDGET, "default": DEFAULT_BUDGET})


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole argparse tree, or with a command name the same top parser
    over that command's subparser alone; see the module docstring."""
    parser = argparse.ArgumentParser(prog="staircase", description="Exact invariants of monomial ideals.")
    parser.add_argument("--version", action="version", version=f"staircase {__version__}")
    names = list(_COMMANDS) if command is None else [command]
    # one command's tree keeps the usage line that lists every command; the
    # whole tree takes no metavar, so that its errors name the argument "command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    parents: dict[str, argparse.ArgumentParser] = {}
    for name in names:
        cmd = _COMMANDS[name]
        for group in cmd.groups:
            if group not in parents:
                parents[group] = argparse.ArgumentParser(add_help=False)
                _add_flags(parents[group], _FLAG_GROUPS[group])
        _add_flags(sub.add_parser(name, help=cmd.help, parents=[parents[g] for g in cmd.groups]), cmd.flags)
    return parser


def _load(args) -> list:
    if not args.input:
        raise StaircaseError(f"{args.command} needs --input")
    return parse_ideal_file(args.input)


def _load_monomials(args) -> list[MonomialIdeal]:
    ideals = _load(args)
    for J in ideals:
        if not isinstance(J, MonomialIdeal):
            raise StaircaseError(f"{args.command} needs monomial ideals, got a polynomial ideal")
    return ideals


def _load_poly(args) -> PolyIdeal:
    ideals = _load(args)
    if len(ideals) != 1:
        raise StaircaseError(f"{args.command} needs a single ideal, got a corpus of {len(ideals)}")
    obj = ideals[0]
    if isinstance(obj, MonomialIdeal):
        return PolyIdeal.from_monomial(obj)
    return obj


def _facet_dict(f) -> dict:
    return {"coefficients": f.coefficients, "rhs": f.rhs, "bounded": f.is_bounded, "intercepts": f.normal_form()}


def _cmd_lct(args):
    reports = []
    for J in _load_monomials(args):
        mv = compute_mu(J)
        w = mv.witness_facet
        reports.append(
            {
                "ideal": _gens_compact(J),
                "mu": mv.mu,
                "lct": mv.lct,
                "witness_coefficients": w.coefficients if w else None,
                "witness_rhs": w.rhs if w else None,
            }
        )
    return 0, reports, None


def _cmd_length(args):
    return 0, [{"ideal": _gens_compact(J), "length": colength(J)} for J in _load_monomials(args)], None


def _cmd_mult(args):
    reports = []
    for J in _load_monomials(args):
        rep = {"ideal": _gens_compact(J), "multiplicity": multiplicity(J)}
        if args.t_max > 0:
            rep["limit_sequence"] = multiplicity_limit_estimate(J, args.t_max)
        reports.append(rep)
    return 0, reports, None


def _cmd_polytope(args):
    reports = []
    for J in _load_monomials(args):
        P = build_polytope(J)
        for f in P.facets:
            reports.append({"ideal": _gens_compact(J), **_facet_dict(f)})
    return 0, reports, None


def _cmd_closure(args):
    reports = []
    for J in _load_monomials(args):
        cl = integral_closure(J)
        reports.append(
            {
                "ideal": _gens_compact(J),
                "closure": cl.gens,
                "closure_power_q": is_power_of_maximal(J),
            }
        )
    return 0, reports, None


_CORPUS_FLAGS = ("seed", "count", "dim", "max_exp", "max_gens")


def _corpus_echo(args) -> dict:
    """The corpus flags the command declares, so a report echoes no flag its command lacks."""
    return {flag: getattr(args, flag) for flag in _CORPUS_FLAGS if hasattr(args, flag)}


def _run_suite(args, corpus, check, to_dict):
    """One suite over --input or, without it, over corpus(); exit 1 if any report has violations."""
    if args.input:
        ideals, echo = _load_monomials(args), {"path": args.input}
    else:
        ideals, echo = corpus(), _corpus_echo(args)
    reports = [to_dict(check(J, fatal=False)) for J in ideals]
    failed = sum(1 for r in reports if r["violations"])
    return (1 if failed else 0), reports, {"input": echo, "failed": failed}


def _cmd_verify(args):
    def corpus():
        return zero_dim_corpus(args.seed, args.count, dims=(args.dim,), max_exp=args.max_exp, max_gens=args.max_gens)

    return _run_suite(args, corpus, verify_zero_dim, zero_dim_report_dict)


def _cmd_codim2(args):
    def corpus():
        return codim2_corpus(args.seed, args.count, max_exp=args.max_exp, max_gens=args.max_gens)

    return _run_suite(args, corpus, verify_codim2, codim2_report_dict)


def _cmd_degenerate(args):
    I = _load_poly(args)
    order = default_order(args.order, I.n)
    init = initial_ideal(I, order)
    cone = tangent_cone(I, order, budget=args.budget)
    try:
        length = dataclasses.asdict(cone.length_check())
    except NotZeroDimensionalError:
        length = None  # finite length needs the ideal itself to be zero-dimensional
    report = {
        "ideal": ideal_to_document(I),
        "order": args.order,
        "initial_ideal": init.gens,
        "tangent_cone_initial": cone.initial.gens,
        "length": length,
    }
    return 0, [report], None


def _cmd_mu_bound(args):
    I = _load_poly(args)
    details = mu_upper_bound_details(I, trials=args.trials, seed=args.seed, budget=args.budget)
    report = {
        "ideal": ideal_to_document(I),
        "mu_upper_bound": least_certified_mu(details),
        "trials": [{"label": label, "mu": mu} for label, mu in details],
    }
    return 0, [report], None


def _cmd_gen_corpus(args):
    ideals = [
        random_ideal(_mix(args.seed, i), args.dim, args.max_exp, args.max_gens, not args.mixed)
        for i in range(args.count)
    ]
    doc = corpus_to_document(ideals)
    doc["input"] = {**_corpus_echo(args), "mixed": args.mixed}
    return 0, None, doc


class _Command(NamedTuple):
    help: str
    run: Callable  # args -> (exit code, reports or None, extra document fields)
    groups: tuple[str, ...]  # keys of _FLAG_GROUPS
    flags: tuple = ()  # the command's own (flag, add_argument keywords) pairs


# every command, in the order of the help listing
_COMMANDS = {
    "lct": _Command("diagonal entry value mu and log canonical threshold", _cmd_lct, ("io",)),
    "mult": _Command(
        "Samuel multiplicity (covolume)",
        _cmd_mult,
        ("io",),
        (("--t-max", {"type": _NONNEGATIVE, "default": 0, "help": "also report n! colength(J^t)/t^n for t = 1..t_max"}),),
    ),
    "length": _Command("colength (number of standard monomials)", _cmd_length, ("io",)),
    "polytope": _Command("facet description of the Newton polytope", _cmd_polytope, ("io",)),
    "closure": _Command("integral closure and maximal-power detection", _cmd_closure, ("io",)),
    "verify": _Command(
        "zero-dimensional invariant suite over a file or seeded corpus", _cmd_verify, ("io", "seed", "count", "dim", "shape")
    ),
    "codim2": _Command("two-variable factor bounds over a file or seeded corpus", _cmd_codim2, ("io", "seed", "count", "shape")),
    "degenerate": _Command(
        "initial ideal and tangent-cone degeneration of a polynomial ideal",
        _cmd_degenerate,
        ("io",),
        (("--order", {"choices": ("lex", "grevlex"), "default": "grevlex"}), _BUDGET_FLAG),
    ),
    "mu-bound": _Command(
        "certified upper bound for mu via monomial degenerations",
        _cmd_mu_bound,
        ("io", "seed"),
        (_BUDGET_FLAG, ("--trials", {"type": _NONNEGATIVE, "default": 8})),
    ),
    "gen-corpus": _Command(
        "emit a reproducible corpus document",
        _cmd_gen_corpus,
        ("seed", "count", "dim", "shape"),
        (("--mixed", {"action": "store_true", "help": "do not force zero-dimensionality"}),),
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, reports, extra = _COMMANDS[args.command].run(args)
        if reports is None:
            out = render_json(extra)  # gen-corpus emits its own JSON document
        else:
            doc = make_document(args.command, {"path": args.input}, reports, __version__, extra)
            out = render_tsv(doc) if args.format == "tsv" else render_json(doc)
        sys.stdout.write(out)
        return code
    except ConsistencyError as exc:
        dump = {
            "tool": "staircase",
            "version": __version__,
            "error": str(exc),
            "counterexample": dataclasses.asdict(exc.report) if exc.report is not None else None,
        }
        sys.stdout.write(render_json(dump))
        return 1
    except (StaircaseError, OSError) as exc:
        print(f"staircase {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"staircase {args.command}: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"staircase {args.command}: unexpected error: {exc!r}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
