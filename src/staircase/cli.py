"""Command-line interface.

Exit codes: 0 success, 1 a verified inequality failed (a counterexample
document is printed, which signals an implementation bug), 2 usage or input
errors (including inputs over a resource budget), 3 an unexpected error such
as running out of memory (one line on stderr).  All reports are deterministic
for a fixed invocation and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .degeneration import mu_upper_bound_details, tangent_cone
from .errors import ConsistencyError, NotZeroDimensionalError, StaircaseError
from .groebner import initial_ideal
from .ideal_io import corpus_to_document, format_rational, ideal_to_document, parse_ideal_file
from .ideals import MonomialIdeal, colength, integral_closure, is_power_of_maximal
from .invariants import (
    Codim2Report,
    ZeroDimReport,
    _mix,
    codim2_corpus,
    multiplicity,
    multiplicity_limit_estimate,
    random_ideal,
    verify_codim2,
    verify_zero_dim,
    zero_dim_corpus,
)
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

COMMANDS = ("lct", "length", "mult", "polytope", "closure", "verify", "codim2", "degenerate", "mu-bound", "gen-corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="staircase", description="Exact invariants of monomial ideals.")
    parser.add_argument("--version", action="version", version=f"staircase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, seeded=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="path to an ideal or corpus document")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if seeded:
            p.add_argument("--count", type=int, default=100)
            p.add_argument("--dim", type=int, default=2)
            p.add_argument("--max-exp", type=int, default=10)
            p.add_argument("--max-gens", type=int, default=8)
        return p

    add("lct", "diagonal entry value mu and log canonical threshold")
    p = add("mult", "Samuel multiplicity (covolume)")
    p.add_argument("--t-max", type=int, default=0, help="also report n! colength(J^t)/t^n for t = 1..t_max")
    add("length", "colength (number of standard monomials)")
    add("polytope", "facet description of the Newton polytope")
    add("closure", "integral closure and maximal-power detection")
    add("verify", "zero-dimensional invariant suite over a file or seeded corpus", seeded=True)
    add("codim2", "two-variable factor bounds over a file or seeded corpus", seeded=True)
    p = add("degenerate", "initial ideal and tangent-cone degeneration of a polynomial ideal")
    p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    p.add_argument("--budget", type=int, default=24)
    p = add("mu-bound", "certified upper bound for mu via monomial degenerations")
    p.add_argument("--budget", type=int, default=24)
    p.add_argument("--trials", type=int, default=8)
    p = add("gen-corpus", "emit a reproducible corpus document", seeded=True)
    p.add_argument("--mixed", action="store_true", help="do not force zero-dimensionality")
    return parser


def _load_monomials(args) -> list[MonomialIdeal]:
    ideals = parse_ideal_file(args.input)
    for J in ideals:
        if not isinstance(J, MonomialIdeal):
            raise StaircaseError(f"{args.command} needs monomial ideals, got a polynomial ideal")
    return ideals  # type: ignore[return-value]


def _load_poly(args) -> PolyIdeal:
    ideals = parse_ideal_file(args.input)
    if len(ideals) != 1:
        raise StaircaseError(f"{args.command} needs a single ideal, got a corpus of {len(ideals)}")
    obj = ideals[0]
    if isinstance(obj, MonomialIdeal):
        return PolyIdeal.from_monomial(obj)
    return obj


def _require_input(args):
    if not args.input:
        raise StaircaseError(f"{args.command} needs --input")


def _facet_dict(f) -> dict:
    nf = f.normal_form()
    return {
        "coefficients": list(f.coefficients),
        "rhs": f.rhs,
        "bounded": f.is_bounded,
        "intercepts": [format_rational(a) for a in nf] if nf else None,
    }


def _cmd_lct(args):
    _require_input(args)
    reports = []
    for J in _load_monomials(args):
        mv = compute_mu(J)
        w = mv.witness_facet
        reports.append(
            {
                "ideal": _gens_compact(J),
                "mu": format_rational(mv.mu),
                "lct": format_rational(mv.lct) if mv.lct is not None else None,
                "witness_coefficients": list(w.coefficients) if w else None,
                "witness_rhs": w.rhs if w else None,
            }
        )
    return 0, reports, None


def _cmd_length(args):
    _require_input(args)
    return 0, [{"ideal": _gens_compact(J), "length": colength(J)} for J in _load_monomials(args)], None


def _cmd_mult(args):
    _require_input(args)
    reports = []
    for J in _load_monomials(args):
        rep = {"ideal": _gens_compact(J), "multiplicity": format_rational(multiplicity(J))}
        if args.t_max > 0:
            rep["limit_sequence"] = [format_rational(v) for v in multiplicity_limit_estimate(J, args.t_max)]
        reports.append(rep)
    return 0, reports, None


def _cmd_polytope(args):
    _require_input(args)
    reports = []
    for J in _load_monomials(args):
        P = build_polytope(J)
        for f in P.facets:
            reports.append({"ideal": _gens_compact(J), **_facet_dict(f)})
    return 0, reports, None


def _cmd_closure(args):
    _require_input(args)
    reports = []
    for J in _load_monomials(args):
        cl = integral_closure(J)
        reports.append(
            {
                "ideal": _gens_compact(J),
                "closure": [list(g) for g in cl.gens],
                "closure_power_q": is_power_of_maximal(J),
            }
        )
    return 0, reports, None


def _corpus_echo(args) -> dict:
    return {
        "seed": args.seed,
        "count": args.count,
        "dim": args.dim,
        "max_exp": args.max_exp,
        "max_gens": args.max_gens,
    }


def _cmd_verify(args):
    if args.input:
        ideals = _load_monomials(args)
        echo = {"path": args.input}
    else:
        ideals = zero_dim_corpus(args.seed, args.count, dims=(args.dim,), max_exp=args.max_exp, max_gens=args.max_gens)
        echo = _corpus_echo(args)
    reports = [zero_dim_report_dict(verify_zero_dim(J, fatal=False)) for J in ideals]
    failed = sum(1 for r in reports if r["violations"])
    return (1 if failed else 0), reports, {"input_echo": echo, "failed": failed}


def _cmd_codim2(args):
    if args.input:
        ideals = _load_monomials(args)
        echo = {"path": args.input}
    else:
        ideals = codim2_corpus(args.seed, args.count, max_exp=args.max_exp, max_gens=args.max_gens)
        echo = _corpus_echo(args)
    reports = [codim2_report_dict(verify_codim2(J, fatal=False)) for J in ideals]
    failed = sum(1 for r in reports if r["violations"])
    return (1 if failed else 0), reports, {"input_echo": echo, "failed": failed}


def _cmd_degenerate(args):
    _require_input(args)
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
        "initial_ideal": [list(g) for g in init.gens],
        "tangent_cone_initial": [list(g) for g in cone.initial.gens],
        "length": length,
    }
    return 0, [report], None


def _cmd_mu_bound(args):
    _require_input(args)
    I = _load_poly(args)
    details = mu_upper_bound_details(I, trials=args.trials, seed=args.seed, budget=args.budget)
    values = [mu for _, mu in details if mu is not None]
    if not values:
        raise StaircaseError("no degeneration trial certified a zero-dimensional content-free part")
    report = {
        "ideal": ideal_to_document(I),
        "mu_upper_bound": format_rational(min(values)),
        "trials": [{"label": label, "mu": format_rational(mu) if mu is not None else None} for label, mu in details],
    }
    return 0, [report], None


def _cmd_gen_corpus(args):
    if args.format == "tsv":
        raise StaircaseError("gen-corpus emits JSON corpus documents only")
    ideals = [
        random_ideal(_mix(args.seed, i), args.dim, args.max_exp, args.max_gens, not args.mixed)
        for i in range(args.count)
    ]
    doc = corpus_to_document(ideals)
    doc["input"] = {**_corpus_echo(args), "mixed": args.mixed}
    return 0, None, doc


_HANDLERS = {
    "lct": _cmd_lct,
    "length": _cmd_length,
    "mult": _cmd_mult,
    "polytope": _cmd_polytope,
    "closure": _cmd_closure,
    "verify": _cmd_verify,
    "codim2": _cmd_codim2,
    "degenerate": _cmd_degenerate,
    "mu-bound": _cmd_mu_bound,
    "gen-corpus": _cmd_gen_corpus,
}


def _report_payload(report) -> dict | None:
    if isinstance(report, ZeroDimReport):
        return zero_dim_report_dict(report)
    if isinstance(report, Codim2Report):
        return codim2_report_dict(report)
    if dataclasses.is_dataclass(report):
        return dataclasses.asdict(report)
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, reports, extra = _HANDLERS[args.command](args)
        if reports is None and extra is not None:
            doc = extra  # gen-corpus emits its own document shape
        else:
            echo = (extra or {}).pop("input_echo", None) if extra else None
            if echo is None:
                echo = {"path": args.input} if args.input else {"seed": args.seed}
            doc = make_document(args.command, echo, reports or [], __version__, extra)
        out = render_tsv(doc) if args.format == "tsv" else render_json(doc)
        sys.stdout.write(out)
        return code
    except ConsistencyError as exc:
        dump = {
            "tool": "staircase",
            "version": __version__,
            "error": str(exc),
            "counterexample": _report_payload(exc.report),
        }
        sys.stdout.write(render_json(dump))
        return 1
    except StaircaseError as exc:
        print(f"staircase {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
