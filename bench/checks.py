"""Correctness checks on one op's output, run outside the timed phase.

Each check compares the CLI report against an independent oracle of the
package (inclusion-exclusion colength, the exact LP membership test, the
truncated initial-ideal oracle) or against a value known exactly.  A check
returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

from staircase.degeneration import initial_ideal_truncated
from staircase.errors import StaircaseError
from staircase.ideal_io import document_to_ideal, format_rational
from staircase.ideals import MonomialIdeal, colength, colength_inclusion_exclusion
from staircase.polynomials import default_order
from staircase.polytope import NewtonPolytope

IE_MAX_GENERATORS = 20
BELOW = 1 - Fraction(1, 10**6)  # "just below" the diagonal entry point


def _compact(J: MonomialIdeal) -> str:
    return ";".join(",".join(str(c) for c in g) for g in J.gens)


def _diagonal_entry(J: MonomialIdeal, mu: Fraction) -> list[str]:
    P = NewtonPolytope(J.n, J.gens)
    problems = []
    if not P.contains_point_lp([mu] * J.n):
        problems.append(f"LP: mu*(1,...,1) outside the polytope of {_compact(J)}")
    if P.contains_point_lp([mu * BELOW] * J.n):
        problems.append(f"LP: a point below mu*(1,...,1) inside the polytope of {_compact(J)}")
    return problems


def _colength(J: MonomialIdeal, reported: int) -> list[str]:
    if len(J.gens) > IE_MAX_GENERATORS:
        return []
    expected = colength_inclusion_exclusion(J)
    return [] if expected == reported else [f"colength {reported} != {expected} on {_compact(J)}"]


def _check_verify(doc: dict, reports: list[dict]) -> list[str]:
    problems = []
    for item, rep in zip(doc["items"], reports):
        J = MonomialIdeal(item["vars"], tuple(tuple(g) for g in item["generators"]))
        if rep["ideal"] != _compact(J):
            problems.append(f"report order: {rep['ideal']} != {_compact(J)}")
            continue
        if rep["violations"]:
            problems.append(f"violations {rep['violations']} on {rep['ideal']}")
        problems += _colength(J, rep["length"])
        problems += _diagonal_entry(J, Fraction(rep["mu"]))
    return problems


def _check_codim2(doc: dict, reports: list[dict]) -> list[str]:
    problems = []
    for item, rep in zip(doc["items"], reports):
        I = MonomialIdeal(2, tuple(tuple(g) for g in item["generators"]))
        if rep["ideal"] != _compact(I):
            problems.append(f"report order: {rep['ideal']} != {_compact(I)}")
            continue
        b = tuple(min(g[i] for g in I.gens) for i in range(2))
        primitive = MonomialIdeal(2, tuple(tuple(x - y for x, y in zip(g, b)) for g in I.gens))
        problems += _colength(primitive, rep["primitive_length"])
        problems += _diagonal_entry(I, Fraction(rep["mu"]))
    return problems


def _check_degenerate(doc: dict, rep: dict) -> list[str]:
    I = document_to_ideal(doc)
    expected = [list(g) for g in initial_ideal_truncated(I, default_order("grevlex", I.n)).gens]
    if rep["initial_ideal"] != expected:
        return [f"Buchberger initial ideal {rep['initial_ideal']} != truncation oracle {expected}"]
    length = rep["length"]
    if length is None or not length["equal"] or length["l_orig"] != length["l_initial"]:
        return [f"length check {length}"]
    # The only zero is the origin, so the global length of the initial ideal
    # equals the local length the truncation certified.
    global_length = colength(MonomialIdeal(I.n, tuple(tuple(g) for g in expected)))
    if global_length != length["l_orig"]:
        return [f"colength of the initial ideal {global_length} != local length {length['l_orig']}"]
    return []


def _check_mu_bound(rep: dict, expected: str | None) -> list[str]:
    values = [Fraction(t["mu"]) for t in rep["trials"] if t["mu"] is not None]
    if not values:
        return ["no trial certified"]
    problems = []
    if rep["mu_upper_bound"] != format_rational(min(values)):
        problems.append(f"bound {rep['mu_upper_bound']} is not the least trial value {min(values)}")
    if expected is not None and rep["mu_upper_bound"] != expected:
        problems.append(f"bound {rep['mu_upper_bound']} != {expected}")
    return problems


def check_op(op, code, stdout: str) -> list[str]:
    """Problems with one op's result; the op is correct when the list is empty."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report document: {exc!r}"]
    if len(reports) != op.ideals:
        return [f"{len(reports)} reports for {op.ideals} ideals"]
    try:
        if op.command == "verify":
            return _check_verify(op.doc, reports)
        if op.command == "codim2":
            return _check_codim2(op.doc, reports)
        if op.command == "degenerate":
            return _check_degenerate(op.doc, reports[0])
        if op.command == "mu-bound":
            return _check_mu_bound(reports[0], op.expected_mu_bound)
    except (StaircaseError, KeyError, TypeError, ValueError) as exc:
        # A report with missing fields, or values an oracle rejects, is wrong output.
        return [f"check failed on the report: {exc!r}"]
    return [f"no check for command {op.command}"]
