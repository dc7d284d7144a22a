"""The on-disk ideal format: a small JSON document.

Monomial kind:

    {"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]}

Polynomial kind (coefficients are nonzero rationals as "p/q" or "p" strings):

    {"vars": 2, "kind": "polynomial",
     "generators": [[{"coeff": "1", "exp": [6, 0]}],
                    [{"coeff": "1", "exp": [0, 2]}, {"coeff": "1", "exp": [2, 1]}]]}

A corpus document bundles zero or more ideals: {"kind": "corpus", "items": [...]}.
Parsing canonicalizes (monomial generators are minimalized, polynomial terms
sorted), so parse -> serialize is idempotent.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, ParseError, ResourceError
from .ideals import MonomialIdeal, _antichain, _validate_exponent
from .polynomials import PolyIdeal, RationalPolynomial


def digit_limit_error() -> ResourceError:
    """What rendering raises for an integer that Python will not convert to text."""
    return ResourceError(
        f"the report holds an integer of more than {sys.get_int_max_str_digits()} digits, "
        "Python's limit for converting an integer to text"
    )


def format_rational(x) -> str:
    """An int or Fraction as "p/q", or "p" for an integer; as render_json's hook, it refuses any other value."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"Object of type {type(x).__name__} is not a rational")
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise digit_limit_error() from None


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


def _json_type(value) -> str:
    """What a message names instead of a caller's value, whose size the caller chooses."""
    return "null" if value is None else _JSON_TYPES.get(type(value), type(value).__name__)


def parse_rational(s, context: str = "value") -> Fraction:
    """A JSON int, or a string "p" or "p/q" of ASCII digits with an optional sign on p."""
    if isinstance(s, bool):
        raise ParseError("expected a rational, got a boolean", context)
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}", context)
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational string of length {len(s)}: expected the form p or p/q", context)
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise ParseError(f"bad rational string of length {len(s)}: zero denominator", context) from None
    except ValueError:  # int() has a digit limit
        raise ParseError(
            f"bad rational string of length {len(s)}: a number has more than {sys.get_int_max_str_digits()} digits", context
        ) from None


def _expect_exponents(raw, nvars: int, context: str) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise ParseError("exponent vector must be a list", context)
    try:
        return _validate_exponent(raw, nvars)
    except FormatError as exc:
        raise ParseError(str(exc), context) from None


def document_to_ideal(doc, context: str = "$") -> MonomialIdeal | PolyIdeal:
    if not isinstance(doc, dict):
        raise ParseError("ideal document must be a JSON object", context)
    nvars = doc.get("vars")
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
        got = "an integer below 1" if isinstance(nvars, int) and not isinstance(nvars, bool) else _json_type(nvars)
        raise ParseError(f"'vars' must be a positive integer, got {got}", f"{context}.vars")
    kind = doc.get("kind")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ParseError("'generators' must be a nonempty list (the zero ideal is not allowed)", f"{context}.generators")
    if kind == "monomial":
        exps = [
            _expect_exponents(g, nvars, f"{context}.generators[{i}]") for i, g in enumerate(gens)
        ]
        return MonomialIdeal._from_antichain(nvars, _antichain(exps))  # the exponents are validated
    if kind == "polynomial":
        polys = []
        for i, terms in enumerate(gens):
            gctx = f"{context}.generators[{i}]"
            if not isinstance(terms, list) or not terms:
                raise ParseError("polynomial generator must be a nonempty term list", gctx)
            acc: dict[tuple[int, ...], Fraction] = {}
            for j, term in enumerate(terms):
                tctx = f"{gctx}[{j}]"
                if not isinstance(term, dict) or set(term) != {"coeff", "exp"}:
                    raise ParseError("term must be an object with 'coeff' and 'exp'", tctx)
                coeff = parse_rational(term["coeff"], f"{tctx}.coeff")
                if coeff == 0:
                    raise ParseError("zero coefficients are not allowed", f"{tctx}.coeff")
                exp = _expect_exponents(term["exp"], nvars, f"{tctx}.exp")
                if exp in acc:
                    acc[exp] += coeff
                else:
                    acc[exp] = coeff
            nonzero = {e: c for e, c in acc.items() if c}
            if not nonzero:
                raise ParseError("generator terms cancel to the zero polynomial", gctx)
            polys.append(RationalPolynomial._from_terms(nvars, nonzero))  # the exponents are validated
        return PolyIdeal(nvars, tuple(polys))
    got = "another string" if isinstance(kind, str) else _json_type(kind)
    raise ParseError(f"'kind' must be 'monomial' or 'polynomial', got {got}", f"{context}.kind")


def ideal_to_document(obj: MonomialIdeal | PolyIdeal) -> dict:
    if isinstance(obj, MonomialIdeal):
        return {"vars": obj.n, "kind": "monomial", "generators": [list(g) for g in obj.gens]}
    return {
        "vars": obj.n,
        "kind": "polynomial",
        "generators": [
            [{"coeff": format_rational(c), "exp": list(e)} for e, c in g.sorted_terms()]
            for g in obj.gens
        ],
    }


def corpus_to_document(ideals) -> dict:
    return {"kind": "corpus", "items": [ideal_to_document(J) for J in ideals]}


def parse_ideal_text(text: str, context: str = "$") -> list[MonomialIdeal | PolyIdeal]:
    """Parse a single-ideal or corpus document; always returns a list."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}") from None
    except ValueError:  # json.loads builds ints with int(), which has a digit limit
        raise ParseError(f"a number has more than {sys.get_int_max_str_digits()} digits", context) from None
    except RecursionError:
        raise ParseError("arrays or objects are nested too deeply", context) from None
    if isinstance(doc, dict) and doc.get("kind") == "corpus":
        items = doc.get("items")
        if not isinstance(items, list):  # an empty corpus holds zero ideals
            raise ParseError("'items' must be a list", f"{context}.items")
        return [document_to_ideal(item, f"{context}.items[{i}]") for i, item in enumerate(items)]
    return [document_to_ideal(doc, context)]


def parse_ideal_file(path: str | Path) -> list[MonomialIdeal | PolyIdeal]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), str(path)) from None
    return parse_ideal_text(text, context=str(path))
