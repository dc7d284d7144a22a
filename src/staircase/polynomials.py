"""Polynomials with exact rational coefficients, and monomial orders.

RationalPolynomial is the validated type at the edges of the degeneration
engine: the parser builds it and reports print it.  A polynomial is a
finite map from exponent vectors to nonzero Fractions.  Inside, Buchberger,
the truncations and the shears of the mu bound (substitute_linear) work on
primitive integer term maps dict[Exponent, int]; integer_terms is the one
conversion, and nothing converts back.  Orders are total, multiplicative
and global, so leading terms and Groebner reductions are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import comb, gcd, lcm
from numbers import Rational
from typing import Literal

from .errors import FormatError, ResourceError
from .ideals import Exponent, MonomialIdeal, _validate_exponent, exp_add, monomials_of_degree


def _validate_coefficient(c) -> Fraction:
    """c as a Fraction; only ints and Fractions (not bools) are exact rationals
    here.  A Fraction is returned as it is, not copied."""
    if type(c) is Fraction:
        return c
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise FormatError(f"coefficient {c!r} is not an integer or a Fraction")
    return Fraction(c)


@dataclass
class RationalPolynomial:
    n: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            e = _validate_exponent(e, self.n)
            c = _validate_coefficient(c)
            if e in clean:
                clean[e] += c
            elif c:
                clean[e] = c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, n: int, terms: dict[Exponent, Fraction]) -> RationalPolynomial:
        """A polynomial from validated exponents and nonzero Fractions, skipping the checks and the merge."""
        f = object.__new__(cls)
        f.n, f.terms = n, terms
        return f

    @classmethod
    def monomial(cls, n: int, exp: Exponent, coeff=1) -> RationalPolynomial:
        return cls(n, {tuple(exp): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def integer_terms(self) -> dict[Exponent, int]:
        """The terms times the positive rational that makes them coprime integers."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}
        content = gcd(*ints.values())
        return {e: c // content for e, c in ints.items()}

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Canonical term sequence: descending lexicographic on exponents."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        bits = [f"{c}*x^{list(e)}" for e, c in self.sorted_terms()]
        return "RationalPolynomial(" + " + ".join(bits) + ")"


Terms = dict[Exponent, int]

# substitute_linear refuses, before building it, a power of a linear form
# with more terms than this, or a product of such powers that may have more.
MAX_POWER_TERMS = 2_000


def _mul(f: Terms, g: Terms) -> Terms:
    out: Terms = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = exp_add(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _linear_power(image: list[tuple[int, int]], p: int, n: int) -> Terms:
    """(sum of c x_k over the (k, c) of image)^p, p >= 1, by the multinomial
    theorem: each term is built once, and a one-term image c x_k maps in one
    step to c^p x_k^p.  With r terms the power has C(p + r - 1, r - 1)
    terms, checked against MAX_POWER_TERMS before any is built; a single
    coefficient other than 1 or -1 is charged as r = 2, since its power
    grows with p."""
    r = len(image)
    if r == 0:
        return {}
    charged = r if r > 1 or abs(image[0][1]) == 1 else 2
    size = comb(p + charged - 1, charged - 1)
    if size > MAX_POWER_TERMS:
        raise ResourceError(
            f"a coordinate change would expand a power {p} of a linear form into {size} terms, "
            f"more than the limit of {MAX_POWER_TERMS}"
        )
    out: Terms = {}
    e = [0] * n  # each pass sets every image term's entry; the rest stay 0
    for degrees in monomials_of_degree(r, p):  # how p splits over the image's terms, lexicographically
        coeff, left = 1, p
        for (k, c), a in zip(image, degrees):
            e[k] = a
            coeff *= comb(left, a) * c**a
            left -= a
        out[tuple(e)] = coeff
    return out


def substitute_linear(f: Terms, matrix) -> Terms:
    """Apply the change of coordinates x_i -> sum_k matrix[i][k] x_k to the
    integer term map f; each power of an image is built once per call.  Each
    product of powers is charged, before it is built, the lesser of the
    product of the factors' term counts and the number of monomials of its
    degree, against MAX_POWER_TERMS."""
    n = len(matrix)
    images = [[(k, m) for k, m in enumerate(row) if m] for row in matrix]
    powers: list[dict[int, Terms]] = [{} for _ in range(n)]  # powers[i][p] is images[i] to the p
    out: Terms = {}
    for e, c in f.items():
        term, d = {(0,) * n: c}, 0
        for i, p in enumerate(e):
            if p:
                if p not in powers[i]:
                    powers[i][p] = _linear_power(images[i], p, n)
                d += p
                size = min(len(term) * len(powers[i][p]), comb(d + n - 1, n - 1))
                if size > MAX_POWER_TERMS:
                    raise ResourceError(
                        f"a coordinate change would expand a term into up to {size} terms, "
                        f"more than the limit of {MAX_POWER_TERMS}"
                    )
                term = _mul(term, powers[i][p])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {e: v for e, v in out.items() if v}


@dataclass(frozen=True)
class MonomialOrder:
    """A total, multiplicative, global order on exponent vectors.

    priority lists variable indices from most to least significant; None
    means (0, 1, ..., n-1).  weights (positive ints) only apply to the
    weighted kind, where ties fall back to lex on the priority.  The kind,
    the priority and the weights are checked once, at construction.
    """

    kind: Literal["lex", "grevlex", "weighted"] = "grevlex"
    priority: tuple[int, ...] | None = None
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weighted"):
            raise FormatError(f"unknown order kind {self.kind!r}")
        if self.priority is not None and sorted(self.priority) != list(range(len(self.priority))):
            raise FormatError(f"priority {self.priority} is not a permutation of 0..{len(self.priority) - 1}")
        if self.kind == "weighted" and (not self.weights or any(w <= 0 for w in self.weights)):
            raise FormatError("weighted order needs positive weights")

    def key(self, exp: Exponent):
        """Sort key: larger key means larger monomial."""
        n = len(exp)
        prio = range(n) if self.priority is None else self.priority
        if len(prio) != n or (self.kind == "weighted" and len(self.weights) != n):
            raise FormatError(f"{self.kind} order does not fit {n} variables")
        if self.kind == "lex":
            return tuple(exp[i] for i in prio)
        if self.kind == "grevlex":
            return (sum(exp), tuple(-exp[i] for i in reversed(prio)))
        return (sum(w * e for w, e in zip(self.weights, exp)), tuple(exp[i] for i in prio))

    def is_degree_compatible(self, n: int) -> bool:
        """True when larger total degree always means larger monomial."""
        if self.kind == "grevlex":
            return True
        if self.kind == "lex":
            return n == 1
        return len(set(self.weights or ())) == 1


def default_order(kind: str = "grevlex", n: int = 2) -> MonomialOrder:
    """Workflow default: priority x_n > ... > x_1, matching the two-variable
    convention where the distinguished tangent direction is x_1 = 0."""
    return MonomialOrder(kind=kind, priority=tuple(reversed(range(n))))  # type: ignore[arg-type]


@dataclass(frozen=True)
class PolyIdeal:
    n: int
    gens: tuple[RationalPolynomial, ...]

    def __post_init__(self):
        if not self.gens:
            raise FormatError("a polynomial ideal needs at least one generator")
        for g in self.gens:
            if g.n != self.n:
                raise FormatError(f"generator ambient {g.n} does not match ideal ambient {self.n}")
            if g.is_zero:
                raise FormatError("zero generators are not allowed")

    @cached_property
    def integer_generators(self) -> tuple[dict[Exponent, int], ...]:
        """Each generator's integer_terms, converted on first use; the
        generators are not changed after construction."""
        return tuple(g.integer_terms() for g in self.gens)

    @classmethod
    def from_monomial(cls, J: MonomialIdeal) -> PolyIdeal:
        return cls(J.n, tuple(RationalPolynomial.monomial(J.n, g) for g in J.gens))

