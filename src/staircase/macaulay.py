"""Truncated linear algebra on polynomial ideals supported at the origin.

Working inside R / m^(N+1) (m the maximal ideal at the origin) turns ideal
questions into finite exact row reduction.  The rows are all monomial
multiples of the generators truncated above degree N; their span is the
image of the ideal once m^N is certified to lie inside it, because then
adding m^(N+1) changes nothing.

Two column orders extract different information from the same rows:

* degree ascending, order descending inside a degree: the pivot of a row is
  the leading monomial of its lowest-degree form, so the pivot set generates
  the initial ideal of the tangent cone, degree by degree;
* order descending globally (degree-compatible orders only): the pivot is
  the true leading monomial, so the pivot set generates the initial ideal of
  the ideal itself.

Certification searches N = 2, 3, ... up to a budget, once per ideal: the
degree-N slice is fully covered by pivots exactly when m^N is contained in
the ideal locally at the origin.  The search does not depend on the order.
In the degree-ascending layout the number of degree-d pivots is the
dimension of the space of degree-d lowest forms of the row space, and the
order inside a degree only picks which monomials lead, not how many.  So
the smallest certified N, a failure to certify, and the rank are the same
under every order, and further orders need one truncation each, at that N.
truncation_at runs every truncation; certify_truncation calls it for
N = 2, 3, ... until one certifies.  Both take integer term maps, which the
degeneration passes on as it split them: one truncation per distinct
mu-bound trial, at the N of the first search.

Elimination is fraction-free: rows hold Python ints, each generator is
scaled to integer coefficients once per ideal (PolyIdeal.integer_generators),
a row is reduced by a pivot as row := (a/g) row - (c/g) pivot with
g = gcd(a, c), and pivot rows are made primitive.  The pivot set and the
rank depend only on the row space, so they are those of elimination over
the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import FormatError, NotZeroDimensionalError
from .ideals import Exponent, MonomialIdeal, monomials_of_degree
from .polynomials import MonomialOrder, Terms

DEFAULT_BUDGET = 24  # the largest N a certification search tries unless told otherwise


class _Echelon:
    """Sparse row echelon over the integers, pivoting on the smallest column index.

    Rows map columns to nonzero ints; pivot rows are primitive with a
    positive leading entry.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def insert(self, row: dict[int, int]) -> int | None:
        pivots = self.pivots
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                g = gcd(*row.values())
                if row[j] < 0:
                    g = -g
                pivots[j] = row if g == 1 else {k: v // g for k, v in row.items()}
                return j
            a, c = piv[j], row[j]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in piv.items():
                new = row.get(k, 0) - c * v
                if new:
                    row[k] = new
                else:
                    del row[k]
        return None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _key(e: Exponent, base: int) -> int:
    k = 0
    for x in reversed(e):
        k = k * base + x
    return k


def _eliminate(gens: tuple[Terms, ...], N: int, cols: list[Exponent]) -> _Echelon:
    """Echelon of all truncated monomial multiples of the generators.

    cols lists every monomial of degree <= N once; a row's columns are the
    positions of its surviving terms in that list.  Exponents in a
    truncated term stay <= N, so keys in base N + 1 add like exponents.
    """
    base = N + 1
    col_of = {}
    multipliers = [[] for _ in range(N + 1)]  # keys of the monomials of each degree
    for j, e in enumerate(cols):
        k = _key(e, base)
        col_of[k] = j
        multipliers[sum(e)].append(k)
    ech = _Echelon()
    for g in gens:
        terms = sorted((sum(e), _key(e, base), c) for e, c in g.items())  # (degree, key, coefficient)
        low = terms[0][0]
        for d in range(N - low + 1):
            kept = [(k, c) for deg, k, c in terms if deg + d <= N]
            for m in multipliers[d]:
                ech.insert({col_of[k + m]: c for k, c in kept})
    return ech


@dataclass(frozen=True)
class TruncationData:
    """Tangent-cone truncation at exponent N; certified when every degree-N
    monomial is a pivot."""

    N: int
    rank: int
    dim_truncated: int  # number of monomials of degree <= N
    pivot_exponents: tuple[Exponent, ...]
    certified: bool

    @property
    def local_length(self) -> int:
        return self.dim_truncated - self.rank


def truncation_at(n: int, gens: tuple[Terms, ...], N: int, order: MonomialOrder) -> TruncationData:
    """The tangent-cone truncation at exactly N, certified or not, of the
    ideal in n variables generated by the integer term maps gens."""
    slices = [sorted(monomials_of_degree(n, d), key=order.key, reverse=True) for d in range(N + 1)]
    cols = [e for s in slices for e in s]
    ech = _eliminate(gens, N, cols)
    top = len(cols) - len(slices[N])  # first degree-N column
    return TruncationData(
        N=N,
        rank=ech.rank,
        dim_truncated=len(cols),
        pivot_exponents=tuple(sorted(cols[j] for j in ech.pivots)),
        certified=sum(1 for j in ech.pivots if j >= top) == len(slices[N]),
    )


def certify_truncation(n: int, gens: tuple[Terms, ...], order: MonomialOrder, budget: int = DEFAULT_BUDGET) -> TruncationData:
    """Find the smallest N <= budget with every degree-N monomial a pivot,
    for the ideal in n variables generated by the integer term maps gens.

    That coverage certifies m^N lies in the ideal locally at the origin,
    which is exactly the zero-dimensionality needed by the degeneration
    pipeline.  Raises NotZeroDimensionalError when the budget runs out.
    """
    for N in range(2, budget + 1):
        data = truncation_at(n, gens, N, order)
        if data.certified:
            return data
    raise NotZeroDimensionalError(
        f"could not certify a maximal-ideal power inside the ideal up to exponent {budget}"
    )


def initial_ideal_pivots(n: int, gens: tuple[Terms, ...], order: MonomialOrder, budget: int = DEFAULT_BUDGET) -> MonomialIdeal:
    """Initial ideal, via truncation, of the ideal in n variables generated
    by the integer term maps gens; degree-compatible orders only.

    For a degree-compatible order, every minimal generator of the initial
    ideal is the leading monomial of an element of degree at most N, and
    those elements survive truncation unchanged, so the globally order-sorted
    pivot set generates the initial ideal.
    """
    if not order.is_degree_compatible(n):
        raise FormatError("the truncated initial-ideal oracle needs a degree-compatible order")
    N = certify_truncation(n, gens, order, budget).N
    cols = sorted((e for d in range(N + 1) for e in monomials_of_degree(n, d)), key=order.key, reverse=True)
    ech = _eliminate(gens, N, cols)
    return MonomialIdeal(n, tuple(cols[j] for j in ech.pivots))
