"""Buchberger's algorithm with full reduction, over the integers.

Pairs are pruned by the Gebauer-Moeller criteria (Gebauer and Moeller,
"On an installation of Buchberger's algorithm", JSC 1988).  When a new
element h joins the basis:

* criterion B drops every old pair (f, g) whose lcm L the leading
  exponent of h divides, unless lcm(f, h) or lcm(g, h) equals L;
* criteria M and F keep, among the new pairs (g, h), only those whose lcm
  no other new pair's lcm divides, one per lcm;
* a new pair with coprime leading exponents is then dropped, since its
  S-polynomial reduces to zero;
* every live element whose leading exponent h's divides is retired.

The live elements are the reducers: S-polynomials reduce against them
only, while a retired element keeps the pairs it already has.  The pair
with the smallest lcm is processed first, and the final basis is
inter-reduced, so the output is the unique reduced Groebner basis.
MAX_S_PAIRS counts processed pairs, the ones whose S-polynomial is
formed; pruned pairs are never counted.  Past it the run stops with a
resource error instead of running on.

Polynomials are integer term maps (PolyIdeal.integer_generators in, the
basis out), kept primitive with a positive leading coefficient.  A term
c x^e is cancelled against a leading term a x^le by pseudo-reduction,
work := (a/d) work - (c/d) x^(e-le) g with d = gcd(a, c), as in the
fraction-free elimination of macaulay.  Every remainder is then a nonzero
multiple of the remainder over the rationals, so leading terms, pairs and
the basis are those of rational Buchberger, each element scaled to a
primitive integer map.

Each buchberger call computes the order key of an exponent once, on first
use, and keeps it for that call only (_Keys).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from math import gcd

from .errors import FormatError, ResourceError
from .ideals import Exponent, MonomialIdeal, divides, exp_add, exp_max, exp_sub
from .polynomials import MonomialOrder, Terms

Key = Callable[[Exponent], object]  # the sort key of a monomial order

MAX_S_PAIRS = 50_000  # buchberger raises ResourceError past this many processed S-pairs


class _Keys(dict):
    """Order keys by exponent, each computed on its first lookup."""

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order = order

    def __missing__(self, e: Exponent):
        k = self[e] = self.order.key(e)
        return k


def _primitive(f: Terms, key: Key) -> tuple[Exponent, Terms]:
    """The leading exponent of f, and f divided by its content, signed so
    that the leading coefficient is positive."""
    lead = max(f, key=key)
    g = gcd(*f.values())
    if f[lead] < 0:
        g = -g
    return lead, f if g == 1 else {e: c // g for e, c in f.items()}


def reduce_full(f: Terms, basis: list[tuple[Exponent, Terms]], key: Key) -> Terms:
    """A nonzero integer multiple of the normal form of f: no term of the
    result is divisible by any basis leading exponent.  basis holds
    (leading exponent, terms) pairs; key is the order's sort key."""
    work = dict(f)
    result: Terms = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, g in basis:
            if divides(le, e):
                break
        else:
            result[e] = c
            continue
        a = g[le]
        d = gcd(a, c)
        a, c = a // d, c // d
        if a != 1:
            work = {k: a * v for k, v in work.items()}
            result = {k: a * v for k, v in result.items()}
        shift = exp_sub(e, le)
        for ge, gc in g.items():
            if ge == le:
                continue
            te = exp_add(ge, shift)
            val = work.get(te, 0) - c * gc
            if val:
                work[te] = val
            else:
                work.pop(te, None)
    return result


def s_polynomial(f: tuple[Exponent, Terms], g: tuple[Exponent, Terms]) -> Terms:
    """(b/d) x^(L-ef) f - (a/d) x^(L-eg) g, with a, b the leading
    coefficients, d = gcd(a, b) and L the lcm of the leading exponents."""
    (ef, tf), (eg, tg) = f, g
    L = exp_max(ef, eg)
    a, b = tf[ef], tg[eg]
    d = gcd(a, b)
    out: Terms = {}
    for terms, scale, shift in ((tf, b // d, exp_sub(L, ef)), (tg, -(a // d), exp_sub(L, eg))):
        for e, c in terms.items():
            key = exp_add(e, shift)
            val = out.get(key, 0) + scale * c
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def buchberger(gens: tuple[Terms, ...], order: MonomialOrder) -> tuple[tuple[Exponent, Terms], ...]:
    """The reduced Groebner basis of the ideal generated by the integer term
    maps gens (empty maps are zero and skipped), as (leading exponent,
    terms) pairs sorted by leading term, each element primitive with a
    positive leading coefficient."""
    key = _Keys(order).__getitem__
    basis = [_primitive(g, key) for g in gens if g]
    if not basis:
        raise FormatError("no nonzero generators")
    live: list[int] = []  # indices into basis of the elements that reduce
    reducers: list[tuple[Exponent, Terms]] = []
    pairs: list[tuple[object, int, int, Exponent]] = []  # heap of (key of the lcm, i, j, lcm)

    def update(k: int) -> None:
        """Add basis[k]: criterion B on the old pairs, M and F on the new
        ones, then retire the live elements whose leads basis[k]'s divides."""
        nonlocal pairs, live, reducers
        lead = basis[k][0]
        new = [(exp_max(basis[i][0], lead), i) for i in live]
        kept: list[tuple[Exponent, int, bool]] = []
        for idx, (L, i) in enumerate(new):
            coprime = L == exp_add(basis[i][0], lead)
            if coprime or not (
                any(divides(L2, L) for L2, _ in new[idx + 1 :]) or any(divides(L2, L) for L2, _, _ in kept)
            ):
                kept.append((L, i, coprime))
        pairs = [
            p
            for p in pairs
            if not divides(lead, p[3]) or exp_max(basis[p[1]][0], lead) == p[3] or exp_max(basis[p[2]][0], lead) == p[3]
        ]
        pairs.extend((key(L), i, k, L) for L, i, coprime in kept if not coprime)
        heapq.heapify(pairs)
        live = [i for i in live if not divides(lead, basis[i][0])] + [k]
        reducers = [basis[i] for i in live]

    for k in range(len(basis)):
        update(k)
    processed = 0
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        processed += 1
        if processed > MAX_S_PAIRS:
            raise ResourceError(f"S-pair budget of {MAX_S_PAIRS} exhausted")
        r = reduce_full(s_polynomial(basis[i], basis[j]), reducers, key)
        if r:
            basis.append(_primitive(r, key))
            update(len(basis) - 1)

    # Inter-reduce to the unique reduced basis.  No two live elements share
    # a leading exponent: a new element retires any live one with its lead.
    kept = [
        (le, g)
        for idx, (le, g) in enumerate(reducers)
        if not any(i2 != idx and divides(l2, le) for i2, (l2, _) in enumerate(reducers))
    ]
    reduced = [_primitive(reduce_full(g, kept[:idx] + kept[idx + 1 :], key), key) for idx, (_, g) in enumerate(kept)]
    reduced.sort(key=lambda t: key(t[0]))
    return tuple(reduced)


def initial_ideal(I, order: MonomialOrder) -> MonomialIdeal:
    """Monomial ideal of the leading exponents of a Groebner basis of the PolyIdeal I."""
    return MonomialIdeal(I.n, tuple(le for le, _ in buchberger(I.integer_generators, order)))
