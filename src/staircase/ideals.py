"""Combinatorial algebra of monomial ideals.

A monomial ideal in K[x_1, ..., x_n] is stored as the antichain of its
minimal generator exponent vectors.  All operations are exact: exponents
are Python ints, rational values are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, product as iproduct

from .errors import DimensionError, FormatError, ResourceError, ideal_shape

Exponent = tuple[int, ...]

# The closure scan refuses, before enumerating facets, any box whose columns
# would take more bytes than this.
MAX_SCAN_BYTES = 200_000_000


def divides(a: Exponent, b: Exponent) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(ai <= bi for ai, bi in zip(a, b))


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(ai + bi for ai, bi in zip(a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(ai - bi for ai, bi in zip(a, b))


def exp_min(a: Exponent, b: Exponent) -> Exponent:
    return tuple(min(ai, bi) for ai, bi in zip(a, b))


def exp_max(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(ai, bi) for ai, bi in zip(a, b))


def degree(a: Exponent) -> int:
    return sum(a)


def _validate_exponent(e, n: int) -> Exponent:
    """e as n nonnegative ints; a message never formats the vector, whose ints may be huge."""
    try:
        t = tuple(e)
    except TypeError:
        raise FormatError(f"exponent of type {type(e).__name__} is not a sequence of integers") from None
    if len(t) != n:
        raise FormatError(f"exponent has length {len(t)}, expected {n}")
    out = []
    for i, c in enumerate(t):
        try:
            v = operator.index(c)
        except TypeError:
            v = None
        if v is None or isinstance(c, bool):
            shown = f"{c!r} " if isinstance(c, (bool, float, str)) else ""  # other reprs may hold huge ints
            raise FormatError(f"exponent has a non-integer entry {shown}of type {type(c).__name__} at position {i}")
        if v < 0:
            raise FormatError(f"exponent has a negative entry at position {i}; entries must be nonnegative")
        out.append(v)
    return tuple(out)


def _antichain(gens: list[Exponent]) -> tuple[Exponent, ...]:
    """Inclusion-minimal elements under divisibility, sorted lexicographically."""
    uniq = sorted(set(gens))
    if len(uniq[0]) == 2:  # a sweep: keep each exponent whose second entry is below every earlier one's
        lows = accumulate((g[1] for g in uniq), min, initial=math.inf)  # the least before each exponent
        return tuple(g for g, low in zip(uniq, lows) if g[1] < low)
    keep: list[Exponent] = []
    for g in sorted(uniq, key=degree):
        if not any(divides(k, g) for k in keep):
            keep.append(g)
    return tuple(sorted(keep))


@dataclass(frozen=True)
class MonomialIdeal:
    """A nonzero monomial ideal: ambient variable count plus minimal generators.

    Generators are normalized on construction (minimalized and sorted
    lexicographically), so equal ideals compare equal and hash equal.
    """

    n: int
    gens: tuple[Exponent, ...]

    def __post_init__(self):
        if self.n < 1:
            raise FormatError(f"ambient variable count must be >= 1, got {self.n}")
        gens = [_validate_exponent(g, self.n) for g in self.gens]
        if not gens:
            raise FormatError("a monomial ideal needs at least one generator (the zero ideal is not representable)")
        object.__setattr__(self, "gens", _antichain(gens))

    def __repr__(self):
        return f"MonomialIdeal({self.n}, {list(self.gens)})"

    @classmethod
    def _from_antichain(cls, n: int, gens: tuple[Exponent, ...]) -> MonomialIdeal:
        """An ideal from generators known to be a sorted antichain, skipping the O(m^2) minimalization."""
        J = object.__new__(cls)
        object.__setattr__(J, "n", n)
        object.__setattr__(J, "gens", gens)
        return J

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def contains_exponent(self, e: Exponent) -> bool:
        return any(divides(g, e) for g in self.gens)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        if self.n != other.n:
            raise FormatError(f"ambient mismatch: {self.n} vs {other.n}")
        return all(self.contains_exponent(g) for g in other.gens)


def monomials_of_degree(n: int, d: int) -> tuple[Exponent, ...]:
    """All exponent vectors in n >= 1 variables of total degree d, sorted lexicographically, each built in O(n)."""
    heads = [((), d)]  # (leading entries, degree left for the rest)
    for _ in range(n - 1):
        heads = [(e + (a,), left - a) for e, left in heads for a in range(left + 1)]
    return tuple(e + (left,) for e, left in heads)


def maximal_ideal_power(n: int, q: int) -> MonomialIdeal:
    """The q-th power of (x_1, ..., x_n); generators are all exponents of total degree q."""
    if n < 1:
        raise FormatError("ambient variable count must be >= 1")
    if q < 0:
        raise FormatError("power must be nonnegative")
    return MonomialIdeal._from_antichain(n, monomials_of_degree(n, q))  # one degree: an antichain


def is_zero_dimensional(J: MonomialIdeal) -> bool:
    """True iff every variable has a pure-power generator (quotient is finite)."""
    try:
        pure_power_degrees(J)
    except DimensionError:
        return False
    return True


def pure_power_degrees(J: MonomialIdeal) -> tuple[int, ...]:
    """For each variable, the d with x_i^d in the generators, read in one pass:
    minimal generators hold at most one power of each variable, and the unit
    ideal's zero vector is x_i^0 for every i.

    Raises DimensionError when some variable has no pure-power generator.
    """
    n = J.n
    degs: list[int | None] = [None] * n
    for g in J.gens:
        zeros = g.count(0)
        if zeros == n:
            return (0,) * n
        if zeros == n - 1:
            d = max(g)
            degs[g.index(d)] = d
    if None in degs:
        raise DimensionError(f"{ideal_shape(J)} is not zero-dimensional: no pure power of variable {degs.index(None)}")
    return tuple(degs)


def _colength(gens: list[Exponent]) -> int:
    if len(gens[0]) == 1:
        return min(g[0] for g in gens)
    gens = sorted(gens, key=lambda g: g[-1])
    total = 0
    slice_gens = []
    for g, above in zip(gens, gens[1:]):
        slice_gens.append(g[:-1])
        if above[-1] > g[-1]:
            total += (above[-1] - g[-1]) * _colength(slice_gens)
    return total


def colength(J: MonomialIdeal) -> int:
    """Number of standard monomials, i.e. dim_K of the quotient ring.

    Sums over slices in the last variable (Bayer-Stillman, JSC 1992): with
    h_1 < ... < h_k the distinct last coordinates of the generators, the
    monomials x' x_n^h with h_i <= h < h_{i+1} lie outside J exactly when x'
    lies outside the slice ideal generated by {g' : g_n <= h_i}, so the
    colength is the sum of (h_{i+1} - h_i) * colength(slice_i); beyond h_k,
    the pure-power degree of x_n, every monomial is in J.  In one variable
    the colength is the least exponent.  Exact for any exponent size.
    """
    pure_power_degrees(J)  # DimensionError off zero-dimensional ideals
    return _colength(list(J.gens))


def colength_inclusion_exclusion(J: MonomialIdeal) -> int:
    """Independent colength computation, for cross-checking the slice sum of colength.

    Counts box points inside the ideal by inclusion-exclusion over generator
    subsets (the lcm of a subset is the componentwise max).  Exponential in
    the number of generators; meant for small inputs.
    """
    box = pure_power_degrees(J)
    gens = J.gens
    if len(gens) > 20:
        raise ResourceError("inclusion-exclusion over more than 20 generators")
    total = math.prod(box)
    inside = 0
    m = len(gens)
    for mask in range(1, 1 << m):
        lcm = (0,) * J.n
        for i in range(m):
            if mask >> i & 1:
                lcm = exp_max(lcm, gens[i])
        count = math.prod(max(0, b - l) for b, l in zip(box, lcm))
        inside += count if bin(mask).count("1") % 2 == 1 else -count
    return total - inside


def ideal_product(J: MonomialIdeal, K: MonomialIdeal) -> MonomialIdeal:
    """Product ideal: minimalized pairwise exponent sums."""
    if J.n != K.n:
        raise FormatError(f"ambient mismatch: {J.n} vs {K.n}")
    return MonomialIdeal(J.n, tuple(exp_add(g, h) for g in J.gens for h in K.gens))


def ideal_power(J: MonomialIdeal, t: int) -> MonomialIdeal:
    """t-th power by iterated products (t = 0 gives the unit ideal)."""
    if t < 0:
        raise FormatError("power must be nonnegative")
    result = MonomialIdeal(J.n, ((0,) * J.n,))
    for _ in range(t):
        result = ideal_product(result, J)
    return result


@dataclass(frozen=True)
class GcdFactorization:
    """I = x^b * primitive, where b is the componentwise minimum of the generators."""

    b: Exponent
    primitive: MonomialIdeal


def factor_out_gcd(I: MonomialIdeal) -> GcdFactorization:
    b = I.gens[0]
    for g in I.gens[1:]:
        b = exp_min(b, g)
    # translation keeps the generators a lexicographically sorted antichain
    prim = MonomialIdeal._from_antichain(I.n, tuple(exp_sub(g, b) for g in I.gens))
    return GcdFactorization(b=b, primitive=prim)


def shift_ideal(J: MonomialIdeal, b: Exponent) -> MonomialIdeal:
    """Multiply by the monomial x^b (translate all generators by b)."""
    b = _validate_exponent(b, J.n)
    return MonomialIdeal._from_antichain(J.n, tuple(exp_add(g, b) for g in J.gens))


def integral_closure(J: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: the monomial ideal of all lattice points of the Newton polytope.

    Every minimal generator lies in the box bounded by the componentwise
    maximum B of the generators: with u in the polytope, so is min(u, B).
    The box is scanned by columns over the first n - 1 coordinates.  In
    column x' the lattice points of the polytope are (x', h) for h >= h(x'),
    the least h that the facets with c_n > 0 allow; a facet with c_n = 0
    that fails at x' empties the column.  (x', h(x')) is a minimal generator
    exactly when every nonempty column x' - e_i has a larger h.  Before any
    facet is enumerated, each column is charged 8 * n + 160 bytes against
    MAX_SCAN_BYTES: the scan keeps one height per column and at most one
    generator tuple, each with its list slot and int objects.
    """
    from .polytope import build_polytope

    box = J.gens[0]
    for g in J.gens[1:]:
        box = exp_max(box, g)
    sides = [b + 1 for b in box[:-1]]
    columns = math.prod(sides)
    need = columns * (8 * J.n + 160)
    if need > MAX_SCAN_BYTES:
        raise ResourceError(
            f"closure box with {columns} columns needs about {need} bytes, over the {MAX_SCAN_BYTES}-byte scan budget"
        )
    walls, floors = [], []
    for f in build_polytope(J).facets:
        *c, cn = f.coefficients
        (floors if cn else walls).append((c, f.rhs, cn))
    strides = [math.prod(sides[i + 1 :]) for i in range(len(sides))]
    heights: list[int | None] = []  # per column in lexicographic order; None when empty
    gens = []
    for x in iproduct(*map(range, sides)):
        h = None
        if all(sum(a * b for a, b in zip(c, x)) >= r for c, r, _ in walls):
            h = max([0] + [(r - sum(a * b for a, b in zip(c, x)) + cn - 1) // cn for c, r, cn in floors])
            if all(not x[i] or (p := heights[-strides[i]]) is None or p > h for i in range(len(x))):
                gens.append(x + (h,))
        heights.append(h)
    return MonomialIdeal._from_antichain(J.n, tuple(gens))  # lexicographic, and minimal by construction


def is_power_of_maximal(J: MonomialIdeal) -> int | None:
    """If the integral closure is the q-th power of the maximal ideal (q >= 1), return q.

    Criterion: the closure is m^q exactly when J is zero-dimensional, every
    pure-power degree equals q, and every generator has degree >= q.
    Proof: the closure is the ideal of lattice points of P(J), so it is m^q
    iff P(J) = {u >= 0 : sum u >= q}.  P(J) meets axis i in [d_i, oo), so
    equality forces d_i = q, and it contains every generator g, so sum g >= q.
    Conversely the pure powers x_i^q put P(m^q) inside P(J), and the halfspace
    sum u >= q holds on every generator, hence on all of P(J).  No facets and
    no box are needed, so this stays independent of the volumetric test
    e(J) = n^n mu^n that the equality case compares it with.
    """
    try:
        degs = pure_power_degrees(J)
    except DimensionError:
        return None
    q = degs[0]
    if q == 0 or any(d != q for d in degs) or any(degree(g) < q for g in J.gens):
        return None
    return q


def contains_polynomial(J: MonomialIdeal, f) -> bool:
    """Membership for a polynomial: every term's exponent divisible by a generator.

    Valid because a monomial ideal is spanned by the monomials it contains.
    Accepts any object with ``n`` and a ``terms`` mapping from exponents to
    coefficients; the zero polynomial belongs to every ideal.
    """
    if f.n != J.n:
        raise FormatError(f"ambient mismatch: {J.n} vs {f.n}")
    return all(J.contains_exponent(e) for e in f.terms)
