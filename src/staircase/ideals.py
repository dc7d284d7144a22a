"""Combinatorial algebra of monomial ideals.

A monomial ideal in K[x_1, ..., x_n] is stored as the antichain of its
minimal generator exponent vectors.  All operations are exact: exponents
are Python ints, rational values are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .errors import DimensionError, FormatError, ResourceError

Exponent = tuple[int, ...]

# The box scans refuse, before allocating, any scan whose arrays would take
# more bytes than this.
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
    t = tuple(e)
    if len(t) != n:
        raise FormatError(f"exponent {t} has length {len(t)}, expected {n}")
    for c in t:
        if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
            raise FormatError(f"exponent {t} has a non-integer entry {c!r}")
        if c < 0:
            raise FormatError(f"exponent {t} has a negative entry")
    return tuple(int(c) for c in t)


def _antichain(gens: list[Exponent]) -> tuple[Exponent, ...]:
    """Inclusion-minimal elements under divisibility, canonically sorted."""
    uniq = sorted(set(gens), key=lambda e: (degree(e), e))
    keep: list[Exponent] = []
    for g in uniq:
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

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def contains_exponent(self, e: Exponent) -> bool:
        return any(divides(g, e) for g in self.gens)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        if self.n != other.n:
            raise FormatError(f"ambient mismatch: {self.n} vs {other.n}")
        return all(self.contains_exponent(g) for g in other.gens)


def minimalize(gens, n: int) -> MonomialIdeal:
    """Normalize a generator set to the minimal antichain presentation."""
    return MonomialIdeal(n, tuple(tuple(g) for g in gens))


def maximal_ideal_power(n: int, q: int) -> MonomialIdeal:
    """The q-th power of (x_1, ..., x_n); generators are all exponents of total degree q."""
    if q < 0:
        raise FormatError(f"power must be nonnegative, got {q}")
    if q == 0:
        return MonomialIdeal(n, ((0,) * n,))
    gens = [e for e in iproduct(range(q + 1), repeat=n) if sum(e) == q]
    return MonomialIdeal(n, tuple(gens))


def is_zero_dimensional(J: MonomialIdeal) -> bool:
    """True iff every variable has a pure-power generator (quotient is finite)."""
    for i in range(J.n):
        if not any(all(g[j] == 0 for j in range(J.n) if j != i) for g in J.gens):
            return False
    return True


def pure_power_degrees(J: MonomialIdeal) -> tuple[int, ...]:
    """For each variable, the least d with x_i^d in the generators.

    Raises DimensionError when some variable has no pure-power generator.
    """
    degs = []
    for i in range(J.n):
        cands = [g[i] for g in J.gens if all(g[j] == 0 for j in range(J.n) if j != i)]
        if not cands:
            raise DimensionError(f"ideal {J} is not zero-dimensional: no pure power of variable {i}")
        degs.append(min(cands))
    return tuple(degs)


def _check_scan_budget(what: str, cells: int, bytes_per_cell: int) -> None:
    need = cells * bytes_per_cell
    if need > MAX_SCAN_BYTES:
        raise ResourceError(
            f"{what} with {cells} cells needs about {need} bytes, over the {MAX_SCAN_BYTES}-byte scan budget"
        )


def _standard_monomial_mask(J: MonomialIdeal, box: tuple[int, ...]) -> np.ndarray:
    """Boolean array over prod(range(b) for b in box), True on monomials outside J."""
    _check_scan_budget("staircase box", math.prod(box), 1)
    arr = np.ones(box, dtype=bool)
    for g in J.gens:
        if all(gi < bi for gi, bi in zip(g, box)):
            arr[tuple(slice(gi, None) for gi in g)] = False
    return arr


def colength(J: MonomialIdeal) -> int:
    """Number of standard monomials, i.e. dim_K of the quotient ring.

    Enumerates the box bounded by the pure-power degrees; monomials outside
    that box always lie in the ideal.
    """
    box = pure_power_degrees(J)
    if any(b == 0 for b in box):
        return 0
    return int(_standard_monomial_mask(J, box).sum())


def colength_inclusion_exclusion(J: MonomialIdeal) -> int:
    """Independent colength computation, for cross-checking the box sieve.

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
        raise FormatError(f"power must be nonnegative, got {t}")
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
    prim = MonomialIdeal(I.n, tuple(exp_sub(g, b) for g in I.gens))
    return GcdFactorization(b=b, primitive=prim)


def shift_ideal(J: MonomialIdeal, b: Exponent) -> MonomialIdeal:
    """Multiply by the monomial x^b (translate all generators by b)."""
    b = _validate_exponent(b, J.n)
    return MonomialIdeal(J.n, tuple(exp_add(g, b) for g in J.gens))


def integral_closure(J: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: the monomial ideal of all lattice points of the Newton polytope.

    Scans the box bounded by the componentwise maximum of the generators;
    any minimal generator of the closure is dominated by that bound, and
    points outside it are divisible by a point inside.  Each cell costs 8
    bytes per coordinate (the index array), 1 for the membership mask and
    what the facet test allocates per point; the first two are checked before
    the facets are enumerated, all three before the scan.
    """
    from .polytope import build_polytope

    box = J.gens[0]
    for g in J.gens[1:]:
        box = exp_max(box, g)
    shape = tuple(b + 1 for b in box)
    cells = math.prod(shape)
    _check_scan_budget("closure box", cells, 8 * J.n + 1)
    P = build_polytope(J)
    _check_scan_budget("closure box", cells, 8 * J.n + 1 + P.batch_bytes_per_point())
    pts = np.indices(shape).reshape(J.n, -1).T
    mask = P.contains_lattice_batch(pts).reshape(shape)
    # Minimal elements of an upward-closed set: no immediate predecessor inside.
    pred = np.zeros(shape, dtype=bool)
    for axis in range(J.n):
        hi = [slice(None)] * J.n
        lo = [slice(None)] * J.n
        hi[axis] = slice(1, None)
        lo[axis] = slice(None, -1)
        pred[tuple(hi)] |= mask[tuple(lo)]
    minimal = mask & ~pred
    gens = [tuple(int(c) for c in e) for e in np.argwhere(minimal)]
    return MonomialIdeal(J.n, tuple(gens))


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
